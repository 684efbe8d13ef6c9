#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "sim/lidar.h"
#include "sim/scene.h"
#include "spod/clustering.h"
#include "spod/confidence.h"
#include "spod/detector.h"

namespace cooper::spod {
namespace {

// --- Clustering ---

pc::PointCloud GridPatch(double cx, double cy, double half, double step,
                         double z = 0.5) {
  pc::PointCloud cloud;
  for (double x = cx - half; x <= cx + half; x += step) {
    for (double y = cy - half; y <= cy + half; y += step) {
      cloud.Add({x, y, z}, 0.5f);
    }
  }
  return cloud;
}

TEST(ClusteringTest, SeparatedPatchesFormTwoClusters) {
  pc::PointCloud cloud = GridPatch(0, 0, 1.0, 0.25);
  cloud.Merge(GridPatch(10, 0, 1.0, 0.25));
  const auto clusters = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(clusters.size(), 2u);
}

TEST(ClusteringTest, NearbyPatchesMerge) {
  pc::PointCloud cloud = GridPatch(0, 0, 1.0, 0.25);
  cloud.Merge(GridPatch(2.5, 0, 1.0, 0.25));  // 0.5 m gap < radius
  const auto clusters = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(clusters.size(), 1u);
}

TEST(ClusteringTest, SmallClustersDiscarded) {
  pc::PointCloud cloud;
  cloud.Add({0, 0, 0}, 0.0f);
  cloud.Add({0.1, 0, 0}, 0.0f);
  cloud.Merge(GridPatch(20, 0, 1.0, 0.25));
  const auto clusters = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_GT(clusters[0].points.size(), 5u);
}

TEST(ClusteringTest, EmptyCloudYieldsNoClusters) {
  EXPECT_TRUE(ClusterPoints(pc::PointCloud{}, 0.9, 5).empty());
}

TEST(ClusteringTest, DeterministicOrder) {
  pc::PointCloud cloud = GridPatch(5, 5, 1.0, 0.3);
  cloud.Merge(GridPatch(-5, -5, 1.0, 0.3));
  const auto a = ClusterPoints(cloud, 0.9, 5);
  const auto b = ClusterPoints(cloud, 0.9, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].points.size(), b[i].points.size());
  }
}

TEST(ClusteringTest, ZDoesNotSplitClusters) {
  // BEV clustering: a tall object is one cluster.
  pc::PointCloud cloud;
  for (double z = 0.0; z < 2.0; z += 0.1) {
    cloud.Add({0, 0, z}, 0.5f);
    cloud.Add({0.3, 0.0, z}, 0.5f);
  }
  EXPECT_EQ(ClusterPoints(cloud, 0.9, 5).size(), 1u);
}

void ExpectClustersIdentical(const std::vector<Cluster>& a,
                             const std::vector<Cluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].points.size(), b[i].points.size()) << "cluster " << i;
    for (std::size_t p = 0; p < a[i].points.size(); ++p) {
      EXPECT_EQ(a[i].points[p].position.x, b[i].points[p].position.x);
      EXPECT_EQ(a[i].points[p].position.y, b[i].points[p].position.y);
      EXPECT_EQ(a[i].points[p].position.z, b[i].points[p].position.z);
      EXPECT_EQ(a[i].points[p].reflectance, b[i].points[p].reflectance);
    }
  }
}

TEST(ClusteringTest, ScratchAndThreadCountDoNotChangeClusters) {
  pc::PointCloud cloud = GridPatch(0, 0, 2.0, 0.2);
  cloud.Merge(GridPatch(12, 4, 1.5, 0.2));
  cloud.Merge(GridPatch(-9, -7, 1.0, 0.2));
  const auto base = ClusterPoints(cloud, 0.9, 5);
  ClusterScratch scratch;
  for (const int threads : {1, 2, 5}) {
    ExpectClustersIdentical(base, ClusterPoints(cloud, 0.9, 5, threads));
    // Same scratch reused across calls and thread counts.
    ExpectClustersIdentical(base,
                            ClusterPoints(cloud, 0.9, 5, threads, &scratch));
  }
}

TEST(ClusteringTest, DistantPaddingDoesNotChangeSharedClusters) {
  // Two patches close to the origin, alone and padded with one distant extra
  // patch: the shared structure must cluster identically.
  pc::PointCloud small = GridPatch(0, 0, 1.0, 0.25);
  small.Merge(GridPatch(8, 2, 1.0, 0.25));
  pc::PointCloud large = small;
  large.Merge(GridPatch(60, 60, 1.5, 0.2));
  const auto small_clusters = ClusterPoints(small, 0.9, 5);
  const auto large_clusters = ClusterPoints(large, 0.9, 5);
  ASSERT_EQ(small_clusters.size(), 2u);
  ASSERT_EQ(large_clusters.size(), 3u);
  // Canonical order sorts by first-point position, so the shared clusters
  // occupy the same slots in both results (the padding patch sorts last).
  std::vector<Cluster> shared(large_clusters.begin(),
                              large_clusters.begin() + 2);
  ExpectClustersIdentical(small_clusters, shared);
}

// Random scatter plus the geometry where a cell-based shortcut could go
// wrong: pairs at exactly the radius, isolated pairs within 5% of it at
// random orientations, points on and beside cell boundaries (cells are
// 0.7 * radius), negative coordinates, duplicate BEV points.
pc::PointCloud AdversarialCloud(double radius, Rng& rng) {
  pc::PointCloud cloud;
  for (int i = 0; i < 1500; ++i) {
    cloud.Add({rng.Uniform(-12.0, 12.0), rng.Uniform(-12.0, 12.0),
               rng.Uniform(-1.0, 2.0)},
              static_cast<float>(rng.Uniform()));
  }
  for (int k = 0; k < 40; ++k) {  // pairs one radius apart along x and y
    const double x0 = -30.0 - 3.0 * k, y0 = 20.0 + 3.0 * k;
    cloud.Add({x0, y0, 0.0}, 0.1f);
    cloud.Add({x0 + (k % 2 == 0 ? radius : -radius), y0, 0.0}, 0.2f);
    cloud.Add({-x0, -y0, 0.0}, 0.3f);
    cloud.Add({-x0, -y0 + (k % 2 == 0 ? radius : -radius), 0.0}, 0.4f);
  }
  // Exactly r apart (0 - r is exact), and one ulp past r.
  cloud.Add({0.0, 40.0, 0.0}, 0.5f);
  cloud.Add({radius, 40.0, 0.0}, 0.5f);
  cloud.Add({0.0, -45.0, 0.0}, 0.5f);
  cloud.Add({std::nextafter(radius, 2.0 * radius), -45.0, 0.0}, 0.5f);
  const double cell = 0.7 * radius;
  for (int k = -30; k <= 30; ++k) {  // on, just below and just above bounds
    const double b = k * cell;
    const double y = 60.0 + 0.37 * k;
    cloud.Add({b, y, 0.0}, 0.6f);
    cloud.Add({std::nextafter(b, -1e9), -y, 0.0}, 0.6f);
    cloud.Add({std::nextafter(b, 1e9), y + 0.5 * cell, 0.0}, 0.6f);
    cloud.Add({-y, b + radius, 0.0}, 0.6f);
  }
  for (int k = 0; k < 400; ++k) {  // isolated pairs just inside/outside r
    const double x0 = 100.0 + 4.0 * (k % 20) + rng.Uniform();
    const double y0 = -40.0 + 4.0 * (k / 20) + rng.Uniform();
    const double d = radius * rng.Uniform(0.95, 1.05);
    const double a = rng.Uniform(0.0, 6.283185307179586);
    cloud.Add({x0, y0, 0.0}, 0.8f);
    cloud.Add({x0 + d * std::cos(a), y0 + d * std::sin(a), 0.0}, 0.8f);
  }
  for (int k = 0; k < 200; ++k) {  // duplicate BEV points, distinct z
    const pc::Point p = cloud[rng.UniformInt(cloud.size())];
    cloud.Add({p.position.x, p.position.y, p.position.z + 0.5}, 0.7f);
  }
  return cloud;
}

// A dense fused car wall: 20k points on a 4.5 m x 0.15 m strip, plus a
// sparser parallel wall about one radius away, so neighbouring cells hold
// hundreds of points and some cell pairs have no pair within the radius.
pc::PointCloud CarWallCloud(double radius, Rng& rng) {
  pc::PointCloud cloud;
  for (int i = 0; i < 20000; ++i) {
    cloud.Add({rng.Uniform(5.0, 9.5), rng.Uniform(-2.0, -1.85),
               rng.Uniform(-1.2, 0.3)},
              0.5f);
  }
  for (int i = 0; i < 2000; ++i) {
    cloud.Add({rng.Uniform(5.0, 9.5), -1.85 + radius * rng.Uniform(0.98, 1.3),
               rng.Uniform(-1.2, 0.3)},
              0.5f);
  }
  return cloud;
}

TEST(ClusteringTest, ComponentsMatchBruteForceOracle) {
  // The merge and split radii of both detector configs.
  ClusterScratch scratch;
  for (const double radius : {0.9, 1.1, 0.495, 0.605}) {
    Rng rng(static_cast<std::uint64_t>(radius * 1000));
    for (const pc::PointCloud& cloud :
         {AdversarialCloud(radius, rng), CarWallCloud(radius, rng)}) {
      const auto expected = ClusterPointsBruteForce(cloud, radius, 1);
      SCOPED_TRACE("radius " + std::to_string(radius) + ", " +
                   std::to_string(cloud.size()) + " points");
      for (const int threads : {1, 2, 4}) {
        ExpectClustersIdentical(expected,
                                ClusterPoints(cloud, radius, 1, threads));
        ExpectClustersIdentical(
            expected, ClusterPoints(cloud, radius, 1, threads, &scratch));
      }
    }
  }
}

TEST(ClusteringDeathTest, NonPositiveOrNonFiniteRadiusAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const pc::PointCloud cloud = GridPatch(0, 0, 1.0, 0.25);
  EXPECT_DEATH(ClusterPoints(cloud, 0.0, 1), "merge_radius");
  EXPECT_DEATH(ClusterPoints(cloud, -0.9, 1), "merge_radius");
  EXPECT_DEATH(ClusterPoints(cloud, std::numeric_limits<double>::infinity(), 1),
               "merge_radius");
  EXPECT_DEATH(ClusterPoints(cloud, std::nan(""), 1), "merge_radius");
}

// --- Box fitting ---

class BoxFitYawTest : public ::testing::TestWithParam<double> {};

TEST_P(BoxFitYawTest, RecoversOrientedRectangle) {
  const double yaw = geom::DegToRad(GetParam());
  pc::PointCloud cloud;
  // Dense rectangle outline 4 x 1.6, rotated by yaw.
  for (double lx = -2.0; lx <= 2.0; lx += 0.1) {
    for (double ly : {-0.8, 0.8}) {
      cloud.Add({lx * std::cos(yaw) - ly * std::sin(yaw),
                 lx * std::sin(yaw) + ly * std::cos(yaw), 0.7},
                0.5f);
    }
  }
  for (double ly = -0.8; ly <= 0.8; ly += 0.1) {
    for (double lx : {-2.0, 2.0}) {
      cloud.Add({lx * std::cos(yaw) - ly * std::sin(yaw),
                 lx * std::sin(yaw) + ly * std::cos(yaw), 0.7},
                0.5f);
    }
  }
  const geom::Box3 box = FitOrientedBox(cloud);
  EXPECT_NEAR(box.length, 4.0, 0.15);
  EXPECT_NEAR(box.width, 1.6, 0.15);
  // Yaw is recovered modulo 180 degrees (box symmetry).
  const double err = std::abs(geom::WrapAngle(box.yaw - yaw));
  EXPECT_LT(std::min(err, 3.14159265 - err), geom::DegToRad(4.0));
}

INSTANTIATE_TEST_SUITE_P(YawSweep, BoxFitYawTest,
                         ::testing::Values(0.0, 15.0, 30.0, 45.0, 60.0, 85.0,
                                           120.0, 170.0));

TEST(BoxFitTest, HeightFromZExtent) {
  pc::PointCloud cloud;
  for (int i = 0; i <= 12; ++i) cloud.Add({0, 0, 0.2 + 0.1 * i}, 0.5f);
  cloud.Add({1, 0, 0.2}, 0.5f);
  cloud.Add({0, 1, 0.2}, 0.5f);
  const geom::Box3 box = FitOrientedBox(cloud);
  EXPECT_NEAR(box.height, 1.2, 1e-6);
  EXPECT_NEAR(box.center.z, 0.8, 1e-6);
}

TEST(BoxFitTest, LengthIsAlwaysMajorAxis) {
  pc::PointCloud cloud = GridPatch(0, 0, 0.5, 0.1);
  for (double y = -3; y <= 3; y += 0.1) cloud.Add({0, y, 0.5}, 0.5f);
  const geom::Box3 box = FitOrientedBox(cloud);
  EXPECT_GE(box.length, box.width);
}

// --- Confidence model ---

SensorResolution DenseSensor() {
  return MakeSensorResolution(64, 2.0, -24.8, 1024);
}
SensorResolution SparseSensor() {
  return MakeSensorResolution(16, 15.0, -15.0, 1800);
}

TEST(ConfidenceTest, ExpectedPointsDecreaseWithRange) {
  const auto s = DenseSensor();
  EXPECT_GT(ExpectedPointsOnCar(10, s), ExpectedPointsOnCar(20, s));
  EXPECT_GT(ExpectedPointsOnCar(20, s), ExpectedPointsOnCar(40, s));
  EXPECT_EQ(ExpectedPointsOnCar(0, s), 0.0);
}

TEST(ConfidenceTest, DenseSensorExpectsMorePoints) {
  // HDL-64's elevation resolution is ~4.7x finer; the VLP-16 preset has a
  // finer azimuth step, so the net expectation gap is ~2.7x.
  EXPECT_GT(ExpectedPointsOnCar(20, DenseSensor()),
            2.0 * ExpectedPointsOnCar(20, SparseSensor()));
}

TEST(ConfidenceTest, ProjectedWidthOrientationDependence) {
  geom::Box3 side{{20, 0, 0}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  geom::Box3 nose{{20, 0, 0}, 4.5, 1.8, 1.5, 0.0};
  EXPECT_GT(ProjectedSilhouetteWidth(side), 4.0);   // broadside
  EXPECT_LT(ProjectedSilhouetteWidth(nose), 2.0);   // end-on
}

pc::PointCloud CarCluster(double range, int n) {
  pc::PointCloud cloud;
  Rng rng(42);
  for (int i = 0; i < n; ++i) {
    cloud.Add({range + rng.Uniform(-0.2, 0.2), rng.Uniform(-2.2, 2.2),
               rng.Uniform(0.1, 1.4)},
              0.5f);
  }
  return cloud;
}

TEST(ConfidenceTest, MorePointsNeverLowerScore) {
  const auto sensor = SparseSensor();
  const geom::Box3 box{{20, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  double prev = 0.0;
  for (const int n : {5, 10, 20, 40, 80, 160}) {
    const auto f = ComputeEvidence(CarCluster(20, n), box.Expanded(0.3), sensor);
    const double s = ScoreFromEvidence(f);
    EXPECT_GE(s + 1e-9, prev) << "n=" << n;
    prev = s;
  }
}

TEST(ConfidenceTest, FullyVisibleCarScoresHigh) {
  const auto sensor = DenseSensor();
  const geom::Box3 box{{15, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  const int n = static_cast<int>(ExpectedPointsOnCar(15, sensor));
  const auto f = ComputeEvidence(CarCluster(15, n), box.Expanded(0.3), sensor);
  EXPECT_GT(ScoreFromEvidence(f), 0.7);
}

TEST(ConfidenceTest, SparseEvidenceFallsBelowThreshold) {
  const auto sensor = DenseSensor();
  const geom::Box3 box{{15, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  const auto f = ComputeEvidence(CarCluster(15, 8), box.Expanded(0.3), sensor);
  EXPECT_LT(ScoreFromEvidence(f), 0.5);
}

TEST(ConfidenceTest, ScoreIsBounded) {
  const auto sensor = SparseSensor();
  const geom::Box3 box{{5, 0, 0.75}, 4.5, 1.8, 1.5, 0.0};
  const auto f = ComputeEvidence(CarCluster(5, 5000), box.Expanded(0.3), sensor);
  const double s = ScoreFromEvidence(f);
  EXPECT_GE(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(ConfidenceTest, EvidenceFeaturesPopulated) {
  const auto sensor = DenseSensor();
  const geom::Box3 box{{15, 0, 0.75}, 4.5, 1.8, 1.5, geom::DegToRad(90)};
  const auto f = ComputeEvidence(CarCluster(15, 100), box.Expanded(0.3), sensor);
  EXPECT_EQ(f.num_points, 100u);
  EXPECT_GT(f.visibility, 0.0);
  EXPECT_GT(f.coverage, 0.3);
  EXPECT_GT(f.height_extent, 0.8);
}

// --- Detector end-to-end ---

pc::PointCloud ScanScene(const sim::Scene& scene, int beams,
                         std::uint64_t seed = 5) {
  sim::LidarConfig cfg = beams >= 32 ? sim::Hdl64Config() : sim::Vlp16Config();
  cfg.azimuth_steps = beams >= 32 ? 720 : 1200;
  Rng rng(seed);
  return sim::LidarSimulator(cfg).Scan(scene, geom::Pose::Identity(), rng);
}

SpodDetector DenseDetector() {
  SpodConfig cfg = MakeDenseSpodConfig();
  return SpodDetector(cfg, MakeSensorResolution(64, 2.0, -24.8, 720));
}

TEST(DetectorTest, DetectsIsolatedCar) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 2, 0}, 30.0), 0.6);
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  ASSERT_GE(result.detections.size(), 1u);
  const auto& d = result.detections[0];
  EXPECT_NEAR(d.box.center.x, 12.0, 1.5);
  EXPECT_NEAR(d.box.center.y, 2.0, 1.5);
  EXPECT_GT(d.score, 0.5);
}

TEST(DetectorTest, RejectsLongWall) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kWall, sim::MakeWallBox({15, 0, 0}, 90.0, 30.0));
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  for (const auto& d : result.detections) {
    EXPECT_LT(d.score, 0.5) << "wall scored as car at ("
                            << d.box.center.x << "," << d.box.center.y << ")";
  }
}

TEST(DetectorTest, EmptyCloudYieldsNoDetections) {
  const auto result = DenseDetector().Detect(pc::PointCloud{});
  EXPECT_TRUE(result.detections.empty());
  EXPECT_EQ(result.num_voxels, 0u);
}

TEST(DetectorTest, NanPointsAreTolerated) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 0, 0}, 0.0), 0.6);
  pc::PointCloud cloud = ScanScene(scene, 64);
  cloud.Add({std::nan(""), 0, 0}, 0.0f);
  cloud.Add({0, std::numeric_limits<double>::infinity(), 0}, 0.5f);
  const auto result = DenseDetector().Detect(cloud);
  EXPECT_GE(result.detections.size(), 1u);
}

TEST(DetectorTest, TwoSeparateCarsTwoDetections) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, 5, 0}, 0.0), 0.6);
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({12, -5, 0}, 0.0), 0.6);
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  int good = 0;
  for (const auto& d : result.detections) good += d.score >= 0.5 ? 1 : 0;
  EXPECT_EQ(good, 2);
}

TEST(DetectorTest, NmsSuppressesOverlaps) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 0, 0}, 0.0), 0.6);
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  for (std::size_t i = 0; i < result.detections.size(); ++i) {
    for (std::size_t j = i + 1; j < result.detections.size(); ++j) {
      EXPECT_LE(geom::BevIou(result.detections[i].box, result.detections[j].box),
                0.1 + 1e-9);
    }
  }
}

TEST(DetectorTest, SparseConfigDetectsOn16Beam) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 1, 0}, 45.0), 0.6);
  SpodConfig cfg = MakeSparseSpodConfig();
  cfg.spherical.rows = 32;
  const SpodDetector detector(cfg, MakeSensorResolution(16, 15.0, -15.0, 1200));
  const auto result = detector.Detect(ScanScene(scene, 16));
  ASSERT_GE(result.detections.size(), 1u);
  EXPECT_GT(result.detections[0].score, 0.5);
}

TEST(DetectorTest, DeterministicResults) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({14, -3, 0}, 10.0), 0.6);
  const pc::PointCloud cloud = ScanScene(scene, 64);
  const auto a = DenseDetector().Detect(cloud);
  const auto b = DenseDetector().Detect(cloud);
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.detections[i].score, b.detections[i].score);
  }
}

TEST(DetectorTest, ScratchReuseAcrossSizesIsBitIdentical) {
  // One instance keeps its working storage across calls, cleared — not
  // freed.  Driving it through clouds of different sizes (A -> B -> A), with
  // a feature-map extraction in between that shares the voxel scratch, must
  // reproduce a freshly constructed detector's output bit for bit, at one
  // thread and several.
  sim::Scene small_scene;
  small_scene.AddObject(sim::ObjectClass::kCar,
                        sim::MakeCarBox({12, 2, 0}, 30.0), 0.6);
  sim::Scene big_scene = small_scene;
  big_scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({16, -5, 0}, 75.0),
                      0.6);
  big_scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({25, 6, 0}, 10.0),
                      0.6);
  const pc::PointCloud cloud_a = ScanScene(small_scene, 64);
  const pc::PointCloud cloud_b = ScanScene(big_scene, 64);
  ASSERT_NE(cloud_a.size(), cloud_b.size());

  auto expect_same = [](const SpodResult& want, const SpodResult& got,
                        const std::string& what) {
    EXPECT_EQ(got.num_voxels, want.num_voxels) << what;
    ASSERT_EQ(got.detections.size(), want.detections.size()) << what;
    for (std::size_t i = 0; i < want.detections.size(); ++i) {
      const auto& a = want.detections[i];
      const auto& b = got.detections[i];
      EXPECT_EQ(a.score, b.score) << what << " det " << i;
      EXPECT_EQ(a.cls, b.cls) << what << " det " << i;
      EXPECT_EQ(a.num_points, b.num_points) << what << " det " << i;
      EXPECT_EQ(a.box.center.x, b.box.center.x) << what << " det " << i;
      EXPECT_EQ(a.box.center.y, b.box.center.y) << what << " det " << i;
      EXPECT_EQ(a.box.center.z, b.box.center.z) << what << " det " << i;
      EXPECT_EQ(a.box.length, b.box.length) << what << " det " << i;
      EXPECT_EQ(a.box.width, b.box.width) << what << " det " << i;
      EXPECT_EQ(a.box.height, b.box.height) << what << " det " << i;
      EXPECT_EQ(a.box.yaw, b.box.yaw) << what << " det " << i;
    }
  };
  auto expect_same_map = [](const feat::FeatureMap& want,
                            const feat::FeatureMap& got) {
    ASSERT_EQ(got.num_active(), want.num_active());
    for (std::size_t i = 0; i < want.num_active(); ++i) {
      ASSERT_EQ(got.tensor.coords[i], want.tensor.coords[i]) << i;
    }
    ASSERT_EQ(got.tensor.features.size(), want.tensor.features.size());
    for (std::size_t i = 0; i < want.tensor.features.size(); ++i) {
      ASSERT_EQ(got.tensor.features[i], want.tensor.features[i]) << i;
    }
  };

  for (const int threads : {1, 4}) {
    SpodConfig cfg = MakeDenseSpodConfig();
    cfg.num_threads = threads;
    const SensorResolution sensor = MakeSensorResolution(64, 2.0, -24.8, 720);
    const SpodResult fresh_a = SpodDetector(cfg, sensor).Detect(cloud_a);
    const SpodResult fresh_b = SpodDetector(cfg, sensor).Detect(cloud_b);
    const feat::FeatureMap fresh_map =
        SpodDetector(cfg, sensor).ExtractFeatureMap(cloud_b);
    ASSERT_FALSE(fresh_a.detections.empty());
    ASSERT_GT(fresh_b.detections.size(), fresh_a.detections.size());

    const SpodDetector reused(cfg, sensor);
    const std::string t = " t" + std::to_string(threads);
    expect_same(fresh_a, reused.Detect(cloud_a), "A first" + t);
    expect_same(fresh_b, reused.Detect(cloud_b), "B after A" + t);
    expect_same_map(fresh_map, reused.ExtractFeatureMap(cloud_b));
    expect_same(fresh_a, reused.Detect(cloud_a), "A after B + features" + t);
    expect_same(fresh_a, reused.Detect(cloud_a), "A repeat" + t);
  }
}

TEST(DetectorTest, TimingsArePopulated) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 0, 0}, 0.0), 0.6);
  const auto result = DenseDetector().Detect(ScanScene(scene, 64));
  EXPECT_GT(result.timings.preprocess_us, 0.0);
  EXPECT_GT(result.timings.voxelize_us, 0.0);
  EXPECT_GT(result.timings.proposals_us, 0.0);
  EXPECT_GT(result.timings.TotalUs(), result.timings.proposals_us);
  EXPECT_GT(result.num_voxels, 0u);
}

TEST(DetectorTest, DensifyIsNoOpForDenseConfig) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({10, 0, 0}, 0.0), 0.6);
  const pc::PointCloud cloud = ScanScene(scene, 64);
  const SpodDetector detector = DenseDetector();
  EXPECT_EQ(detector.Densify(cloud).size(), cloud.size());
}

TEST(DetectorTest, DensifyAddsPointsForSparseConfig) {
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({8, 0, 0}, 90.0), 0.6);
  SpodConfig cfg = MakeSparseSpodConfig();
  const SpodDetector detector(cfg, MakeSensorResolution(16, 15.0, -15.0, 1200));
  const pc::PointCloud cloud = ScanScene(scene, 16);
  EXPECT_GT(detector.Densify(cloud).size(), cloud.size());
}

TEST(DetectorTest, MergedCloudsRaiseScore) {
  // The core SPOD property Cooper relies on: two viewpoints' worth of points
  // on the same car yield a score at least as high as either alone.
  sim::Scene scene;
  scene.AddObject(sim::ObjectClass::kCar, sim::MakeCarBox({14, 0, 0}, 90.0), 0.6);
  sim::LidarConfig cfg = sim::Hdl64Config();
  cfg.azimuth_steps = 720;
  Rng rng(9);
  const auto front = sim::LidarSimulator(cfg).Scan(
      scene, geom::Pose::FromGpsImu({0, 0, 0}, {0, 0, 0}), rng);
  const auto back_pose = geom::Pose::FromGpsImu({28, 0, 0}, {geom::DegToRad(180), 0, 0});
  const auto back = sim::LidarSimulator(cfg).Scan(scene, back_pose, rng);

  const SpodDetector detector = DenseDetector();
  const auto single = detector.Detect(front);
  pc::PointCloud fused = front;
  fused.Merge(back.Transformed(geom::Pose::Between(
      geom::Pose(geom::Mat3::Identity(), {0, 0, cfg.sensor_height}),
      back_pose * geom::Pose(geom::Mat3::Identity(), {0, 0, cfg.sensor_height}))));
  const auto coop = detector.DetectPreprocessed(fused);

  ASSERT_FALSE(single.detections.empty());
  ASSERT_FALSE(coop.detections.empty());
  EXPECT_GE(coop.detections[0].score + 0.05, single.detections[0].score);
  EXPECT_GT(coop.detections[0].num_points, single.detections[0].num_points);
}

}  // namespace
}  // namespace cooper::spod

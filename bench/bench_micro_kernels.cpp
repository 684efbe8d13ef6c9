// Micro-benchmarks for the hot-path kernels this codebase optimises:
// voxelisation with and without a reusable scratch, BEV clustering of the
// fused KITTI cloud, the ICP correspondence gather and the frame CRC-32.
//
// Two modes:
//   default       — timed run (best-of-reps), writes a JSON baseline to
//                   BENCH_kernels.json (override with --out=PATH).  The
//                   committed baseline in the repo root is produced this way.
//   --smoke       — few iterations, no timing thresholds; instead asserts
//                   that every optimised kernel is bit-identical to its
//                   reference (scratch vs fresh, threaded vs serial, scalar
//                   vs vector dispatch, clustering vs its brute-force
//                   reference).  This is what the `perf` ctest
//                   label runs, including under the sanitizer presets.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"
#include "fig9_case.h"
#include "net/crc32.h"
#include "pointcloud/icp.h"
#include "pointcloud/point_cloud.h"
#include "pointcloud/voxel_grid.h"
#include "spod/clustering.h"

using namespace cooper;

namespace {

struct BenchResult {
  std::string name;
  int reps = 0;
  double best_ms = 0.0;
  double mean_ms = 0.0;
};

/// Best/mean wall-clock over `reps` calls of `fn` (first call not excluded:
/// warmup is the caller's job where it matters).
template <typename Fn>
BenchResult TimeKernel(const std::string& name, int reps, Fn&& fn) {
  BenchResult r;
  r.name = name;
  r.reps = reps;
  double sum = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    sum += ms;
    if (i == 0 || ms < r.best_ms) r.best_ms = ms;
  }
  r.mean_ms = sum / reps;
  std::printf("  %-32s best %8.3f ms  mean %8.3f ms  (%d reps)\n",
              name.c_str(), r.best_ms, r.mean_ms, reps);
  return r;
}

// --- Deterministic workloads ---

pc::PointCloud MakeScanLikeCloud(std::size_t n, Rng& rng) {
  pc::PointCloud cloud;
  cloud.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cloud.Add({rng.Uniform(0.0, 70.0), rng.Uniform(-40.0, 40.0),
               rng.Uniform(-2.5, 0.8)},
              static_cast<float>(rng.Uniform()));
  }
  return cloud;
}

// Above-ground points of the fused KITTI T-junction cloud of Fig. 9 — the
// input SpodDetector clusters on the Cooper step.
pc::PointCloud FusedKittiAboveGround() {
  const benchutil::Fig9Case p =
      benchutil::PrepareFig9Case(sim::MakeKittiTJunction());
  pc::PointCloud fused = p.fused_cloud;
  fused.RemoveInvalid();
  return fused.FilterMinZ(pc::EstimateGroundZ(fused) +
                          p.config.detector.ground_margin);
}

// --- Bit-identity checks (the --smoke contract) ---

void CheckClustersEqual(const std::vector<spod::Cluster>& a,
                        const std::vector<spod::Cluster>& b, const char* what) {
  COOPER_CHECK(a.size() == b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    COOPER_CHECK(a[c].points.size() == b[c].points.size());
    for (std::size_t i = 0; i < a[c].points.size(); ++i) {
      const pc::Point& p = a[c].points[i];
      const pc::Point& q = b[c].points[i];
      COOPER_CHECK(p.position.x == q.position.x &&
                   p.position.y == q.position.y &&
                   p.position.z == q.position.z &&
                   p.reflectance == q.reflectance);
    }
  }
  std::printf("  %-32s bit-identical: yes\n", what);
}

void CheckGridsEqual(const pc::VoxelGrid& a, const pc::VoxelGrid& b,
                     const char* what) {
  COOPER_CHECK(a.voxels().size() == b.voxels().size());
  for (std::size_t i = 0; i < a.voxels().size(); ++i) {
    COOPER_CHECK(a.voxels()[i].coord == b.voxels()[i].coord);
    COOPER_CHECK(a.voxels()[i].point_indices == b.voxels()[i].point_indices);
  }
  std::printf("  %-32s bit-identical: yes\n", what);
}

// Forces the scalar dispatch tier for the lifetime of the scope — used for
// the paired "<kernel>_scalar" comparison rows and the scalar-vs-simd smoke
// equality checks.  Restores auto (best detected tier) on exit.
struct ScopedScalarMode {
  ScopedScalarMode() { common::simd::SetMode(common::simd::Mode::kScalar); }
  ~ScopedScalarMode() { common::simd::SetMode(common::simd::Mode::kAuto); }
};

// RNG seeds for each deterministic workload, stamped into the JSON baseline
// so a reader can reproduce the exact inputs (see EXPERIMENTS.md "Seeds").
constexpr std::uint64_t kVoxelizeSeed = 101;
constexpr std::uint64_t kIcpSeed = 505;
constexpr std::uint64_t kCrcSeed = 606;
// The dense-config merge radius (SpodConfig::cluster_merge_radius).
constexpr double kClusterRadius = 0.9;

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  const int reps = smoke ? 2 : 10;
  std::printf("Cooper micro-kernel benchmarks (%s mode)\n\n",
              smoke ? "smoke" : "timed");
  std::vector<BenchResult> results;

  // --- Voxelisation ---
  {
    Rng rng(kVoxelizeSeed);
    const pc::PointCloud cloud = MakeScanLikeCloud(120000, rng);
    pc::VoxelGridConfig cfg;  // KITTI-style defaults
    std::printf("voxelize: %zu points\n", cloud.size());
    results.push_back(TimeKernel("voxelize_cold", reps, [&] {
      const pc::VoxelGrid grid(cloud, cfg);
      COOPER_CHECK(!grid.voxels().empty());
    }));
    pc::VoxelGridScratch scratch;
    { const pc::VoxelGrid warmup(cloud, cfg, &scratch); }  // prime capacities
    results.push_back(TimeKernel("voxelize_warm_scratch", reps, [&] {
      const pc::VoxelGrid grid(cloud, cfg, &scratch);
      COOPER_CHECK(!grid.voxels().empty());
    }));
    if (smoke) {
      const pc::VoxelGrid plain(cloud, cfg);
      CheckGridsEqual(plain, pc::VoxelGrid(cloud, cfg, &scratch),
                      "voxelize scratch vs fresh");
      pc::VoxelGridConfig mt = cfg;
      mt.num_threads = 4;
      CheckGridsEqual(plain, pc::VoxelGrid(cloud, mt, &scratch),
                      "voxelize 4T vs 1T");
    }
  }

  // --- BEV clustering of the fused KITTI cloud (SpodDetector's input) ---
  std::size_t cluster_points = 0;
  {
    const pc::PointCloud above = FusedKittiAboveGround();
    cluster_points = above.size();
    std::printf("cluster: %zu above-ground points, radius %.2f m\n",
                above.size(), kClusterRadius);
    spod::ClusterScratch scratch;
    std::vector<spod::Cluster> serial, threaded;
    results.push_back(TimeKernel("cluster_kitti_fused", reps, [&] {
      serial = spod::ClusterPoints(above, kClusterRadius, 1, 1, &scratch);
      COOPER_CHECK(!serial.empty());
    }));
    results.push_back(TimeKernel("cluster_kitti_fused_4t", reps, [&] {
      threaded = spod::ClusterPoints(above, kClusterRadius, 1, 4, &scratch);
      COOPER_CHECK(!threaded.empty());
    }));
    if (smoke) {
      const auto reference =
          spod::ClusterPointsBruteForce(above, kClusterRadius, 1);
      CheckClustersEqual(reference, serial, "cluster 1T vs brute force");
      CheckClustersEqual(reference, threaded, "cluster 4T vs brute force");
    }
  }

  // --- ICP correspondence gather (full alignment) ---
  {
    Rng rng(kIcpSeed);
    const pc::PointCloud target = MakeScanLikeCloud(20000, rng);
    pc::PointCloud source = target;
    source.Transform(geom::Pose::FromGpsImu({0.4, -0.3, 0.0},
                                            {geom::DegToRad(2.0), 0.0, 0.0}));
    pc::IcpConfig cfg;
    std::printf("icp_align: %zu -> %zu points\n", source.size(), target.size());
    results.push_back(TimeKernel("icp_align_cold", reps, [&] {
      const auto r = pc::IcpAlign(source, target, geom::Pose::Identity(), cfg);
      COOPER_CHECK(r.correspondences > 0);
    }));
    pc::IcpScratch scratch;
    // Prime the scratch capacities before the warm timing.
    (void)pc::IcpAlign(source, target, geom::Pose::Identity(), cfg, &scratch);
    results.push_back(TimeKernel("icp_align_warm_scratch", reps, [&] {
      const auto r =
          pc::IcpAlign(source, target, geom::Pose::Identity(), cfg, &scratch);
      COOPER_CHECK(r.correspondences > 0);
    }));
    {
      ScopedScalarMode scalar_mode;
      results.push_back(TimeKernel("icp_align_warm_scalar", reps, [&] {
        const auto r =
            pc::IcpAlign(source, target, geom::Pose::Identity(), cfg, &scratch);
        COOPER_CHECK(r.correspondences > 0);
      }));
    }
    if (smoke) {
      const auto plain = pc::IcpAlign(source, target, geom::Pose::Identity(), cfg);
      const auto reused =
          pc::IcpAlign(source, target, geom::Pose::Identity(), cfg, &scratch);
      COOPER_CHECK(plain.transform.translation().x ==
                   reused.transform.translation().x);
      COOPER_CHECK(plain.transform.translation().y ==
                   reused.transform.translation().y);
      COOPER_CHECK(plain.transform.translation().z ==
                   reused.transform.translation().z);
      COOPER_CHECK(plain.rms_error == reused.rms_error);
      COOPER_CHECK(plain.iterations == reused.iterations);
      std::printf("  %-32s bit-identical: yes\n", "icp scratch vs fresh");
      ScopedScalarMode scalar_mode;
      const auto sreused =
          pc::IcpAlign(source, target, geom::Pose::Identity(), cfg, &scratch);
      COOPER_CHECK(sreused.transform.translation().x ==
                   reused.transform.translation().x);
      COOPER_CHECK(sreused.transform.translation().y ==
                   reused.transform.translation().y);
      COOPER_CHECK(sreused.transform.translation().z ==
                   reused.transform.translation().z);
      COOPER_CHECK(sreused.rms_error == reused.rms_error);
      COOPER_CHECK(sreused.iterations == reused.iterations);
      std::printf("  %-32s bit-identical: yes\n", "icp scalar vs simd");
    }
  }

  // --- Frame CRC-32 (slice-by-8 vs byte-at-a-time) ---
  {
    Rng rng(kCrcSeed);
    std::vector<std::uint8_t> payload(1 << 20);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.Uniform(0.0, 256.0));
    }
    std::printf("crc32: %zu byte payload\n", payload.size());
    std::uint32_t crc_simd = 0;
    results.push_back(TimeKernel("crc32_1mib", reps, [&] {
      crc_simd = net::Crc32(payload.data(), payload.size());
      COOPER_CHECK(crc_simd != 0);
    }));
    std::uint32_t crc_scalar = 0;
    {
      ScopedScalarMode scalar;
      results.push_back(TimeKernel("crc32_1mib_scalar", reps, [&] {
        crc_scalar = net::Crc32(payload.data(), payload.size());
        COOPER_CHECK(crc_scalar != 0);
      }));
    }
    if (smoke) {
      COOPER_CHECK(crc_simd == crc_scalar);
      std::printf("  %-32s bit-identical: yes\n", "crc32 scalar vs slice8");
    }
  }

  // --- JSON baseline ---
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  COOPER_CHECK(f != nullptr);
  // The header pins everything needed to reproduce the numbers: the RNG
  // seed of every workload and the workload dimensions themselves.
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n  \"reps\": %d,\n",
               smoke ? "smoke" : "timed", reps);
  // CPU stamp: what the machine supports and which tier auto dispatch picked
  // — paired "<kernel>_scalar" rows below are comparable only within the
  // same stamp.
  std::fprintf(f,
               "  \"cpu\": {\"features\": \"%s\", \"detected_tier\": \"%s\", "
               "\"active_tier\": \"%s\"},\n",
               common::simd::CpuFeatureString().c_str(),
               common::simd::TierName(common::simd::DetectedTier()),
               common::simd::TierName(common::simd::ActiveTier()));
  std::fprintf(f,
               "  \"seeds\": {\"voxelize\": %llu, \"icp\": %llu, \"crc\": %llu},\n",
               static_cast<unsigned long long>(kVoxelizeSeed),
               static_cast<unsigned long long>(kIcpSeed),
               static_cast<unsigned long long>(kCrcSeed));
  std::fprintf(f,
               "  \"config\": {\"voxelize_points\": 120000, "
               "\"cluster_points\": %zu, \"cluster_radius\": %.2f, "
               "\"icp_points\": 20000, \"crc_bytes\": 1048576},\n",
               cluster_points, kClusterRadius);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"reps\": %d, \"best_ms\": %.3f, "
                 "\"mean_ms\": %.3f}%s\n",
                 r.name.c_str(), r.reps, r.best_ms, r.mean_ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (smoke) std::printf("smoke checks passed: all kernels bit-identical\n");
  return 0;
}

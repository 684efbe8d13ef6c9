// The Fig. 9 input pair, shared by bench_fig9_detection_time and the
// clustering rows of bench_micro_kernels: the first case of a scenario, each
// scan cropped to the 120-degree front view the paper evaluates, the
// transmitter's scan shipped as a full-frame package and fused by the
// receiver.
#pragma once

#include <utility>

#include "common/status.h"
#include "eval/experiment.h"

namespace cooper::benchutil {

struct Fig9Case {
  core::CooperConfig config;
  pc::PointCloud single_cloud;  // receiver's scan
  pc::PointCloud fused_cloud;   // DetectCooperative's merged cloud
  core::NavMetadata nav_a;
  core::ExchangePackage package;
};

inline Fig9Case PrepareFig9Case(const sim::Scenario& sc) {
  Fig9Case p;
  p.config = eval::MakeCooperConfig(sc.lidar);
  const core::CooperPipeline pipeline(p.config);

  Rng rng(sc.seed);
  const sim::LidarSimulator lidar(sc.lidar);
  const auto& va = sc.viewpoints[sc.cases[0].a];
  const auto& vb = sc.viewpoints[sc.cases[0].b];
  const double half_fov = geom::DegToRad(60.0);
  p.single_cloud =
      lidar.Scan(sc.scene, va.ToPose(), rng).FilterAzimuthSector(0.0, half_fov);
  const pc::PointCloud cloud_b =
      lidar.Scan(sc.scene, vb.ToPose(), rng).FilterAzimuthSector(0.0, half_fov);

  const geom::Vec3 mount{0.0, 0.0, sc.lidar.sensor_height};
  p.nav_a = core::NavMetadata{va.position, va.attitude, mount};
  const core::NavMetadata nav_b{vb.position, vb.attitude, mount};
  p.package = pipeline.MakePackage(1, 0.0, core::RoiCategory::kFullFrame,
                                   nav_b, cloud_b);
  auto coop = pipeline.DetectCooperative(p.single_cloud, p.nav_a, p.package);
  COOPER_CHECK(coop.ok());
  p.fused_cloud = std::move(coop).value().fused_cloud;
  return p;
}

}  // namespace cooper::benchutil

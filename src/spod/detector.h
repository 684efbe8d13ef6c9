// SPOD — Sparse Point-cloud Object Detection (paper §III, Fig. 1).
//
// The paper draws SPOD as VFE -> sparse middle layers -> RPN.  Here every
// detection comes from one straight path (DESIGN.md §4.3):
//   1. preprocessing      — spherical-projection densification for sparse
//                           input [27], invalid-point removal, ground cut;
//   2. voxelisation       — the detection grid (voxel count is reported);
//   3. proposals          — BEV clustering of the above-ground points, one
//                           tighter split of oversized clusters;
//   4. scoring            — oriented-box fit and completion per class
//                           template, evidence-calibrated confidence;
//   5. pairing + NMS      — opposite-face pairing and greedy NMS that merge
//                           point evidence and refit.
// The VFE [31] runs only on the sender side (`ExtractFeatureMap`): its
// feature tensor is what a feature package carries.
//
// The same detector instance works on dense 64-beam clouds, sparse 16-beam
// clouds and fused multi-vehicle clouds — the property Cooper depends on.
#pragma once

#include <memory>
#include <vector>

#include "common/timer.h"
#include "feat/feature_map.h"
#include "nn/vfe.h"
#include "spod/confidence.h"
#include "spod/detection.h"
#include "spod/scratch.h"

namespace cooper::spod {

/// Per-stage wall-clock cost of one Detect() call, microseconds (recorded
/// with common::StageTimer; CooperPipeline::DetectCooperative layers its
/// own reconstruct/icp/merge/detect laps on top).
struct StageTimings {
  double preprocess_us = 0.0;  // densify (if configured) + ground cut
  double voxelize_us = 0.0;
  double proposals_us = 0.0;   // cluster, score, pair, NMS
  double TotalUs() const { return preprocess_us + voxelize_us + proposals_us; }
};

struct SpodResult {
  std::vector<Detection> detections;
  StageTimings timings;
  std::size_t num_input_points = 0;
  std::size_t num_voxels = 0;
};

class SpodDetector {
 public:
  /// `sensor` describes the angular resolution of the *receiving* vehicle's
  /// sensor (for fused clouds the receiver's own; extra transmitter points
  /// only raise evidence, as in the paper).
  SpodDetector(const SpodConfig& config, const SensorResolution& sensor,
               std::uint64_t weight_seed = 42);

  /// Full pipeline, including spherical densification when the config asks
  /// for it.  Use only on clouds from a single sensor origin — densification
  /// assumes one viewpoint.
  SpodResult Detect(const pc::PointCloud& cloud) const;

  /// Pipeline minus the densification step — for fused multi-origin clouds,
  /// whose sources must be densified separately (in their own sensor frames)
  /// before merging; a single receiver-centred range image would discard
  /// remote points hidden behind local occluders.
  SpodResult DetectPreprocessed(const pc::PointCloud& cloud) const;

  /// Forward to DetectPreprocessed(cloud); `maps` is ignored.  Cooperator
  /// feature maps contribute through the pseudo-points feat::AlignToGrid
  /// emits, which the caller has already merged into `cloud`.
  SpodResult DetectWithFeatures(
      const pc::PointCloud& cloud,
      const std::vector<const feat::FeatureMap*>& maps) const;

  /// Sender-side feature tap: the VFE voxel-feature tensor of `cloud` (own
  /// sensor frame), with the grid geometry needed to re-express it elsewhere.
  /// Runs preprocessing (densify-if-configured, invalid-point removal,
  /// ground cut) and voxelization through the same code as Detect, then
  /// VFE-encodes the grid.
  feat::FeatureMap ExtractFeatureMap(const pc::PointCloud& cloud) const;

  /// The densification preprocessing step alone (no-op unless the config
  /// enables it).  The cloud must be in its own sensor frame.
  pc::PointCloud Densify(const pc::PointCloud& cloud) const;

  const SpodConfig& config() const { return config_; }
  const SensorResolution& sensor() const { return sensor_; }

 private:
  // Stages 1-2 after densification, shared by detection and the feature tap
  // so the sender's feature grid and the receiver's detection grid cannot
  // drift apart: invalid-point removal, ground cut, voxelisation with the
  // detector's thread count.
  struct Prepared {
    pc::PointCloud above;  // valid points above the ground cut
    pc::VoxelGrid grid;    // voxelisation of `above`
  };
  // `timer` (optional) laps "preprocess" and "voxelize" into `timings`.
  Prepared Prepare(pc::PointCloud cloud, common::StageTimer* timer,
                   StageTimings* timings) const;

  // Detect and DetectPreprocessed: one `spod.detect` span per call.
  SpodResult Run(const pc::PointCloud& input, bool densify) const;

  SpodConfig config_;
  SensorResolution sensor_;
  // Fixed deterministic weights (DESIGN.md §4.3); drawn first from
  // Rng(weight_seed), so feature payloads depend only on the seed.
  nn::VoxelFeatureEncoder vfe_;
  // Cross-frame working set, cleared — not freed — between calls.
  // Mutable: Detect stays const for callers, but one instance must not
  // Detect (or ExtractFeatureMap) concurrently from several threads.
  mutable PipelineScratch scratch_;
};

/// Convenience: sensor resolution from beam geometry.
SensorResolution MakeSensorResolution(int beams, double fov_up_deg,
                                      double fov_down_deg, int azimuth_steps);

}  // namespace cooper::spod

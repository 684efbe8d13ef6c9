// Shared pieces of the benchmark program: options, clocks, the out-of-library
// span tracer, a tiny JSON writer, and the composed (public-call) fusion
// used by traced runs and output checks.
//
// The program only calls the public API of core, net, feat, spod, pointcloud
// and serve; sim and eval generate the inputs and score the outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cooper.h"
#include "core/exchange.h"
#include "geom/box.h"
#include "sim/scene.h"
#include "spod/detection.h"

namespace coopbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // timed-phase budget (split in two when tracing)
  bool trace = false;
  int frames = 0;  // > 0: run exactly this many timed frames (edge: ticks)
  int setups = 5;  // set-up repetitions; the last instance runs the load
  int part = 0;    // kitti_pair: which noise draw of the scenarios to run
  bool tiny = false;      // smoke-test sizes
  std::string trace_out;  // Chrome trace file written at exit (traced runs)
};

double WallS();      // monotonic wall clock, seconds
double CpuS();       // process CPU time over all threads, seconds
double PeakRssMb();  // peak resident set size of the process

std::string Hex(std::uint64_t v);

// Moves the calling thread round robin over the CPUs it may run on.  The
// cores a shared host lends out run at different speeds that change from
// second to second; a single thread the scheduler leaves on one core times
// that core's luck.  Moving before every frame samples all of them evenly.
class CpuRotor {
 public:
  CpuRotor();
  void Next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Spans recorded around public layer calls, kept in memory and written as
// Chrome trace "X" events at exit.  Single-threaded: every call the program
// wraps runs on its main thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t step = 0;
  };

  Tracer();
  int Begin(const char* name);
  void End(int id);
  void SetStep(std::uint64_t step) { step_ = step; }

  // Per span name: duration minus the time covered by direct children.
  std::map<std::string, double> SelfUs() const;
  // Share of the `root` spans' wall time covered by their direct children.
  double Coverage(const std::string& root) const;
  bool WriteChrome(const std::string& path, const std::string& workload,
                   const std::string& stamp_json) const;

 private:
  double origin_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t step_ = 0;
};

// RAII span; a null tracer makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Flat JSON object writer (keys in insertion order).
class JsonObject {
 public:
  void Num(const std::string& key, double v);
  void Int(const std::string& key, long long v);
  void Str(const std::string& key, const std::string& v);
  void Raw(const std::string& key, const std::string& json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};
std::string JsonNumbers(const std::vector<double>& values);
std::string JsonString(const std::string& s);

// Stamp of the build and host: SIMD tier, CPU features, nproc, build type.
std::string StampJson(const Options& opts);

// Ground truth: car boxes of `scene` in the frame of a sensor at
// `sensor_pose`, kept within `max_range` (and within +-`half_fov_rad` of the
// x axis when it is > 0) — the part of the scene the receiver can see.
struct GroundTruthFilter {
  double max_range = 55.0;
  double half_fov_rad = 0.0;
};
std::vector<cooper::geom::Box3> CarBoxes(const cooper::sim::Scene& scene,
                                         const cooper::geom::Pose& sensor_pose,
                                         const GroundTruthFilter& filter);

// The receiver's fusion step composed from public layer calls, mirroring
// CooperativeSession::DetectCooperative (per-sender reconstruction reused
// while the package and the receiver nav are unchanged; merge in ascending
// sender order).  Traced runs time each layer through it, and its output must
// reproduce the session's bit for bit.
class Composer {
 public:
  explicit Composer(const cooper::core::CooperConfig& config);

  struct Output {
    cooper::pc::PointCloud fused;
    cooper::spod::SpodResult result;
    std::size_t misses = 0;  // reconstructions recomputed
    bool ok = true;          // every payload decoded
  };
  Output Fuse(const cooper::pc::PointCloud& local,
              const cooper::core::NavMetadata& local_nav,
              const std::map<std::uint32_t, cooper::core::ExchangePackage>& held,
              Tracer* tracer);
  void ClearCache() { cache_.clear(); }
  // Reconstructs `sender`'s package against `local` (as the session did when
  // the package arrived) without fusing.
  void Prime(std::uint32_t sender, const cooper::core::ExchangePackage& package,
             const cooper::pc::PointCloud& local,
             const cooper::core::NavMetadata& local_nav);

  // Times the detector's public sub-layers on `fused` (ground cut,
  // voxelisation, clustering of the above-ground points).
  struct DetectorCounts {
    std::size_t input_points = 0;
    std::size_t above_ground_points = 0;
    std::size_t voxels = 0;
    std::size_t clusters = 0;
  };
  DetectorCounts ProbeDetector(const cooper::pc::PointCloud& fused,
                               Tracer* tracer) const;

 private:
  struct Entry {
    bool valid = false;
    double timestamp_s = 0.0;
    cooper::core::NavMetadata nav;
    bool features = false;
    cooper::pc::PointCloud ego;
    cooper::feat::FeatureMap ego_map;
  };
  // Decode + densify + Eq. 3 + ICP (or feature alignment) of one package;
  // false when the payload does not decode.
  bool Reconstruct(const cooper::core::ExchangePackage& package,
                   const cooper::core::NavMetadata& local_nav,
                   const cooper::pc::PointCloud& icp_target, Entry* entry,
                   Tracer* tracer) const;

  cooper::core::CooperPipeline pipeline_;
  std::map<std::uint32_t, Entry> cache_;
};

// Sender side of MakeLeveledPackage composed from its public layer calls
// (ROI extraction, cloud codec or feature tap + pooling + feature codec).
cooper::core::ExchangePackage ComposePackage(
    const cooper::core::CooperPipeline& sender, std::uint32_t sender_id,
    double timestamp_s, cooper::core::RoiCategory roi,
    cooper::feat::ExchangeLevel level, const cooper::core::NavMetadata& nav,
    const cooper::pc::PointCloud& cloud, Tracer* tracer);

// Workload entry points: print the run's raw JSON record on stdout.
int RunVehicleWorkload(const Options& opts);
int RunEdgeWorkload(const Options& opts);

}  // namespace coopbench

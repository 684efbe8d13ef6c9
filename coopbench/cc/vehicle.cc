// Vehicle workloads: `kitti_pair` and `tj_lot4_lossy`.
//
// One fused frame runs from the cooperator's MakeLeveledPackage, through the
// wire (serialize, fragment, transmit, reassemble in the receiver's
// CooperativeSession), to the receiver's detections.  Cooperator c of n
// refreshes on frames g with g % n == c, so every frame carries exactly one
// fresh package and n - 1 cache hits.  Inputs cycle fixed pools, so from
// frame `warmup` on the detections repeat with period `period`; that is what
// the stored reference digests pin.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "core/session.h"
#include "eval/ap.h"
#include "eval/experiment.h"
#include "feat/planner.h"
#include "harness.h"
#include "net/fault.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "replay/trace.h"
#include "sim/lidar.h"
#include "sim/scenario.h"
#include "sim/sensors.h"

namespace coopbench {

using namespace cooper;

namespace {

constexpr double kFramePeriodS = 0.1;  // 10 Hz frame clock
constexpr double kBaseTimeS = 10.0;

struct View {
  pc::PointCloud cloud;  // sensor frame
  core::NavMetadata nav;  // measured (and possibly skewed) nav
};

// A workload's inputs, generated from the seed before any set-up starts.
struct VehicleLoad {
  core::CooperConfig config;
  std::vector<View> ego;                       // cycled one per frame
  std::vector<std::vector<geom::Box3>> truth;  // per ego view
  std::vector<std::vector<View>> coop;  // per cooperator, one per refresh
  core::RoiCategory roi = core::RoiCategory::kFullFrame;
  feat::ExchangeLevel level = feat::ExchangeLevel::kRoiCloud;
  // When set, every frame plans the exchange ladder over the cooperators'
  // current payload sizes and the fresh package goes out at its planned
  // level.
  bool plan = false;
  feat::PlannerConfig planner;
  feat::DemandClass demand = feat::DemandClass::kFrontSector;
  std::vector<std::vector<feat::CooperatorDemand>> sizes;  // [coop][entry]
  bool lossy = false;
  net::FaultProfile faults;
  int warmup = 1;
  int period = 1;
};

core::NavMetadata NavFrom(const sim::NavState& s, double sensor_height) {
  return core::NavMetadata{s.position, s.attitude, {0.0, 0.0, sensor_height}};
}

geom::Pose SensorPose(const sim::VehicleState& v, double sensor_height) {
  return v.ToPose() * geom::Pose(geom::Mat3::Identity(), {0.0, 0.0, sensor_height});
}

// Paper Fig. 9: KITTI pairs (HDL-64, front 120-degree view), one cooperator
// sending full-frame ROI packages over a clean channel, one thread.  The pool
// holds noise draw `part` of each scenario's cooperative case; run.py runs
// one process per draw (see RunVehicleWorkload).
VehicleLoad MakeKittiPair(std::uint64_t seed, bool tiny, int part) {
  VehicleLoad load;
  std::vector<sim::Scenario> scenarios = sim::AllKittiScenarios();
  if (tiny) scenarios.resize(2);
  sim::LidarConfig lidar = scenarios.front().lidar;
  if (tiny) lidar.azimuth_steps = 256;
  load.config = eval::MakeCooperConfig(lidar);
  load.config.num_threads = 1;
  load.coop.resize(1);
  const double half_fov = geom::DegToRad(60.0);
  const sim::LidarSimulator sim_lidar(lidar);
  const sim::GpsImuModel gps_imu;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const sim::Scenario& sc = scenarios[si];
    const sim::VehicleState& va = sc.viewpoints[sc.cases[0].a];
    const sim::VehicleState& vb = sc.viewpoints[sc.cases[0].b];
    Rng rng(seed * 1000003ull + si * 131 + static_cast<std::uint64_t>(part));
    Rng scan_a = rng.Fork();
    Rng scan_b = rng.Fork();
    Rng nav_rng = rng.Fork();
    load.ego.push_back(
        {sim_lidar.Scan(sc.scene, va.ToPose(), scan_a)
             .FilterAzimuthSector(0.0, half_fov),
         NavFrom(gps_imu.Measure(va.position, va.attitude, nav_rng),
                 lidar.sensor_height)});
    load.coop[0].push_back(
        {sim_lidar.Scan(sc.scene, vb.ToPose(), scan_b)
             .FilterAzimuthSector(0.0, half_fov),
         NavFrom(gps_imu.Measure(vb.position, vb.attitude, nav_rng),
                 lidar.sensor_height)});
    load.truth.push_back(CarBoxes(sc.scene,
                                  SensorPose(va, lidar.sensor_height),
                                  {55.0, half_fov}));
  }
  load.roi = core::RoiCategory::kFullFrame;
  load.level = feat::ExchangeLevel::kRoiCloud;
  // One whole period of warm-up: every timed frame's input has been through
  // the detector once, so no timed frame pays for first-touch growth.
  load.period = static_cast<int>(load.ego.size());
  load.warmup = load.period;
  return load;
}

// T&J lot (VLP-16): a parked ego and four cooperators with GPS skew at the
// Fig. 10 bound (ICP refinement on), over a dropping, duplicating and
// reordering channel with retransmission; an airtime budget mixes ROI and
// feature packages; four threads inside each frame.
VehicleLoad MakeTjLot4(std::uint64_t seed, bool tiny) {
  VehicleLoad load;
  const sim::Scenario sc = sim::MakeTjScenario(2);
  sim::LidarConfig lidar = sc.lidar;
  if (tiny) lidar.azimuth_steps = 450;
  load.config = eval::MakeCooperConfig(lidar);
  load.config.icp_refinement = true;
  load.config.num_threads = 4;
  const sim::LidarSimulator sim_lidar(lidar);
  const sim::GpsImuModel gps_imu;
  Rng rng(seed * 1000003ull + 977);
  Rng nav_rng = rng.Fork();
  Rng skew_rng = rng.Fork();

  const sim::VehicleState& ego = sc.viewpoints[0];
  const core::NavMetadata ego_nav = NavFrom(
      gps_imu.Measure(ego.position, ego.attitude, nav_rng), lidar.sensor_height);
  const int ego_views = tiny ? 2 : 8;
  for (int i = 0; i < ego_views; ++i) {
    Rng scan_rng = rng.Fork();
    load.ego.push_back(
        {sim_lidar.Scan(sc.scene, ego.ToPose(), scan_rng), ego_nav});
    load.truth.push_back(
        CarBoxes(sc.scene, SensorPose(ego, lidar.sensor_height), {55.0, 0.0}));
  }
  const int coop_views = tiny ? 1 : 4;
  for (std::size_t c = 1; c <= 4; ++c) {
    const sim::VehicleState& v = sc.viewpoints[c];
    std::vector<View> views;
    for (int i = 0; i < coop_views; ++i) {
      Rng scan_rng = rng.Fork();
      const sim::NavState skewed = sim::ApplyGpsSkew(
          gps_imu.Measure(v.position, v.attitude, nav_rng),
          sim::GpsSkewMode::kBothAxesMax, skew_rng);
      views.push_back({sim_lidar.Scan(sc.scene, v.ToPose(), scan_rng),
                       NavFrom(skewed, lidar.sensor_height)});
    }
    load.coop.push_back(std::move(views));
  }
  load.roi = core::RoiCategory::kFrontSector;
  load.plan = true;
  load.demand = feat::DemandClass::kFrontSector;
  // One exchange round (four refreshes) per 0.4 s; the budget admits about
  // half of the cooperators at ROI level and pushes the rest to features.
  load.planner.frame_period_s = 4 * kFramePeriodS;
  load.planner.budget_fraction = 0.35;
  load.lossy = true;
  load.faults.drop_prob = 0.05;
  load.faults.duplicate_prob = 0.05;
  load.faults.reorder_prob = 0.05;
  load.warmup = 4;
  load.period = std::lcm(ego_views, 4 * coop_views);
  return load;
}

// Serialized package size at each exchange level, per cooperator view: the
// planner's input (load generation, computed once).
void MeasureSizes(VehicleLoad* load) {
  const core::CooperPipeline sender(load->config);
  load->sizes.resize(load->coop.size());
  for (std::size_t c = 0; c < load->coop.size(); ++c) {
    for (const View& v : load->coop[c]) {
      feat::CooperatorDemand d;
      d.sender_id = static_cast<std::uint32_t>(c + 2);
      d.demand = load->demand;
      const auto bytes_at = [&](feat::ExchangeLevel level) {
        return net::SerializePackage(sender.MakeLeveledPackage(
                                         d.sender_id, 0.0, load->roi, level,
                                         v.nav, v.cloud))
            .size();
      };
      d.raw_bytes = bytes_at(feat::ExchangeLevel::kRawCloud);
      d.roi_bytes = bytes_at(feat::ExchangeLevel::kRoiCloud);
      d.feature_bytes = bytes_at(feat::ExchangeLevel::kVoxelFeatures);
      load->sizes[c].push_back(d);
    }
  }
}

// The system under test: sender pipeline, receiver session, and the link.
struct VehicleInstance {
  core::CooperPipeline sender;
  core::CooperativeSession session;
  net::Transport transport;
  net::FaultInjector faults;
  Rng channel_rng;
  // Newest package per sender that the session accepted (what it fuses),
  // and the frame it arrived on.
  std::map<std::uint32_t, core::ExchangePackage> held;
  std::map<std::uint32_t, std::uint64_t> received_at;

  VehicleInstance(const VehicleLoad& load, std::uint64_t seed)
      : sender(load.config),
        session(load.config),
        transport(load.config.transport, net::DsrcConfig{}),
        faults(load.faults, seed * 0x9e3779b97f4a7c15ull + 17),
        channel_rng(seed * 0xbf58476d1ce4e5b9ull + 29) {}
};

struct FrameResult {
  bool ok = true;
  std::uint64_t digest = 0;
  double ms = 0.0;
  std::vector<spod::Detection> detections;
  bool composed_match = true;
  Composer::DetectorCounts counts;
};

// Snapshot of the wire and session counters, for per-phase deltas.
struct Counters {
  double frames_sent = 0, frames_retransmitted = 0, frames_dropped = 0;
  double bytes_on_air = 0;
  double accepted = 0, corrupt = 0, incomplete = 0;
  double recon_hits = 0, recon_misses = 0;

  static Counters Of(VehicleInstance& inst) {
    Counters c;
    c.frames_sent = inst.transport.stats().frames_sent;
    c.frames_retransmitted = inst.transport.stats().frames_retransmitted;
    c.frames_dropped = inst.faults.stats().frames_dropped;
    c.bytes_on_air = inst.transport.channel().total_bytes_on_air();
    const core::SessionStats& s = inst.session.stats();
    c.accepted = s.packages_accepted + s.packages_replaced;
    c.corrupt = s.packages_corrupt;
    c.incomplete = s.packages_incomplete;
    c.recon_hits = s.recon_cache_hits;
    c.recon_misses = s.recon_cache_misses;
    return c;
  }
};

class VehicleRunner {
 public:
  VehicleRunner(const VehicleLoad& load, std::uint64_t seed)
      : load_(load), seed_(seed), rotate_(load.config.num_threads <= 1) {}

  void NewInstance() {
    instance_.reset();
    instance_ = std::make_unique<VehicleInstance>(load_, seed_);
  }
  VehicleInstance& instance() { return *instance_; }

  // Brings a fresh composer's reconstructions to the session's state: each
  // held package reconstructed against the ego scan of the frame it arrived
  // on (ICP registers against that scan, and the session reuses the result
  // while the ego stays parked).
  void Prime(Composer* composer) {
    for (const auto& [sender, package] : instance_->held) {
      const View& ego =
          load_.ego[instance_->received_at[sender] % load_.ego.size()];
      composer->Prime(sender, package, ego.cloud, ego.nav);
    }
  }

  FrameResult RunFrame(std::uint64_t g, Tracer* tracer, Composer* probe) {
    VehicleInstance& inst = *instance_;
    const std::size_t n = load_.coop.size();
    const std::size_t c = g % n;
    const std::uint32_t sender_id = static_cast<std::uint32_t>(c + 2);
    const std::size_t entry = (g / n) % load_.coop[c].size();
    const View& src = load_.coop[c][entry];
    const View& ego = load_.ego[g % load_.ego.size()];
    const double t = kBaseTimeS + static_cast<double>(g) * kFramePeriodS;
    // A single-threaded frame runs on one core; take each frame on the next
    // one.  Pools inherit the mask of the thread that starts them, so a
    // multi-threaded pipeline is left where the scheduler puts it.
    if (rotate_) rotor_.Next();

    FrameResult r;
    core::CooperOutput out;
    if (tracer != nullptr) tracer->SetStep(g);
    const double start = WallS();
    feat::ExchangeLevel level = load_.level;
    {
      Scope step(tracer, "step");
      if (load_.plan) {
        Scope span(tracer, "feat.plan");
        const feat::ExchangePlan plan =
            feat::PlanExchange(load_.planner, Demands(g));
        level = plan.Find(sender_id)->level;
      }
      core::ExchangePackage package =
          tracer != nullptr
              ? ComposePackage(inst.sender, sender_id, t, load_.roi, level,
                               src.nav, src.cloud, tracer)
              : inst.sender.MakeLeveledPackage(sender_id, t, load_.roi, level,
                                               src.nav, src.cloud);
      std::vector<std::uint8_t> bytes;
      {
        Scope span(tracer, "net.serialize");
        bytes = net::SerializePackage(package);
      }
      const core::SessionStats before = inst.session.stats();
      double last_arrival = t;
      const double clock_before_ms = inst.transport.clock_ms();
      inst.transport.SetFrameTap([&](double at_ms,
                                     const std::vector<std::uint8_t>& frame) {
        const double now = t + (at_ms - clock_before_ms) / 1e3;
        last_arrival = std::max(last_arrival, now);
        Scope span(tracer, "session.receive");
        (void)inst.session.ReceiveFrame(frame, now);
      });
      bool delivered = false;
      {
        Scope span(tracer, "net.send");
        delivered = inst.transport
                        .SendPackage(bytes, sender_id, inst.channel_rng,
                                     load_.lossy ? &inst.faults : nullptr)
                        .ok();
      }
      inst.transport.SetFrameTap({});
      const core::SessionStats& after = inst.session.stats();
      // A package is taken into the fusion set as a new sender (accepted)
      // or as a newer frame from a held one (replaced).
      r.ok = delivered &&
             after.packages_accepted + after.packages_replaced ==
                 before.packages_accepted + before.packages_replaced + 1 &&
             after.packages_corrupt == before.packages_corrupt &&
             after.packages_incomplete == before.packages_incomplete;
      if (r.ok) {
        inst.held[sender_id] = std::move(package);
        inst.received_at[sender_id] = g;
      }
      {
        Scope span(tracer, "session.fuse");
        out = inst.session.DetectCooperative(
            ego.cloud, ego.nav, std::max(t + 0.05, last_arrival));
      }
      r.ok = r.ok && after.packages_corrupt == before.packages_corrupt &&
             inst.session.num_cooperators() == std::min<std::size_t>(g + 1, n);
    }
    r.ms = (WallS() - start) * 1e3;
    r.digest = replay::DigestDetections(out.fused.detections);
    if (r.ok) {
      r.composed_match =
          CheckPayload(c, entry, level, inst.held[sender_id].payload);
    }
    if (probe != nullptr) {
      // Re-run the step's receive side from its public layer calls, outside
      // the step's span: per-layer times, and a bit-exact cross-check.
      Scope span(tracer, "probe");
      const Composer::Output composed =
          probe->Fuse(ego.cloud, ego.nav, inst.held, tracer);
      r.counts = probe->ProbeDetector(composed.fused, tracer);
      r.composed_match =
          r.composed_match && composed.ok &&
          replay::DigestCloud(composed.fused) ==
              replay::DigestCloud(out.fused_cloud) &&
          replay::DigestDetections(composed.result.detections) == r.digest;
    }
    r.detections = std::move(out.fused.detections);
    return r;
  }

 private:
  // Demands for every cooperator at its current view (the one it last sent,
  // or will send now).
  std::vector<feat::CooperatorDemand> Demands(std::uint64_t g) const {
    const std::size_t n = load_.coop.size();
    std::vector<feat::CooperatorDemand> demands;
    for (std::size_t c = 0; c < n; ++c) {
      std::size_t entry = 0;
      if (g >= c) {
        const std::uint64_t last = g - (g - c) % n;
        entry = (last / n) % load_.coop[c].size();
      }
      demands.push_back(load_.sizes[c][entry]);
    }
    return demands;
  }

  // Payloads must not depend on how the package was built: the composed
  // (traced) sender path must reproduce MakeLeveledPackage's bytes.
  bool CheckPayload(std::size_t c, std::size_t entry, feat::ExchangeLevel level,
                    const std::vector<std::uint8_t>& payload) {
    const std::uint64_t digest =
        replay::DigestBytes(payload.data(), payload.size());
    const auto key = std::make_tuple(c, entry, static_cast<int>(level));
    const auto [it, inserted] = payload_digests_.emplace(key, digest);
    return inserted || it->second == digest;
  }

  const VehicleLoad& load_;
  std::uint64_t seed_;
  bool rotate_;
  CpuRotor rotor_;
  std::unique_ptr<VehicleInstance> instance_;
  std::map<std::tuple<std::size_t, std::size_t, int>, std::uint64_t>
      payload_digests_;
};

}  // namespace

int RunVehicleWorkload(const Options& opts) {
  const double gen_start = WallS();
  VehicleLoad load = opts.workload == "kitti_pair"
                         ? MakeKittiPair(opts.seed, opts.tiny, opts.part)
                         : MakeTjLot4(opts.seed, opts.tiny);
  if (load.plan) MeasureSizes(&load);
  const double gen_s = WallS() - gen_start;

  VehicleRunner runner(load, opts.seed);
  std::vector<double> setup_s;
  std::vector<std::string> digests;  // "g:hex" of the final instance
  const auto record = [&](std::uint64_t g, const FrameResult& r) {
    digests.push_back(JsonString(std::to_string(g) + ":" + Hex(r.digest)));
  };
  bool warmup_ok = true;
  std::uint64_t g = 0;
  for (int rep = 0; rep < std::max(1, opts.setups); ++rep) {
    const double start = WallS();
    runner.NewInstance();
    digests.clear();
    for (g = 0; g < static_cast<std::uint64_t>(load.warmup); ++g) {
      const FrameResult r = runner.RunFrame(g, nullptr, nullptr);
      warmup_ok = warmup_ok && r.ok;
      record(g, r);
    }
    setup_s.push_back(WallS() - start);
  }

  // Timed phase.  A traced run spends the first half untraced (the baseline
  // for trace.overhead_ms) and the second half traced.
  const int phases = opts.trace ? 2 : 1;
  const double phase_s = opts.seconds / phases;
  const int phase_frames = opts.frames > 0 ? std::max(1, opts.frames / phases) : 0;
  std::vector<double> frame_ms, traced_ms;
  std::size_t frames = 0, attempted = 0, failed = 0, composed_mismatch = 0;
  std::vector<std::vector<spod::Detection>> ap_dets;
  std::vector<std::vector<geom::Box3>> ap_truth;
  const Counters c0 = Counters::Of(runner.instance());
  Counters trace_c0, trace_c1;
  const double cpu0 = CpuS();
  double timed_s = 0.0, cpu_s = 0.0;
  double wire0 = c0.bytes_on_air, wire1 = wire0;
  Tracer tracer;
  std::unique_ptr<Composer> composer;
  Composer::DetectorCounts count_sum;
  std::size_t detections_sum = 0;
  for (int phase = 0; phase < phases; ++phase) {
    const bool traced = phase == 1;
    if (traced) {
      composer = std::make_unique<Composer>(load.config);
      runner.Prime(composer.get());
      trace_c0 = Counters::Of(runner.instance());
    }
    const double start = WallS();
    for (int i = 0;; ++i, ++g) {
      if (phase_frames > 0 ? i >= phase_frames
                           : (i > 0 && WallS() - start >= phase_s)) {
        break;
      }
      FrameResult r = runner.RunFrame(g, traced ? &tracer : nullptr,
                                      traced ? composer.get() : nullptr);
      record(g, r);
      ++attempted;
      if (!r.ok) ++failed;
      if (!r.composed_match) ++composed_mismatch;
      if (!traced) {
        frame_ms.push_back(r.ms);
        ++frames;
        if (g < static_cast<std::uint64_t>(load.warmup + load.period)) {
          ap_truth.push_back(load.truth[g % load.ego.size()]);
          ap_dets.push_back(std::move(r.detections));
        }
      } else {
        traced_ms.push_back(r.ms);
        count_sum.input_points += r.counts.input_points;
        count_sum.above_ground_points += r.counts.above_ground_points;
        count_sum.voxels += r.counts.voxels;
        count_sum.clusters += r.counts.clusters;
        detections_sum += r.detections.size();
      }
    }
    if (!traced) {
      timed_s = WallS() - start;
      cpu_s = CpuS() - cpu0;
      wire1 = Counters::Of(runner.instance()).bytes_on_air;
    } else {
      trace_c1 = Counters::Of(runner.instance());
    }
  }

  JsonObject rec;
  rec.Str("workload", opts.workload);
  rec.Raw("stamp", StampJson(opts));
  rec.Num("generate_s", gen_s);
  rec.Raw("setup_s", JsonNumbers(setup_s));
  rec.Raw("frame_ms", JsonNumbers(frame_ms));
  rec.Num("timed_s", timed_s);
  rec.Num("cpu_s", cpu_s);
  rec.Int("frames", static_cast<long long>(frames));
  rec.Int("attempted", static_cast<long long>(attempted));
  rec.Int("failed", static_cast<long long>(failed));
  rec.Int("warmup_ok", warmup_ok ? 1 : 0);
  rec.Num("wire_bytes", wire1 - wire0);
  rec.Num("fused_ap", eval::ComputeAp(ap_dets, ap_truth).ap);
  rec.Int("ap_frames", static_cast<long long>(ap_dets.size()));
  rec.Num("peak_rss_mb", PeakRssMb());
  rec.Int("warmup", load.warmup);
  rec.Int("period", load.period);
  std::string list = "[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    list += (i > 0 ? "," : "") + digests[i];
  }
  rec.Raw("digests", list + "]");

  if (opts.trace) {
    const double steps = std::max<std::size_t>(1, traced_ms.size());
    const std::map<std::string, double> self = tracer.SelfUs();
    const auto ms = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second / 1e3 / steps;
    };
    JsonObject layers;
    for (const char* name :
         {"core.make_package", "pointcloud.encode", "feat.extract",
          "feat.encode", "feat.plan", "net.serialize", "net.send",
          "session.receive", "session.fuse", "pointcloud.decode",
          "feat.decode", "spod.densify", "core.reconstruct", "core.icp",
          "feat.align", "pointcloud.merge", "spod.detect", "spod.ground",
          "pointcloud.voxelize", "spod.cluster"}) {
      layers.Num(std::string(name) + "_ms", ms(name));
    }
    layers.Num("spod.other_ms", ms("spod.detect") - ms("spod.ground") -
                                    ms("pointcloud.voxelize") -
                                    ms("spod.cluster"));
    layers.Num("spod.input_points", count_sum.input_points / steps);
    layers.Num("spod.above_ground_points",
               count_sum.above_ground_points / steps);
    layers.Num("spod.voxels", count_sum.voxels / steps);
    layers.Num("spod.clusters", count_sum.clusters / steps);
    layers.Num("spod.detections", detections_sum / steps);
    layers.Num("net.frames_sent",
               (trace_c1.frames_sent - trace_c0.frames_sent) / steps);
    layers.Num("net.frames_retransmitted",
               (trace_c1.frames_retransmitted - trace_c0.frames_retransmitted) /
                   steps);
    layers.Num("net.frames_dropped",
               (trace_c1.frames_dropped - trace_c0.frames_dropped) / steps);
    layers.Num("net.bytes_on_air",
               (trace_c1.bytes_on_air - trace_c0.bytes_on_air) / steps);
    layers.Num("session.packages_accepted",
               (trace_c1.accepted - trace_c0.accepted) / steps);
    layers.Num("session.packages_corrupt",
               (trace_c1.corrupt - trace_c0.corrupt) / steps);
    layers.Num("session.packages_incomplete",
               (trace_c1.incomplete - trace_c0.incomplete) / steps);
    const double hits = trace_c1.recon_hits - trace_c0.recon_hits;
    const double misses = trace_c1.recon_misses - trace_c0.recon_misses;
    layers.Num("session.recon_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    layers.Num("trace.coverage", tracer.Coverage("step"));
    layers.Num("trace.composed_match", composed_mismatch == 0 ? 1.0 : 0.0);
    rec.Raw("layers", layers.Dump());
    rec.Raw("traced_frame_ms", JsonNumbers(traced_ms));
    if (!opts.trace_out.empty() &&
        !tracer.WriteChrome(opts.trace_out, opts.workload, StampJson(opts))) {
      std::fprintf(stderr, "coopbench: cannot write %s\n",
                   opts.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", rec.Dump().c_str());
  return 0;
}

}  // namespace coopbench

// Edge workload: `edge_fleet64`.
//
// One EdgeService fuses a 64-vehicle fleet.  Every vehicle opens an exchange
// window at 10 Hz (seeded jitter) asking two cooperators for data; admitted
// packages cross a shared DSRC channel owned by the benchmark, one fragmenting
// transport per (receiver, sender) link, and arrive at the service on the
// virtual clock.  Fusion jobs drain through FlushFusions every 10 ms of
// virtual time, with four real threads across vehicles.  The load is open
// loop on the virtual clock: it does not wait for fusion, and one fused frame
// costs the wall time of the FlushFusions batch that ran it.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

#include "core/session.h"
#include "eval/ap.h"
#include "eval/experiment.h"
#include "harness.h"
#include "net/serialize.h"
#include "net/transport.h"
#include "replay/trace.h"
#include "serve/scheduler.h"
#include "serve/service.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

namespace coopbench {

using namespace cooper;

namespace {

constexpr double kTickS = 0.01;    // flush + timer cadence
constexpr double kWindowS = 0.1;   // per-vehicle exchange window (10 Hz)
constexpr int kTicksPerCheckpoint = 10;
// Fusions up to this tick are reported for the stored reference (0.6 s).
constexpr int kCheckTicks = 60;
// Fusions recomposed from public calls per fleet round (one window period)
// of the timed phase, spread over the whole phase.
constexpr std::uint32_t kChecksPerRound = 2;
constexpr std::uint32_t kPhaseStride = 7;
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;
constexpr std::array<feat::ExchangeLevel, 3> kLevels = {
    feat::ExchangeLevel::kRawCloud, feat::ExchangeLevel::kRoiCloud,
    feat::ExchangeLevel::kVoxelFeatures};

struct EdgeLoad {
  core::CooperConfig config;
  serve::ServeConfig serve;
  std::uint32_t vehicles = 64;
  std::uint32_t cooperators = 2;
  // Windows are evenly staggered over the period, so every flush sees six or
  // seven new jobs instead of one 64-vehicle burst, plus this much seeded
  // jitter.  The order rotates by kPhaseStride slots each period: the
  // airtime ledger admits whoever comes first in a period, and the rotation
  // lets every vehicle come first about once a second.
  double jitter_s = 0.001;
  int warmup_ticks = 10;
  // Per vehicle (index vehicle - 1): its own scan from one of the lot's
  // viewpoints, its nav, the ground truth in its frame, its package at each
  // level (payload fixed; sender id and timestamp are filled per window) and
  // the demand sizes the planner sees.
  std::vector<pc::PointCloud> clouds;
  std::vector<core::NavMetadata> navs;
  std::vector<std::vector<geom::Box3>> truth;
  std::vector<std::array<core::ExchangePackage, 3>> packages;
  std::vector<feat::CooperatorDemand> sizes;

  std::size_t IndexOf(std::uint32_t vehicle) const { return vehicle - 1; }
};

EdgeLoad MakeEdgeFleet(std::uint64_t seed, bool tiny) {
  EdgeLoad load;
  const sim::Scenario sc = sim::MakeTjScenario(2);
  sim::LidarConfig lidar;  // the small load sensor: 8 beams, 256 steps
  lidar.beams = 8;
  lidar.azimuth_steps = 256;
  load.config = eval::MakeCooperConfig(lidar);
  load.serve.threads = 4;
  // Modeled capacity for the offered load: 64 vehicles x 10 Hz x ~62 ms of
  // modeled work per fusion needs ~40 modeled cores; 64 keep every job
  // inside its deadline, so admission (airtime ledger, exchange ladder) is
  // what sheds load, and no operation fails.
  load.serve.modeled_cores = 64;
  // One shared 6 Mbps channel cannot carry 1280 exchanges a second; the
  // airtime ledger rolls over every window period, so admission sheds the
  // excess steadily rather than in one burst per second.
  load.serve.admission.airtime_period_s = kWindowS;
  load.vehicles = tiny ? 8 : 64;
  const sim::LidarSimulator sim_lidar(lidar);
  Rng scan_rng(seed * 1000003ull + 64);
  const geom::Vec3 mount{0.0, 0.0, lidar.sensor_height};
  for (std::uint32_t v = 0; v < load.vehicles; ++v) {
    const sim::VehicleState& vp = sc.viewpoints[v % sc.viewpoints.size()];
    load.clouds.push_back(sim_lidar.Scan(sc.scene, vp.ToPose(), scan_rng));
    load.navs.push_back(core::NavMetadata{vp.position, vp.attitude, mount});
    load.truth.push_back(CarBoxes(
        sc.scene, vp.ToPose() * geom::Pose(geom::Mat3::Identity(), mount),
        {55.0, 0.0}));
  }
  const core::CooperPipeline sender(load.config);
  for (std::size_t v = 0; v < load.clouds.size(); ++v) {
    std::array<core::ExchangePackage, 3> packages;
    feat::CooperatorDemand d;
    for (std::size_t l = 0; l < kLevels.size(); ++l) {
      packages[l] = sender.MakeLeveledPackage(
          0, 0.0, core::RoiCategory::kFrontSector, kLevels[l], load.navs[v],
          load.clouds[v]);
    }
    d.raw_bytes = net::SerializePackage(packages[0]).size();
    d.roi_bytes = net::SerializePackage(packages[1]).size();
    d.feature_bytes = net::SerializePackage(packages[2]).size();
    load.packages.push_back(std::move(packages));
    load.sizes.push_back(d);
  }
  return load;
}

struct Link {
  net::Transport transport;
  Rng rng;
  // Delivered packages: (virtual time the last fragment arrived, package).
  std::vector<std::pair<double, core::ExchangePackage>> delivered;
  Link(const net::TransportConfig& config, net::DsrcChannel* channel,
       std::uint64_t seed)
      : transport(config, channel), rng(seed) {}
};

struct Fusion {
  int tick = 0;
  std::uint32_t vehicle = 0;
  std::uint64_t digest = 0;
};

// The system under test plus the benchmark-owned channel and links.
class EdgeRunner {
 public:
  EdgeRunner(const EdgeLoad& load, std::uint64_t seed)
      : load_(load),
        seed_(seed),
        service_(load.config, load.serve) {
    for (std::uint32_t v = 1; v <= load_.vehicles; ++v) {
      service_.RegisterVehicle(v, &load_.clouds[load_.IndexOf(v)],
                               load_.navs[load_.IndexOf(v)]);
      jitter_.emplace_back(seed * 1000003ull + v);
    }
    service_.SetEventSink([this](const replay::ServeEventRecord& e) {
      if (e.kind == replay::ServeEventKind::kSetup) return;
      event_digest_ = replay::DigestServeEvent(e, event_digest_);
      if (e.kind == replay::ServeEventKind::kJobComplete) {
        tick_fusions_.push_back({tick_, e.vehicle, e.arg0});
      } else if (e.kind == replay::ServeEventKind::kDeadlineMiss) {
        ++missed_;
      }
    });
    sched_.At(0.0, [this](double now) { Round(0, now); });
    sched_.At(kTickS, [this](double now) { Tick(1, now); });
  }
  // Scheduled events and the event sink hold `this`.
  EdgeRunner(const EdgeRunner&) = delete;
  EdgeRunner& operator=(const EdgeRunner&) = delete;

  // Runs virtual time up to tick `tick`; returns the fusions it completed.
  const std::vector<Fusion>& RunTick(int tick, Tracer* tracer) {
    tracer_ = tracer;
    tick_ = tick;
    tick_fusions_.clear();
    sched_.RunUntil(tick * kTickS);
    return tick_fusions_;
  }

  // Packages `vehicle`'s session holds after the flush at `tick`: the newest
  // delivered on each of its links.
  std::map<std::uint32_t, core::ExchangePackage> Held(std::uint32_t vehicle,
                                                      int tick) const {
    std::map<std::uint32_t, core::ExchangePackage> held;
    for (const auto& [key, link] : links_) {
      if (key >> 32 != vehicle) continue;
      for (const auto& [done_s, package] : link->delivered) {
        if (done_s <= tick * kTickS) held[package.sender_id] = package;
      }
    }
    return held;
  }

  struct Totals {
    double frames_sent = 0, frames_retransmitted = 0, frames_dropped = 0;
    double bytes_on_air = 0;
    double accepted = 0, corrupt = 0, incomplete = 0, hits = 0, misses = 0;
  };
  Totals Snapshot() {
    Totals t;
    for (const auto& [key, link] : links_) {
      t.frames_sent += link->transport.stats().frames_sent;
      t.frames_retransmitted += link->transport.stats().frames_retransmitted;
    }
    t.frames_dropped = channel_.total_dropped();
    t.bytes_on_air = channel_.total_bytes_on_air();
    for (const std::uint32_t v : service_.vehicles()) {
      const core::SessionStats& s = service_.session(v)->stats();
      t.accepted += s.packages_accepted + s.packages_replaced;
      t.corrupt += s.packages_corrupt;
      t.incomplete += s.packages_incomplete;
      t.hits += s.recon_cache_hits;
      t.misses += s.recon_cache_misses;
    }
    return t;
  }

  std::uint64_t event_digest() const { return event_digest_; }
  std::size_t missed() const { return missed_; }
  std::size_t failed_sends() const { return failed_sends_; }
  double last_flush_ms() const { return last_flush_ms_; }
  // Serve-layer tallies for the traced phase.
  struct ServeTally {
    double windows = 0, admitted = 0, downgraded = 0, rejected = 0;
    double flushes_with_jobs = 0, max_queue = 0;
    std::vector<double> virtual_ms;
  };
  ServeTally& tally() { return tally_; }

 private:
  void Round(int k, double now) {
    for (std::uint32_t v = 1; v <= load_.vehicles; ++v) {
      const std::uint32_t slot = (v - 1 + kPhaseStride * k) % load_.vehicles;
      const double phase = kWindowS * slot / load_.vehicles;
      const double at = now + phase + jitter_[v - 1].Uniform(0.0, load_.jitter_s);
      sched_.At(at, [this, v, k](double t) { Window(v, k, t); });
    }
    sched_.At((k + 1) * kWindowS, [this, k](double t) { Round(k + 1, t); });
  }

  void Tick(int j, double now) {
    {
      Scope span(tracer_, "serve.pump");
      service_.PumpTimers(now);
    }
    tally_.max_queue = std::max<double>(tally_.max_queue, service_.queue_depth());
    std::vector<double> latencies;
    const double start = WallS();
    {
      Scope span(tracer_, "serve.flush");
      latencies = service_.FlushFusions(now);
    }
    last_flush_ms_ = (WallS() - start) * 1e3;
    if (!latencies.empty()) ++tally_.flushes_with_jobs;
    tally_.virtual_ms.insert(tally_.virtual_ms.end(), latencies.begin(),
                             latencies.end());
    sched_.At((j + 1) * kTickS, [this, j](double t) { Tick(j + 1, t); });
  }

  Link& LinkFor(std::uint32_t receiver, std::uint32_t sender) {
    const std::uint64_t key = (static_cast<std::uint64_t>(receiver) << 32) | sender;
    auto it = links_.find(key);
    if (it == links_.end()) {
      it = links_
               .emplace(key, std::make_unique<Link>(
                                 load_.config.transport, &channel_,
                                 seed_ ^ (key * 0x9e3779b97f4a7c15ull)))
               .first;
    }
    return *it->second;
  }

  void Window(std::uint32_t v, int k, double now) {
    std::vector<feat::CooperatorDemand> demands;
    for (std::uint32_t i = 1; i <= load_.cooperators && i < load_.vehicles; ++i) {
      const std::uint32_t sender = (v - 1 + i) % load_.vehicles + 1;
      feat::CooperatorDemand d = load_.sizes[load_.IndexOf(sender)];
      d.sender_id = sender;
      // Every fourth window wants the whole frame, so the raw rung of the
      // ladder carries traffic too.
      d.demand = (v + k) % 4 == 0 ? feat::DemandClass::kFullFrame
                                  : feat::DemandClass::kFrontSector;
      demands.push_back(d);
    }
    serve::WindowPlan plan;
    {
      Scope span(tracer_, "serve.plan");
      plan = service_.PlanWindow(demands, now);
    }
    ++tally_.windows;
    tally_.admitted += plan.admitted;
    tally_.downgraded += plan.downgraded;
    tally_.rejected += plan.rejected;
    for (const serve::AdmissionDecision& dec : plan.decisions) {
      if (!dec.admitted) continue;
      core::ExchangePackage package =
          load_.packages[load_.IndexOf(dec.sender_id)]
                        [static_cast<std::size_t>(dec.level)];
      package.sender_id = dec.sender_id;
      package.timestamp_s = now;
      std::vector<std::uint8_t> bytes;
      {
        Scope span(tracer_, "net.serialize");
        bytes = net::SerializePackage(package);
      }
      Link& link = LinkFor(v, dec.sender_id);
      const double clock_before_ms = link.transport.clock_ms();
      double done_s = now;
      link.transport.SetFrameTap(
          [&, v, now, clock_before_ms](double at_ms,
                                       const std::vector<std::uint8_t>& f) {
            const double arrive_s = now + (at_ms - clock_before_ms) / 1e3;
            done_s = std::max(done_s, arrive_s);
            sched_.At(arrive_s, [this, v, arrive_s, frame = f](double) {
              Scope span(tracer_, "serve.deliver");
              service_.DeliverFrame(v, arrive_s, frame);
            });
          });
      bool ok = false;
      {
        Scope span(tracer_, "net.send");
        ok = link.transport.SendPackage(bytes, dec.sender_id, link.rng).ok();
      }
      link.transport.SetFrameTap({});
      if (!ok) {
        ++failed_sends_;
        continue;
      }
      link.delivered.emplace_back(done_s, std::move(package));
      if (link.delivered.size() > 4) link.delivered.erase(link.delivered.begin());
    }
    Scope span(tracer_, "serve.submit");
    service_.SubmitFusion(v, now);
  }

  const EdgeLoad& load_;
  std::uint64_t seed_;
  net::DsrcChannel channel_{load_.serve.admission.planner.channel};
  serve::EdgeService service_;
  serve::Scheduler sched_;
  std::map<std::uint64_t, std::unique_ptr<Link>> links_;
  std::vector<Rng> jitter_;
  Tracer* tracer_ = nullptr;
  int tick_ = 0;
  std::uint64_t event_digest_ = kDigestSeed;
  std::vector<Fusion> tick_fusions_;
  std::size_t missed_ = 0;
  std::size_t failed_sends_ = 0;
  double last_flush_ms_ = 0.0;
  ServeTally tally_;
};

}  // namespace

int RunEdgeWorkload(const Options& opts) {
  const double gen_start = WallS();
  const EdgeLoad load = MakeEdgeFleet(opts.seed, opts.tiny);
  const double gen_s = WallS() - gen_start;

  std::vector<double> setup_s;
  std::unique_ptr<EdgeRunner> runner;
  std::vector<std::string> fusions;      // "tick:vehicle:hex", tick <= check
  std::vector<std::string> checkpoints;  // "tick:hex" every 10 ticks
  const auto record = [&](int tick, const std::vector<Fusion>& done) {
    if (tick > kCheckTicks) return;
    for (const Fusion& f : done) {
      fusions.push_back(JsonString(std::to_string(f.tick) + ":" +
                                   std::to_string(f.vehicle) + ":" +
                                   Hex(f.digest)));
    }
    if (tick % kTicksPerCheckpoint == 0) {
      checkpoints.push_back(
          JsonString(std::to_string(tick) + ":" + Hex(runner->event_digest())));
    }
  };
  for (int rep = 0; rep < std::max(1, opts.setups); ++rep) {
    runner.reset();
    fusions.clear();
    checkpoints.clear();
    const double start = WallS();
    runner = std::make_unique<EdgeRunner>(load, opts.seed);
    for (int tick = 1; tick <= load.warmup_ticks; ++tick) {
      record(tick, runner->RunTick(tick, nullptr));
    }
    setup_s.push_back(WallS() - start);
  }

  const int phases = opts.trace ? 2 : 1;
  const double phase_s = opts.seconds / phases;
  const int phase_ticks = opts.frames > 0 ? std::max(1, opts.frames / phases) : 0;
  std::vector<double> frame_ms, traced_ms;
  // Every `check_stride`-th untraced fusion, with the packages its session
  // held, recomposed after the timed phase.
  struct Checked {
    Fusion fusion;
    std::map<std::uint32_t, core::ExchangePackage> held;
  };
  std::vector<Checked> checked;
  const std::uint32_t check_stride =
      std::max<std::uint32_t>(1, load.vehicles / kChecksPerRound);
  std::size_t fused = 0, attempted = 0, failed = 0, traced_missed = 0;
  int tick = load.warmup_ticks;
  const EdgeRunner::Totals t0 = runner->Snapshot();
  EdgeRunner::Totals trace_t0, trace_t1;
  const double cpu0 = CpuS();
  double timed_s = 0.0, cpu_s = 0.0, wire_bytes = 0.0;
  Tracer tracer;
  Composer composer(load.config);
  std::size_t probes = 0, probe_mismatch = 0, detections_sum = 0;
  Composer::DetectorCounts count_sum;
  for (int phase = 0; phase < phases; ++phase) {
    const bool traced = phase == 1;
    const std::size_t missed0 = runner->missed();
    const std::size_t failed_sends0 = runner->failed_sends();
    if (traced) {
      trace_t0 = runner->Snapshot();
      runner->tally() = EdgeRunner::ServeTally{};
    }
    std::size_t phase_fused = 0;
    const double start = WallS();
    for (int i = 0;; ++i) {
      if (phase_ticks > 0 ? i >= phase_ticks
                          : (i > 0 && WallS() - start >= phase_s)) {
        break;
      }
      ++tick;
      std::vector<Fusion> done;
      if (traced) {
        tracer.SetStep(static_cast<std::uint64_t>(tick));
        Scope span(&tracer, "tick");
        done = runner->RunTick(tick, &tracer);
      } else {
        done = runner->RunTick(tick, nullptr);
      }
      record(tick, done);
      for (const Fusion& f : done) {
        (traced ? traced_ms : frame_ms).push_back(runner->last_flush_ms());
        if (!traced && phase_fused % check_stride == 0) {
          checked.push_back({f, runner->Held(f.vehicle, tick)});
        }
        ++phase_fused;
      }
      if (traced && !done.empty()) {
        // Probe the first fusion of the batch from public layer calls,
        // outside the tick's span.
        Scope span(&tracer, "probe");
        const Fusion& f = done.front();
        const std::size_t i = load.IndexOf(f.vehicle);
        composer.ClearCache();
        const Composer::Output out = composer.Fuse(
            load.clouds[i], load.navs[i], runner->Held(f.vehicle, tick),
            &tracer);
        const Composer::DetectorCounts counts =
            composer.ProbeDetector(out.fused, &tracer);
        ++probes;
        if (replay::DigestDetections(out.result.detections) != f.digest) {
          ++probe_mismatch;
        }
        count_sum.input_points += counts.input_points;
        count_sum.above_ground_points += counts.above_ground_points;
        count_sum.voxels += counts.voxels;
        count_sum.clusters += counts.clusters;
        detections_sum += out.result.detections.size();
      }
    }
    const std::size_t phase_missed = runner->missed() - missed0;
    attempted += phase_fused + phase_missed;
    failed += phase_missed + (runner->failed_sends() - failed_sends0);
    if (!traced) {
      fused = phase_fused;
      timed_s = WallS() - start;
      cpu_s = CpuS() - cpu0;
      wire_bytes = runner->Snapshot().bytes_on_air - t0.bytes_on_air;
    } else {
      trace_t1 = runner->Snapshot();
      traced_missed = phase_missed;
    }
  }

  // Output check and quality: the sampled fusions, recomposed from the
  // packages their sessions held and checked bit-exact against the service's
  // digests, scored against the ground truth in each vehicle's frame.
  std::vector<std::vector<spod::Detection>> ap_dets;
  std::vector<std::vector<geom::Box3>> ap_truth;
  std::size_t check_mismatch = 0;
  for (const Checked& c : checked) {
    const std::size_t i = load.IndexOf(c.fusion.vehicle);
    composer.ClearCache();
    Composer::Output out =
        composer.Fuse(load.clouds[i], load.navs[i], c.held, nullptr);
    if (replay::DigestDetections(out.result.detections) != c.fusion.digest) {
      ++check_mismatch;
    }
    ap_dets.push_back(std::move(out.result.detections));
    ap_truth.push_back(load.truth[i]);
  }

  JsonObject rec;
  rec.Str("workload", opts.workload);
  rec.Raw("stamp", StampJson(opts));
  rec.Num("generate_s", gen_s);
  rec.Raw("setup_s", JsonNumbers(setup_s));
  rec.Raw("frame_ms", JsonNumbers(frame_ms));
  rec.Num("timed_s", timed_s);
  rec.Num("cpu_s", cpu_s);
  rec.Int("frames", static_cast<long long>(fused));
  rec.Int("attempted", static_cast<long long>(attempted));
  rec.Int("failed", static_cast<long long>(failed));
  rec.Num("wire_bytes", wire_bytes);
  rec.Num("fused_ap", eval::ComputeAp(ap_dets, ap_truth).ap);
  rec.Int("ap_frames", static_cast<long long>(ap_dets.size()));
  rec.Int("check_mismatch", static_cast<long long>(check_mismatch));
  rec.Num("peak_rss_mb", PeakRssMb());
  rec.Int("warmup_ticks", load.warmup_ticks);
  rec.Int("check_ticks", kCheckTicks);
  rec.Int("ticks", tick);
  const auto join = [](const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i > 0 ? "," : "") + items[i];
    }
    return out + "]";
  };
  rec.Raw("fusions", join(fusions));
  rec.Raw("checkpoints", join(checkpoints));

  if (opts.trace) {
    const double frames = std::max<double>(1.0, traced_ms.size());
    const double probed = std::max<double>(1.0, probes);
    const std::map<std::string, double> self = tracer.SelfUs();
    const auto ms = [&](const char* name, double per) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second / 1e3 / per;
    };
    JsonObject layers;
    for (const char* name :
         {"net.serialize", "net.send", "serve.deliver", "serve.plan",
          "serve.submit", "serve.flush", "serve.pump"}) {
      layers.Num(std::string(name) + "_ms", ms(name, frames));
    }
    for (const char* name :
         {"pointcloud.decode", "feat.decode", "spod.densify",
          "core.reconstruct", "core.icp", "feat.align", "pointcloud.merge",
          "spod.detect", "spod.ground", "pointcloud.voxelize",
          "spod.cluster"}) {
      layers.Num(std::string(name) + "_ms", ms(name, probed));
    }
    layers.Num("spod.other_ms", ms("spod.detect", probed) -
                                    ms("spod.ground", probed) -
                                    ms("pointcloud.voxelize", probed) -
                                    ms("spod.cluster", probed));
    layers.Num("spod.input_points", count_sum.input_points / probed);
    layers.Num("spod.above_ground_points",
               count_sum.above_ground_points / probed);
    layers.Num("spod.voxels", count_sum.voxels / probed);
    layers.Num("spod.clusters", count_sum.clusters / probed);
    layers.Num("spod.detections", detections_sum / probed);
    layers.Num("net.frames_sent",
               (trace_t1.frames_sent - trace_t0.frames_sent) / frames);
    layers.Num("net.frames_retransmitted",
               (trace_t1.frames_retransmitted - trace_t0.frames_retransmitted) /
                   frames);
    layers.Num("net.frames_dropped",
               (trace_t1.frames_dropped - trace_t0.frames_dropped) / frames);
    layers.Num("net.bytes_on_air",
               (trace_t1.bytes_on_air - trace_t0.bytes_on_air) / frames);
    layers.Num("session.packages_accepted",
               (trace_t1.accepted - trace_t0.accepted) / frames);
    layers.Num("session.packages_corrupt",
               (trace_t1.corrupt - trace_t0.corrupt) / frames);
    layers.Num("session.packages_incomplete",
               (trace_t1.incomplete - trace_t0.incomplete) / frames);
    const double hits = trace_t1.hits - trace_t0.hits;
    const double misses = trace_t1.misses - trace_t0.misses;
    layers.Num("session.recon_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
    EdgeRunner::ServeTally& tally = runner->tally();
    const double windows = std::max(1.0, tally.windows);
    layers.Num("serve.batch_size",
               traced_ms.size() / std::max(1.0, tally.flushes_with_jobs));
    layers.Num("serve.max_queue_depth", tally.max_queue);
    layers.Num("serve.admitted", tally.admitted / windows);
    layers.Num("serve.downgraded", tally.downgraded / windows);
    layers.Num("serve.rejected", tally.rejected / windows);
    std::vector<double>& vms = tally.virtual_ms;
    std::sort(vms.begin(), vms.end());
    layers.Num("serve.deadline_missed", static_cast<double>(traced_missed));
    layers.Num("serve.virtual_p50_ms", vms.empty() ? 0.0 : vms[vms.size() / 2]);
    layers.Num("trace.coverage", tracer.Coverage("tick"));
    layers.Num("trace.composed_match", probe_mismatch == 0 ? 1.0 : 0.0);
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

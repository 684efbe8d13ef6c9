#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/simd.h"
#include "feat/codec.h"
#include "feat/fusion.h"
#include "core/roi.h"
#include "pointcloud/codec.h"
#include "pointcloud/voxel_grid.h"
#include "spod/clustering.h"

namespace coopbench {

using namespace cooper;

double WallS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

CpuRotor::CpuRotor() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotor::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  (void)sched_setaffinity(0, sizeof set, &set);
}

// --- Tracer ---

Tracer::Tracer() : origin_s_(WallS()) {}

int Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_us = (WallS() - origin_s_) * 1e6;
  span.parent = open_.empty() ? -1 : open_.back();
  span.step = step_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_us = (WallS() - origin_s_) * 1e6;
  open_.pop_back();
}

std::map<std::string, double> Tracer::SelfUs() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

double Tracer::Coverage(const std::string& root) const {
  double root_us = 0.0;
  double covered_us = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.name == root) root_us += s.end_us - s.start_us;
    if (s.parent >= 0 && spans_[s.parent].name == root) {
      covered_us += s.end_us - s.start_us;
    }
  }
  return root_us > 0.0 ? covered_us / root_us : 0.0;
}

bool Tracer::WriteChrome(const std::string& path, const std::string& workload,
                         const std::string& stamp_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"otherData\":" << stamp_json << ",\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":"
      << JsonString("coopbench " + workload) << "}}";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\":" << JsonString(s.name) << ",\"cat\":"
        << JsonString(s.name.substr(0, s.name.find('.'))) << ",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << buf << ",\"pid\":1,\"tid\":1,\"args\":{\"step\":" << s.step
        << ",\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- JSON ---

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

void JsonObject::Num(const std::string& key, double v) {
  fields_.emplace_back(key, Number(v));
}
void JsonObject::Int(const std::string& key, long long v) {
  fields_.emplace_back(key, std::to_string(v));
}
void JsonObject::Str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, JsonString(v));
}
void JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}
std::string JsonObject::Dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

std::string StampJson(const Options& opts) {
  JsonObject o;
  o.Str("workload", opts.workload);
  o.Int("seed", static_cast<long long>(opts.seed));
  o.Str("simd_tier",
        common::simd::TierName(common::simd::ActiveTier()));
  o.Str("cpu_features", common::simd::CpuFeatureString());
  o.Int("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  o.Str("build_type", COOPBENCH_BUILD_TYPE);
  o.Int("tiny", opts.tiny ? 1 : 0);
  return o.Dump();
}

std::vector<geom::Box3> CarBoxes(const sim::Scene& scene,
                                 const geom::Pose& sensor_pose,
                                 const GroundTruthFilter& filter) {
  const geom::Pose world_to_sensor = sensor_pose.Inverse();
  std::vector<geom::Box3> out;
  for (const auto& obj : scene.objects()) {
    if (obj.cls != sim::ObjectClass::kCar) continue;
    const geom::Box3 box = obj.box.Transformed(world_to_sensor);
    if (box.center.NormXY() > filter.max_range) continue;
    if (filter.half_fov_rad > 0.0 &&
        std::abs(std::atan2(box.center.y, box.center.x)) > filter.half_fov_rad) {
      continue;
    }
    out.push_back(box);
  }
  return out;
}

namespace {

// The session's cache key on the receiver nav: exact equality.
bool SameNav(const core::NavMetadata& a, const core::NavMetadata& b) {
  return a.gps_position.x == b.gps_position.x &&
         a.gps_position.y == b.gps_position.y &&
         a.gps_position.z == b.gps_position.z &&
         a.imu_attitude.yaw == b.imu_attitude.yaw &&
         a.imu_attitude.pitch == b.imu_attitude.pitch &&
         a.imu_attitude.roll == b.imu_attitude.roll &&
         a.lidar_mount.x == b.lidar_mount.x &&
         a.lidar_mount.y == b.lidar_mount.y &&
         a.lidar_mount.z == b.lidar_mount.z;
}

}  // namespace

// --- Composed sender side ---

core::ExchangePackage ComposePackage(const core::CooperPipeline& sender,
                                     std::uint32_t sender_id,
                                     double timestamp_s, core::RoiCategory roi,
                                     feat::ExchangeLevel level,
                                     const core::NavMetadata& nav,
                                     const pc::PointCloud& cloud,
                                     Tracer* tracer) {
  Scope span(tracer, "core.make_package");
  const core::CooperConfig& cfg = sender.config();
  core::ExchangePackage p;
  p.sender_id = sender_id;
  p.timestamp_s = timestamp_s;
  p.roi = roi;
  p.level = level;
  p.nav = nav;
  if (level == feat::ExchangeLevel::kRawCloud) {
    Scope encode(tracer, "pointcloud.encode");
    p.payload = pc::CloudCodec(cfg.codec).Encode(cloud);
    return p;
  }
  const pc::PointCloud roi_cloud = core::ExtractRoi(cloud, roi, cfg.roi);
  if (level == feat::ExchangeLevel::kRoiCloud) {
    Scope encode(tracer, "pointcloud.encode");
    p.payload = pc::CloudCodec(cfg.codec).Encode(roi_cloud);
    return p;
  }
  feat::FeatureMap map;
  {
    Scope extract(tracer, "feat.extract");
    map = feat::MaxPool(sender.detector().ExtractFeatureMap(roi_cloud),
                        cfg.feature_pool);
  }
  Scope encode(tracer, "feat.encode");
  p.payload = feat::FeatureCodec(cfg.feature_codec).Encode(map);
  return p;
}

// --- Composed receiver side ---

Composer::Composer(const core::CooperConfig& config) : pipeline_(config) {}

bool Composer::Reconstruct(const core::ExchangePackage& package,
                           const core::NavMetadata& local_nav,
                           const pc::PointCloud& icp_target, Entry* entry,
                           Tracer* tracer) const {
  *entry = Entry{};
  entry->timestamp_s = package.timestamp_s;
  entry->nav = local_nav;
  const geom::Pose ego_from_sender =
      core::CooperPipeline::ReceiverFromSender(local_nav, package.nav);
  if (package.level == feat::ExchangeLevel::kVoxelFeatures) {
    entry->features = true;
    Result<feat::FeatureMap> map = [&] {
      Scope span(tracer, "feat.decode");
      return core::DecodeFeatures(package);
    }();
    if (!map.ok()) return false;
    Scope span(tracer, "feat.align");
    feat::AlignedFeatures aligned = feat::AlignToGrid(
        *map, ego_from_sender,
        feat::GridSpec::FromVoxelConfig(pipeline_.detector().config().voxel));
    entry->ego_map = std::move(aligned.map);
    entry->ego = std::move(aligned.pseudo);
    entry->valid = true;
    return true;
  }
  Result<pc::PointCloud> decoded = [&] {
    Scope span(tracer, "pointcloud.decode");
    return core::DecodePackage(package);
  }();
  if (!decoded.ok()) return false;
  pc::PointCloud cloud;
  {
    Scope span(tracer, "spod.densify");
    cloud = pipeline_.detector().Densify(*decoded);
  }
  {
    Scope span(tracer, "core.reconstruct");
    cloud.Transform(ego_from_sender);
  }
  Scope span(tracer, "core.icp");
  entry->ego = pipeline_.RefineAlignment(std::move(cloud), icp_target, nullptr);
  entry->valid = true;
  return true;
}

void Composer::Prime(std::uint32_t sender, const core::ExchangePackage& package,
                     const pc::PointCloud& local,
                     const core::NavMetadata& local_nav) {
  Reconstruct(package, local_nav, pipeline_.IcpTarget(local), &cache_[sender],
              nullptr);
}

Composer::Output Composer::Fuse(
    const pc::PointCloud& local, const core::NavMetadata& local_nav,
    const std::map<std::uint32_t, core::ExchangePackage>& held,
    Tracer* tracer) {
  Output out;
  for (auto it = cache_.begin(); it != cache_.end();) {
    it = held.count(it->first) == 0 ? cache_.erase(it) : std::next(it);
  }
  bool have_icp_target = false;
  pc::PointCloud icp_target;
  for (const auto& [sender, package] : held) {
    Entry& entry = cache_[sender];
    if (entry.valid && entry.timestamp_s == package.timestamp_s &&
        SameNav(entry.nav, local_nav)) {
      continue;  // reconstruction still valid
    }
    ++out.misses;
    if (!have_icp_target) {
      // Like the session: one registration target per fusion with misses.
      Scope span(tracer, "core.icp");
      icp_target = pipeline_.IcpTarget(local);
      have_icp_target = true;
    }
    out.ok = Reconstruct(package, local_nav, icp_target, &entry, tracer) && out.ok;
  }

  const spod::SpodDetector& detector = pipeline_.detector();
  {
    Scope span(tracer, "spod.densify");
    out.fused = detector.Densify(local);
  }
  std::vector<const feat::FeatureMap*> maps;
  {
    Scope span(tracer, "pointcloud.merge");
    for (const auto& [sender, entry] : cache_) {
      if (!entry.valid) continue;
      out.fused.Merge(entry.ego);
      if (entry.features) maps.push_back(&entry.ego_map);
    }
  }
  Scope span(tracer, "spod.detect");
  out.result = maps.empty() ? detector.DetectPreprocessed(out.fused)
                            : detector.DetectWithFeatures(out.fused, maps);
  return out;
}

Composer::DetectorCounts Composer::ProbeDetector(const pc::PointCloud& fused,
                                                 Tracer* tracer) const {
  const spod::SpodConfig& cfg = pipeline_.detector().config();
  DetectorCounts counts;
  counts.input_points = fused.size();
  pc::PointCloud above;
  {
    Scope span(tracer, "spod.ground");
    pc::PointCloud cloud = fused;
    cloud.RemoveInvalid();
    const double ground_z = pc::EstimateGroundZ(cloud);
    above = cloud.FilterMinZ(ground_z + cfg.ground_margin);
  }
  counts.above_ground_points = above.size();
  {
    Scope span(tracer, "pointcloud.voxelize");
    pc::VoxelGridConfig voxel = cfg.voxel;
    voxel.num_threads = cfg.num_threads;
    counts.voxels = pc::VoxelGrid(above, voxel).voxels().size();
  }
  Scope span(tracer, "spod.cluster");
  counts.clusters = spod::ClusterPoints(above, cfg.cluster_merge_radius,
                                        cfg.min_cluster_points, cfg.num_threads)
                        .size();
  return counts;
}

}  // namespace coopbench

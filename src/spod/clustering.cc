#include "spod/clustering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>

#include "common/status.h"
#include "common/thread_pool.h"

namespace cooper::spod {
namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

// Union-find over point indices, on caller-owned storage.
class DisjointSet {
 public:
  explicit DisjointSet(std::vector<std::uint32_t>& parent, std::size_t n)
      : parent_(parent) {
    parent_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
  }
  std::uint32_t Find(std::uint32_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }
  void Union(std::uint32_t a, std::uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::uint32_t>& parent_;
};

// The merge predicate: BEV distance within the radius, inclusive.
bool WithinRadius(const pc::Point& a, const pc::Point& b, double r2) {
  const double ddx = a.position.x - b.position.x;
  const double ddy = a.position.y - b.position.y;
  return ddx * ddx + ddy * ddy <= r2;
}

// Components -> clusters: scan points in ascending index order, opening a
// cluster slot at each new root, so every cluster's first point is its
// lowest-index member.  Components never depend on union order, and the
// final sort gives one canonical cluster order (first-point positions are
// distinct across clusters in x/y — coincident BEV points always merge).
std::vector<Cluster> CollectClusters(const pc::PointCloud& cloud,
                                     DisjointSet& ds, std::size_t min_points,
                                     std::vector<std::uint32_t>& root_slot) {
  const std::size_t n = cloud.size();
  root_slot.assign(n, kNone);
  std::vector<Cluster> clusters;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t root = ds.Find(i);
    std::uint32_t slot = root_slot[root];
    if (slot == kNone) {
      slot = static_cast<std::uint32_t>(clusters.size());
      root_slot[root] = slot;
      clusters.emplace_back();
    }
    clusters[slot].points.push_back(cloud[i]);
  }
  std::vector<Cluster> out;
  out.reserve(clusters.size());
  for (auto& c : clusters) {
    if (c.points.size() >= min_points) out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Cluster& a, const Cluster& b) {
    const auto& pa = a.points[0].position;
    const auto& pb = b.points[0].position;
    return std::tie(pa.x, pa.y, pa.z) < std::tie(pb.x, pb.y, pb.z);
  });
  return out;
}

}  // namespace

std::vector<Cluster> ClusterPoints(const pc::PointCloud& cloud,
                                   double merge_radius,
                                   std::size_t min_points,
                                   int num_threads,
                                   ClusterScratch* scratch) {
  COOPER_CHECK(std::isfinite(merge_radius) && merge_radius > 0.0);
  if (cloud.empty()) return {};
  ClusterScratch local;
  ClusterScratch& sc = scratch ? *scratch : local;
  const std::size_t n = cloud.size();
  DisjointSet ds(sc.parent, n);

  // Cell index: FlatMap cell -> dense cell id, with per-cell point lists as
  // prepend chains over two flat arrays (no per-cell vector allocations).
  // A cell's diagonal is 0.7 * sqrt(2) = 0.99 of the radius, so two points
  // sharing a cell always pass the merge predicate below (the 1% margin
  // covers the rounding of floor(x / cell)); each point is unioned with its
  // cell as it is filed, and no pair inside a cell is ever tested.
  const double cell = 0.7 * merge_radius;
  sc.grid.Clear();
  sc.grid.Reserve(n / 2 + 16);
  sc.cell_keys.clear();
  sc.cell_head.clear();
  sc.point_next.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& p = cloud[i].position;
    const pc::VoxelCoord key{static_cast<std::int32_t>(std::floor(p.x / cell)),
                             static_cast<std::int32_t>(std::floor(p.y / cell)),
                             0};
    const auto [slot, inserted] = sc.grid.TryEmplace(
        key, static_cast<std::uint32_t>(sc.cell_keys.size()));
    if (inserted) {
      sc.cell_keys.push_back(key);
      sc.cell_head.push_back(kNone);
    }
    const std::uint32_t prev = sc.cell_head[*slot];
    if (prev != kNone) ds.Union(i, prev);
    sc.point_next[i] = prev;
    sc.cell_head[*slot] = i;
  }

  // Parallel phase: a point pair within the radius is at most two cells
  // apart on each axis (radius / cell < 1.43), so each cell tests the 12
  // forward cells of its 5x5 neighbourhood — every unordered cell pair
  // once.  The scan of a cell pair stops at the first point pair within the
  // radius and emits one cell-level edge (any member of each cell stands
  // for it, since cells are already internally joined) into its chunk's
  // scratch buffer.  The union of those edges connects exactly the points
  // the pairwise predicate connects.
  static constexpr int kForward[12][2] = {
      {1, 0},  {2, 0},  {-2, 1}, {-1, 1}, {0, 1}, {1, 1},
      {2, 1},  {-2, 2}, {-1, 2}, {0, 2},  {1, 2}, {2, 2}};
  const double r2 = merge_radius * merge_radius;
  auto witness = [&](std::uint32_t a, std::uint32_t b) {
    for (std::uint32_t i = a; i != kNone; i = sc.point_next[i]) {
      for (std::uint32_t j = b; j != kNone; j = sc.point_next[j]) {
        if (WithinRadius(cloud[i], cloud[j], r2)) return true;
      }
    }
    return false;
  };
  const std::size_t num_cells = sc.cell_keys.size();
  constexpr std::size_t kGrain = 32;
  const std::size_t num_parts = (num_cells + kGrain - 1) / kGrain;
  if (sc.parts.size() < num_parts) sc.parts.resize(num_parts);
  for (std::size_t s = 0; s < num_parts; ++s) sc.parts[s].clear();
  common::ParallelFor(
      num_threads, 0, num_cells, kGrain,
      [&](std::size_t lo, std::size_t hi) {
        auto& out = sc.parts[lo / kGrain];
        for (std::size_t ci = lo; ci < hi; ++ci) {
          const pc::VoxelCoord& key = sc.cell_keys[ci];
          const std::uint32_t head = sc.cell_head[ci];
          for (const auto& d : kForward) {
            const std::uint32_t* nb =
                sc.grid.Find({key.x + d[0], key.y + d[1], 0});
            if (nb == nullptr) continue;
            const std::uint32_t nb_head = sc.cell_head[*nb];
            if (witness(head, nb_head)) out.push_back({head, nb_head});
          }
        }
      });

  // Serial phase: union-find over the gathered cell edges.
  for (std::size_t s = 0; s < num_parts; ++s) {
    for (const auto& e : sc.parts[s]) ds.Union(e.i, e.j);
  }
  return CollectClusters(cloud, ds, min_points, sc.root_slot);
}

std::vector<Cluster> ClusterPointsBruteForce(const pc::PointCloud& cloud,
                                             double merge_radius,
                                             std::size_t min_points) {
  COOPER_CHECK(std::isfinite(merge_radius) && merge_radius > 0.0);
  if (cloud.empty()) return {};
  const std::size_t n = cloud.size();
  std::vector<std::uint32_t> parent, root_slot;
  DisjointSet ds(parent, n);
  const double r2 = merge_radius * merge_radius;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (WithinRadius(cloud[i], cloud[j], r2)) ds.Union(i, j);
    }
  }
  return CollectClusters(cloud, ds, min_points, root_slot);
}

geom::Box3 FitOrientedBox(const pc::PointCloud& cluster) {
  geom::Box3 best;
  double best_area = std::numeric_limits<double>::infinity();
  constexpr int kSteps = 45;  // 2-degree resolution
  for (int s = 0; s < kSteps; ++s) {
    const double yaw = geom::DegToRad(90.0 * s / kSteps);
    const double c = std::cos(yaw), si = std::sin(yaw);
    double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
    double ymin = xmin, ymax = -xmin;
    for (const auto& p : cluster) {
      const double lx = c * p.position.x + si * p.position.y;
      const double ly = -si * p.position.x + c * p.position.y;
      xmin = std::min(xmin, lx); xmax = std::max(xmax, lx);
      ymin = std::min(ymin, ly); ymax = std::max(ymax, ly);
    }
    const double area = (xmax - xmin) * (ymax - ymin);
    if (area < best_area) {
      best_area = area;
      const double cx = 0.5 * (xmin + xmax), cy = 0.5 * (ymin + ymax);
      best.center = {c * cx - si * cy, si * cx + c * cy, 0.0};
      best.length = xmax - xmin;
      best.width = ymax - ymin;
      best.yaw = yaw;
    }
  }
  // Convention: length >= width, yaw along the long axis.
  if (best.width > best.length) {
    std::swap(best.length, best.width);
    best.yaw = geom::WrapAngle(best.yaw + geom::DegToRad(90.0));
  }
  double zmin = std::numeric_limits<double>::infinity(), zmax = -zmin;
  for (const auto& p : cluster) {
    zmin = std::min(zmin, p.position.z);
    zmax = std::max(zmax, p.position.z);
  }
  best.height = std::max(0.1, zmax - zmin);
  best.center.z = 0.5 * (zmin + zmax);
  return best;
}

}  // namespace cooper::spod

// Cluster extraction and oriented-box fitting for SPOD's proposal stage.
//
// After the ground cut, the above-ground points are grouped into connected
// components in the BEV plane; each component's points are fitted with a
// minimum-area oriented rectangle (yaw search), producing the box proposals
// the confidence model scores.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "geom/box.h"
#include "pointcloud/point_cloud.h"
#include "pointcloud/voxel_grid.h"

namespace cooper::spod {

struct Cluster {
  pc::PointCloud points;
};

/// Reusable working set for ClusterPoints: the BEV cell index (a FlatMap
/// keyed on `pc::VoxelCoord` with z = 0), the first-appearance cell list and
/// chained per-cell point lists, the per-chunk cell-edge buffers of the
/// parallel neighbour test, and union-find storage.  Everything is cleared —
/// not freed — between calls, so steady-state frames allocate near zero.  A
/// scratch may be shared by successive calls but not by concurrent ones.
struct ClusterScratch {
  struct Edge {
    std::uint32_t i, j;
  };
  common::FlatMap<pc::VoxelCoord, std::uint32_t, pc::VoxelCoordHash> grid;
  std::vector<pc::VoxelCoord> cell_keys;   // first-appearance order
  std::vector<std::uint32_t> cell_head;    // head of each cell's point chain
  std::vector<std::uint32_t> point_next;   // next point in the same cell
  std::vector<std::vector<Edge>> parts;    // cell edges, one per chunk
  std::vector<std::uint32_t> parent;       // union-find
  std::vector<std::uint32_t> root_slot;    // root point index -> cluster slot
};

/// Groups points into the connected components of "BEV distance <=
/// `merge_radius`" (single linkage).  Points are bucketed into cells of side
/// 0.7 * `merge_radius`, small enough that every cell is internally
/// connected; neighbouring cells are joined as soon as one point pair
/// between them is within the radius, so the cost follows points and cells,
/// not point pairs.  Components smaller than `min_points` are discarded.
/// `merge_radius` must be positive and finite.  `num_threads` parallelises
/// the neighbour-cell test (<= 0: hardware concurrency, 1: serial); the
/// output is identical for every thread count — cell edges are gathered per
/// chunk and union-find runs serially, and component membership does not
/// depend on union order anyway.  `scratch` (optional) provides reusable
/// working storage; identical output with or without it.
std::vector<Cluster> ClusterPoints(const pc::PointCloud& cloud,
                                   double merge_radius,
                                   std::size_t min_points,
                                   int num_threads = 1,
                                   ClusterScratch* scratch = nullptr);

/// Reference for ClusterPoints: the same components and cluster order from
/// an O(n^2) union-find over every point pair.  For tests and benchmark
/// checks only.
std::vector<Cluster> ClusterPointsBruteForce(const pc::PointCloud& cloud,
                                             double merge_radius,
                                             std::size_t min_points);

/// Minimum-area oriented bounding box of a cluster: yaw is searched over
/// [0, 90) degrees (the rectangle is symmetric beyond that), extents come
/// from the rotated axis-aligned bounds, height from the z extent.
geom::Box3 FitOrientedBox(const pc::PointCloud& cluster);

}  // namespace cooper::spod

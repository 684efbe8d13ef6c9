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
/// chained per-cell point lists, the per-chunk edge buffers of the parallel
/// sweep, union-find storage, and the k-d path's query buffer.  Everything
/// is cleared — not freed — between calls, so steady-state frames allocate
/// near zero.  A scratch may be shared by successive calls but not by
/// concurrent ones.
struct ClusterScratch {
  struct Edge {
    std::uint32_t i, j;
  };
  common::FlatMap<pc::VoxelCoord, std::uint32_t, pc::VoxelCoordHash> grid;
  std::vector<pc::VoxelCoord> cell_keys;   // first-appearance order
  std::vector<std::uint32_t> cell_head;    // head of each cell's point chain
  std::vector<std::uint32_t> point_next;   // next point in the same cell
  std::vector<std::vector<Edge>> parts;    // one per sweep chunk
  std::vector<std::uint32_t> parent;       // union-find
  std::vector<std::uint32_t> root_slot;    // root point index -> cluster slot
  std::vector<std::uint32_t> radius_result;  // k-d path query buffer
  pc::PointCloud flat;                     // z-flattened copy for the k-d path
};

/// Groups points whose BEV distance is below `merge_radius` into connected
/// components (grid-hashed single-linkage; small clouds use a k-d tree over
/// z-flattened points instead — the same inclusive BEV predicate, so the
/// same components). Components smaller than `min_points` are discarded.
/// `num_threads` parallelises the pair-distance sweep (<= 0: hardware
/// concurrency, 1: serial); the output is identical for every thread count —
/// merge edges are gathered per grid cell and union-find runs serially, and
/// component membership does not depend on union order anyway.  `scratch`
/// (optional) provides reusable working storage; identical output with or
/// without it.
std::vector<Cluster> ClusterPoints(const pc::PointCloud& cloud,
                                   double merge_radius,
                                   std::size_t min_points,
                                   int num_threads = 1,
                                   ClusterScratch* scratch = nullptr);

/// Minimum-area oriented bounding box of a cluster: yaw is searched over
/// [0, 90) degrees (the rectangle is symmetric beyond that), extents come
/// from the rotated axis-aligned bounds, height from the z extent.
geom::Box3 FitOrientedBox(const pc::PointCloud& cluster);

}  // namespace cooper::spod

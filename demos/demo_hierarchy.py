"""
Hierarchical subdivision of crowded bins
========================================

A flat grid degrades when the data clusters: a few bins hold almost
everything. The hierarchical index rebuilds those bins as nested
sub-grids until every leaf holds at most max_bin_records ids.
"""

import numpy as np

from hiergrid import (
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    gaussian_points,
)

# Gaussian data: most records land near the center of the extents.
points = gaussian_points(5000, seed=3)

flat = GridIndex(points, 10, 10)
hier = HierGridIndex(
    PointCollection(points.positions.copy()), 10, 10, HierConfig(max_bin_records=8)
)

# Same query on both. The flat index pays for the crowded center bins;
# the hierarchical one descends into sub-grids and touches only leaves.
q = Point2D(500.0, 480.0)
rf = flat.nearest(q)
rh = hier.nearest(q)
print("flat examined", rf.records_examined, "records")
print("hier examined", rh.records_examined, "records")
print("same answer:", rf.record == rh.record)

# How much structure got built? Every bin whose list outgrew the
# threshold owns a child grid level.
print("sub-grids at the top level:", len(hier.sub_indexes))

# leaf_occupancies flattens the whole tree: one (rect, ids) pair per
# leaf bin that actually holds records, ids in the root id space.
leaves = hier.leaf_occupancies()
sizes = np.array([len(ids) for _, ids in leaves])
print("leaves:", len(leaves), "largest leaf:", sizes.max())
print("every record in exactly one leaf:",
      int(sizes.sum()) == points.record_count)

# With 2x2 divisions and max_bin_records=1 the structure is a bucketing
# quad tree: each layer splits a rectangle into quadrants until every
# occupied leaf holds one record.
quad = HierGridIndex(
    PointCollection(points.positions[:64].copy()), 2, 2, HierConfig(max_bin_records=1)
)
print("quad-tree leaves over 64 points:", len(quad.leaf_occupancies()))

# Duplicate points can never be partitioned; subdivision stops at the
# size floor, a fixed fraction of the data's diagonal, instead of
# recursing forever.
dups = PointCollection(np.full((10, 2), 250.0))
stuck = HierGridIndex(dups, 2, 2, HierConfig(max_bin_records=1))
(rect, ids), = stuck.leaf_occupancies()
print("10 coincident records share one leaf:", len(ids) == 10)

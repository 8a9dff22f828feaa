"""
Nearest-record and range queries on a flat grid index
=====================================================

Build an index over a few thousand points, look at what a query
result reports, and watch the index rebuild itself after the
underlying collection changes.
"""

import numpy as np

from hiergrid import BruteForceIndex, Extents, GridIndex, Point2D, PointCollection

# A PointCollection is the simplest indexable source: an (n, 2) array
# of float64 coordinates, ids 0..n-1 in row order.
rng = np.random.default_rng(7)
points = PointCollection(rng.uniform(0.0, 1000.0, (4000, 2)))

# Ten divisions per axis puts ~40 records in each bin.
index = GridIndex(points, 10, 10)

# Nothing is built yet; the first query triggers the rebuild.
result = index.nearest(Point2D(500.0, 500.0))
print("record:", result.record)
print("distance:", result.distance)
print("records examined:", result.records_examined)
print("short circuit:", result.short_circuit)

# The short-circuit flag means the search ended after the home bin
# because the best candidate was closer than every bin edge. When it
# fires, the answer is exact; verify against the brute-force oracle.
truth = BruteForceIndex(points).nearest(Point2D(500.0, 500.0))
print("oracle agrees:", truth.record == result.record)
print("oracle examined", truth.comparisons, "records; the index examined",
      result.records_examined)

# Queries far outside the indexed extents are answered too, by scanning
# the border ring of bins.
far = index.nearest(Point2D(5000.0, -3000.0))
print("far query ->", far.record, f"at {far.distance:.1f}")

# Range queries return ids inside a closed rectangle, ascending.
rect = Extents(Point2D(100.0, 100.0), Point2D(130.0, 140.0))
hits = index.range_query(rect)
print("records in rect:", hits)

# The source tracks mutation. Append a record right next to the query
# point: the next query quietly rebuilds and finds it.
new_id = points.append(500.5, 500.5)
result = index.nearest(Point2D(500.0, 500.0))
print("after append, nearest is the new record:", result.record == new_id)

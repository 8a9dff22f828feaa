"""Grid arithmetic: bin resolution, neighborhoods, boundary distances."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiergrid import (
    BinCoord,
    Extents,
    GridShape,
    Point2D,
    bounding_extents,
    default_smallest_dimension,
    dist_sq,
    neighborhood,
    resolve_bin,
)
from brute import bin_center, dist_to_bin_boundary
from hiergrid.geometry import DEGENERATE_AXIS_EPS, segment_extents, tight_extents

UNIT = Extents(Point2D(0.0, 0.0), Point2D(100.0, 100.0))
SHAPE10 = GridShape(10, 10, UNIT)


class TestPoint2D:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2D(float("nan"), 0.0)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            Point2D(0.0, math.inf)


class TestExtents:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Extents(Point2D(1.0, 0.0), Point2D(0.0, 1.0))

    def test_dimensions(self):
        e = Extents(Point2D(10.0, 20.0), Point2D(40.0, 60.0))
        assert e.width == 30.0
        assert e.height == 40.0
        assert e.diagonal == 50.0
        assert e.center == Point2D(25.0, 40.0)

    def test_contains_is_closed(self):
        assert UNIT.contains(Point2D(0.0, 0.0))
        assert UNIT.contains(Point2D(100.0, 100.0))
        assert not UNIT.contains(Point2D(100.0000001, 50.0))

    def test_scaled_doubles_about_center(self):
        assert UNIT.scaled(2.0) == Extents(Point2D(-50.0, -50.0), Point2D(150.0, 150.0))

    def test_scaled_keeps_center(self):
        e = Extents(Point2D(10.0, -4.0), Point2D(30.0, 8.0))
        assert e.scaled(3.0).center == e.center

    def test_inflate_point_extents(self):
        # widths are approximate: 5.0 +/- 1e-9 rounds in float64
        e = Extents(Point2D(5.0, 5.0), Point2D(5.0, 5.0)).inflated_if_degenerate()
        assert e.width == pytest.approx(2 * DEGENERATE_AXIS_EPS, rel=1e-6)
        assert e.height == pytest.approx(2 * DEGENERATE_AXIS_EPS, rel=1e-6)
        assert e.width > 0 and e.height > 0

    def test_inflate_only_flat_axis(self):
        e = Extents(Point2D(0.0, 5.0), Point2D(9.0, 5.0)).inflated_if_degenerate()
        assert e.width == 9.0
        assert e.height == pytest.approx(2 * DEGENERATE_AXIS_EPS, rel=1e-6)
        assert e.height > 0

    def test_inflate_subnormal_width(self):
        # 5e-324 / 2 rounds to 0.0: such an axis must inflate like a flat one
        e = Extents(Point2D(0.0, 0.0), Point2D(5e-324, 1.0)).inflated_if_degenerate()
        assert e.width == pytest.approx(2 * DEGENERATE_AXIS_EPS, rel=1e-6)
        assert e.height == 1.0

    def test_inflate_noop_when_proper(self):
        assert UNIT.inflated_if_degenerate() is UNIT


class TestGridShape:
    def test_bin_sizes(self):
        shape = GridShape(4, 5, UNIT)
        assert shape.bin_width == 25.0
        assert shape.bin_height == 20.0

    def test_rejects_zero_divisions(self):
        with pytest.raises(ValueError):
            GridShape(0, 4, UNIT)

    def test_rejects_degenerate_extents(self):
        flat = Extents(Point2D(0.0, 1.0), Point2D(8.0, 1.0))
        with pytest.raises(ValueError):
            GridShape(2, 2, flat)

    def test_bin_rect(self):
        rect = SHAPE10.bin_rect(BinCoord(2, 3))
        assert rect == Extents(Point2D(20.0, 30.0), Point2D(30.0, 40.0))


class TestResolveBin:
    def test_interior_point(self):
        assert resolve_bin(Point2D(25.0, 35.0), SHAPE10) == BinCoord(2, 3)

    def test_min_corner(self):
        assert resolve_bin(Point2D(0.0, 0.0), SHAPE10) == BinCoord(0, 0)

    def test_max_corner_clamps_into_last_bin(self):
        assert resolve_bin(Point2D(100.0, 100.0), SHAPE10) == BinCoord(9, 9)

    def test_max_edges_clamp(self):
        assert resolve_bin(Point2D(100.0, 55.0), SHAPE10) == BinCoord(9, 5)
        assert resolve_bin(Point2D(55.0, 100.0), SHAPE10) == BinCoord(5, 9)

    def test_internal_edge_belongs_to_upper_bin(self):
        assert resolve_bin(Point2D(10.0, 0.0), SHAPE10) == BinCoord(1, 0)

    def test_outside_is_none(self):
        assert resolve_bin(Point2D(-0.001, 50.0), SHAPE10) is None
        assert resolve_bin(Point2D(50.0, 100.001), SHAPE10) is None
        assert resolve_bin(Point2D(-5.0, -5.0), SHAPE10) is None


@st.composite
def _shape_and_cell(draw):
    dx = draw(st.integers(1, 32))
    dy = draw(st.integers(1, 32))
    x0 = draw(st.floats(-1e6, 1e6))
    y0 = draw(st.floats(-1e6, 1e6))
    w = draw(st.floats(1e-3, 1e6))
    h = draw(st.floats(1e-3, 1e6))
    shape = GridShape(dx, dy, Extents(Point2D(x0, y0), Point2D(x0 + w, y0 + h)))
    c = BinCoord(draw(st.integers(0, dx - 1)), draw(st.integers(0, dy - 1)))
    return shape, c


class TestResolveBinProperties:
    @settings(max_examples=200, deadline=None)
    @given(_shape_and_cell())
    def test_bin_center_resolves_to_its_bin(self, shape_cell):
        shape, c = shape_cell
        assert resolve_bin(bin_center(c, shape), shape) == c

    @settings(max_examples=200, deadline=None)
    @given(_shape_and_cell(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_resolved_bin_rect_contains_point(self, shape_cell, fx, fy):
        shape, _ = shape_cell
        ext = shape.extents
        p = Point2D(ext.min.x + fx * ext.width, ext.min.y + fy * ext.height)
        c = resolve_bin(p, shape)
        assert c is not None
        # boundary points may clamp downward, so containment is one-sided
        rect = shape.bin_rect(c)
        assert rect.min.x <= p.x and rect.min.y <= p.y
        assert p.x <= rect.max.x + 1e-9 * max(1.0, abs(p.x))
        assert p.y <= rect.max.y + 1e-9 * max(1.0, abs(p.y))


class TestNeighborhood:
    def test_full_ring_of_eight(self):
        got = neighborhood(BinCoord(2, 2), GridShape(5, 5, UNIT))
        assert got == [
            BinCoord(1, 1), BinCoord(2, 1), BinCoord(3, 1),
            BinCoord(1, 2), BinCoord(3, 2),
            BinCoord(1, 3), BinCoord(2, 3), BinCoord(3, 3),
        ]

    def test_corner_ring_clips_to_three(self):
        got = neighborhood(BinCoord(0, 0), SHAPE10)
        assert got == [BinCoord(1, 0), BinCoord(0, 1), BinCoord(1, 1)]

    @settings(max_examples=150, deadline=None)
    @given(_shape_and_cell())
    def test_ring_membership(self, shape_cell):
        shape, c = shape_cell
        got = neighborhood(c, shape)
        assert len(got) <= 8
        assert len(set(got)) == len(got)
        for nc in got:
            assert max(abs(nc.i - c.i), abs(nc.j - c.j)) == 1
            assert 0 <= nc.i < shape.divisions_x
            assert 0 <= nc.j < shape.divisions_y
        assert got == sorted(got, key=lambda bc: (bc.j, bc.i))


class TestDistances:
    """dist_to_bin_boundary is tests/brute.py's reference, which the short
    circuit's checks compare with: it must keep bin_rect's edges."""

    def test_dist_sq(self):
        assert dist_sq(Point2D(0.0, 0.0), Point2D(3.0, 4.0)) == 25.0

    def test_boundary_distance_at_bin_center(self):
        assert dist_to_bin_boundary(Point2D(5.0, 5.0), BinCoord(0, 0), SHAPE10) == 5.0

    def test_boundary_distance_near_edge(self):
        assert dist_to_bin_boundary(Point2D(1.0, 5.0), BinCoord(0, 0), SHAPE10) == 1.0

    def test_boundary_distance_outside_bin_rejected(self):
        with pytest.raises(ValueError):
            dist_to_bin_boundary(Point2D(15.0, 5.0), BinCoord(0, 0), SHAPE10)

    @settings(max_examples=300, deadline=None)
    @given(
        _shape_and_cell(),
        st.booleans(),
        st.booleans(),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from(["left", "right", "below", "above"]),
    )
    def test_boundary_distance_equals_bin_rect_formula(
        self, shape_cell, last_col, last_row, fx, fy, side
    ):
        shape, c = shape_cell
        c = BinCoord(
            shape.divisions_x - 1 if last_col else c.i,
            shape.divisions_y - 1 if last_row else c.j,
        )
        rect = shape.bin_rect(c)
        # a point of the closed rectangle, its edges included
        x = min(rect.min.x + fx * rect.width, rect.max.x)
        y = min(rect.min.y + fy * rect.height, rect.max.y)
        want = min(x - rect.min.x, rect.max.x - x, y - rect.min.y, rect.max.y - y)
        assert dist_to_bin_boundary(Point2D(x, y), c, shape).hex() == want.hex()
        outside = {
            "left": Point2D(math.nextafter(rect.min.x, -math.inf), y),
            "right": Point2D(math.nextafter(rect.max.x, math.inf), y),
            "below": Point2D(x, math.nextafter(rect.min.y, -math.inf)),
            "above": Point2D(x, math.nextafter(rect.max.y, math.inf)),
        }[side]
        with pytest.raises(ValueError):
            dist_to_bin_boundary(outside, c, shape)

    @settings(max_examples=150, deadline=None)
    @given(_shape_and_cell())
    def test_boundary_distance_bounded_by_half_bin(self, shape_cell):
        shape, c = shape_cell
        d = dist_to_bin_boundary(bin_center(c, shape), c, shape)
        # edge arithmetic carries absolute error of a few ulps of the
        # coordinate magnitude, which dominates when spans are tiny
        # relative to the offset from the origin
        ext = shape.extents
        scale = max(abs(ext.min.x), abs(ext.min.y), abs(ext.max.x), abs(ext.max.y), 1.0)
        slack = 8.0 * np.spacing(scale)
        assert d <= min(shape.bin_width, shape.bin_height) / 2 + slack


@st.composite
def _segments(draw):
    """(xs, ys, sizes): points cut into 2-5 consecutive segments of 1-40
    rows, over values that include both signed zeros."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=2, max_size=5))
    n = sum(sizes)
    xs = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3e200])
    ys = st.sampled_from([0.0, -0.0, 4.0, -1e-9])
    return (
        draw(st.lists(xs, min_size=n, max_size=n)),
        draw(st.lists(ys, min_size=n, max_size=n)),
        sizes,
    )


def _hexes(e: Extents) -> list[str]:
    return [v.hex() for v in (e.min.x, e.min.y, e.max.x, e.max.y)]


class TestBoundingExtents:
    def test_tight_box(self):
        e = bounding_extents([(1.0, 7.0), (5.0, 2.0), (3.0, 4.0)])
        assert e == Extents(Point2D(1.0, 2.0), Point2D(5.0, 7.0))

    def test_single_point_inflates(self):
        e = bounding_extents([(4.0, 4.0)])
        assert e.width == pytest.approx(2 * DEGENERATE_AXIS_EPS, rel=1e-6)
        assert e.width > 0 and e.height > 0
        assert e.contains(Point2D(4.0, 4.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bounding_extents([])

    @given(_segments())
    @example(
        # a 17-row segment at offset 1 whose x minimum np.minimum.reduceat
        # takes as 0.0, where tight_extents keeps the last zero, -0.0
        (
            [5.0, 0.0, -0.0, 1.0, -0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, -0.0, 0.0, -0.0, 0.0,
             -0.0, -0.0, 1.0],
            [5.0] + [1.0] * 17,
            [1, 17],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_segment_boxes_have_tight_extents_bits(self, segments):
        xs, ys, sizes = (np.array(v) for v in segments)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        boxes = segment_extents(xs, ys, offsets)
        assert len(boxes) == len(sizes)
        for box, start, end in zip(boxes, offsets.tolist(), offsets[1:].tolist()):
            want = tight_extents(np.column_stack((xs[start:end], ys[start:end])))
            assert _hexes(box) == _hexes(want), (start, end)


class TestDefaultSmallestDimension:
    def test_scales_with_diagonal(self):
        assert default_smallest_dimension(UNIT) == pytest.approx(
            math.hypot(100.0, 100.0) * 1e-6
        )

    def test_floor_for_degenerate_data(self):
        tiny = bounding_extents([(5.0, 5.0), (5.0, 5.0)])
        got = default_smallest_dimension(tiny)
        assert got == 8 * DEGENERATE_AXIS_EPS
        # the floor must exceed the bins any grid lays over inflated extents
        assert got > tiny.width / 2

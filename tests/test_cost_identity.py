"""Pinned cost identity: sha256 digests of cost fields, nearest answers,
range answers, leaf sets and leaf boxes on fixed configurations.

Refactors of the engine must leave every digest unchanged; a deliberate
change to the search cost updates them and says so in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from hiergrid import (
    Extents,
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
    PointCollection,
    gaussian_points,
    sweep_cost,
    uniform_points,
)

# name: (dataset, divisions_x, divisions_y, max_bin_records or None for flat)
CONFIGS = {
    "uniform-flat-10x10": ("uniform", 10, 10, None),
    "uniform-hier-2x2-b1": ("uniform", 2, 2, 1),
    "gaussian-hier-10x10-b8": ("gaussian", 10, 10, 8),
    "gaussian-hier-7x5-b1": ("gaussian", 7, 5, 1),
}

PINNED = {
    "uniform-flat-10x10": {
        "sweep": "fce8d2d4b5b3e884dfd8978597fd87ca676fa3b4932ef6f16a0984bf5f4fccb8",
        "nearest": "e04a81e46dbe9d439010e9f212e1acdb9dc00a274e7d3e51e5a113f42aa9e499",
        "range": "c8174d1f8dea92cd4e730965876f5efa1f2b3d0ca371a97ac58dad001be69b9a",
        "boxes": "57950a856babe0a4e5fbaae0dd1a28dcc350b27d01083302e828b9b76f866aab",
    },
    "uniform-hier-2x2-b1": {
        "sweep": "ce9c141698f575a4d8e874bb4166f7b5aaacd15f1141953a94a27031bc1bb30d",
        "nearest": "4c68602612ea89e8e13eb23e5f25953d4098bb776480561ff40eecc52e0a68a1",
        "range": "fe2cf5db74d1a89ddc40c377df4d0cbc4aa3a023621b51fad063c6a760b9ec0b",
        "leaves": "d9aa6c8d6fe996f47406d22412cc525af8e91a53d8eadd775ef06f4f74a15cd2",
        "boxes": "b175689e872c31d5788bfcdf845037a3f2b6707bc7d47f2d8d09f71773f8a5e3",
    },
    "gaussian-hier-10x10-b8": {
        "sweep": "adfcfaf3f622261f6acfde87881568869986fcbc9137844267f30c56eb2605f1",
        "nearest": "e87d04baf8601fc403c840e1624b7b6e5ff33e142019ebecfcebf5e9426c5027",
        "range": "af8732289926f6c8d15a78262ca1e3b60b1f8bf1b263bfddd7cfd1b5b65f9070",
        "leaves": "7ed8f8dfafea17d45455780e18ffda040ede78283dd8b788cd81c301ba110214",
        "boxes": "31ec91429e0f7e2bfc25e87703a39c9850af01204ac7df1971c84a43950949b7",
    },
    "gaussian-hier-7x5-b1": {
        "sweep": "4f02abcaed2bef2b0c0f6b9564842056c298cff23a47b69a46f121b411b898c0",
        "nearest": "cc9102336cee29a5fb7ace8c7f9dacaa27a90fca09eba6091a603963c112273f",
        "range": "8a4454da866f0f1cadd71aaa85756251f21ae95765ce1207f680c9f152853932",
        "leaves": "790d3475cceca8979702e556b7243d1b073dcca44f0e1c94cfa9fc465f08dbf4",
        "boxes": "41a262b80030f63b3c899074902905d528e4868349677461260a2aa117f398f8",
    },
}


def build(name: str):
    dataset, dx, dy, bucket = CONFIGS[name]
    make = uniform_points if dataset == "uniform" else gaussian_points
    pts = make(5000, seed=42)
    if bucket is None:
        return GridIndex(pts, dx, dy)
    return HierGridIndex(pts, dx, dy, HierConfig(max_bin_records=bucket))


def digests(index) -> dict[str, str]:
    """sweep: a 64x64 cost field; nearest: (record, records_examined,
    short_circuit) of 400 random queries over twice the extents and of
    200 queries at record positions; leaves: the ids of every leaf, in
    leaf order; boxes: the root extents and every leaf rectangle, in leaf
    order, as float.hex, so a box that moves by one ulp shows."""
    out = {"sweep": hashlib.sha256(sweep_cost(index, 64, 64).costs.tobytes()).hexdigest()}
    ext = index.shape.extents.scaled(2.0)
    rng = np.random.default_rng(7)
    qs = rng.uniform((ext.min.x, ext.min.y), (ext.max.x, ext.max.y), (400, 2))
    qs = np.vstack([qs, index.source.positions[rng.integers(0, 5000, 200)]])
    h = hashlib.sha256()
    for x, y in qs.tolist():
        r = index.nearest(Point2D(x, y))
        h.update(f"{r.record} {r.records_examined} {int(r.short_circuit)}\n".encode())
    out["nearest"] = h.hexdigest()
    out["range"] = range_digest(index)
    if isinstance(index, HierGridIndex):
        h = hashlib.sha256()
        for _, ids in index.leaf_occupancies():
            h.update(f"{ids!r}\n".encode())
        out["leaves"] = h.hexdigest()
    out["boxes"] = box_digest(index)
    return out


def box_digest(index) -> str:
    """sha256 of float.hex of the root extents' corners, then of every leaf
    rectangle's corners in leaf order (a flat index has no leaves here)."""
    rects = [index.shape.extents]
    if isinstance(index, HierGridIndex):
        rects += [rect for rect, _ in index.leaf_occupancies()]
    h = hashlib.sha256()
    for r in rects:
        h.update(" ".join(v.hex() for v in (r.min.x, r.min.y, r.max.x, r.max.y)).encode() + b"\n")
    return h.hexdigest()


def range_digest(index) -> str:
    """sha256 of the range_query answers (repr of each list, so the element
    type counts too) for 350 rectangles: 200 between random corners over
    twice the extents, 100 with the min corner on a record and sides up to
    a fifth of the extents, and 50 with every edge on a root bin edge."""
    ext = index.shape.extents
    wide = ext.scaled(2.0)
    rng = np.random.default_rng(11)
    rects = []
    for _ in range(200):
        xs = rng.uniform(wide.min.x, wide.max.x, 2)
        ys = rng.uniform(wide.min.y, wide.max.y, 2)
        rects.append((xs.min(), ys.min(), xs.max(), ys.max()))
    pos = index.source.positions
    for rid, (w, h) in zip(rng.integers(0, 5000, 100), rng.uniform(0.0, 0.2, (100, 2))):
        x, y = pos[rid]
        rects.append((x, y, x + w * ext.width, y + h * ext.height))
    shape = index.shape
    for _ in range(50):
        i0, i1 = np.sort(rng.integers(0, shape.divisions_x + 1, 2))
        j0, j1 = np.sort(rng.integers(0, shape.divisions_y + 1, 2))
        rects.append((
            ext.min.x + i0 * shape.bin_width,
            ext.min.y + j0 * shape.bin_height,
            ext.min.x + i1 * shape.bin_width,
            ext.min.y + j1 * shape.bin_height,
        ))
    h = hashlib.sha256()
    for x0, y0, x1, y1 in rects:
        rect = Extents(Point2D(float(x0), float(y0)), Point2D(float(x1), float(y1)))
        h.update(f"{index.range_query(rect)!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_digests_unchanged(name):
    assert digests(build(name)) == PINNED[name]


def small_tree(name: str) -> HierGridIndex:
    """signed-zero-lattice: records on a 5x5 integer lattice whose zero
    coordinates are 0.0 or -0.0 at random, so level boxes end on a signed
    zero. overflow-1e200: a 2x2 b=1 tree over +-1e200, where squared
    distances overflow to inf and tie. floor-cluster: a tight cluster and 30
    duplicates inside a box a million wide, whose child level the size floor
    stops, leaving a child list of more than 24 records."""
    rng = np.random.default_rng(3)
    if name == "signed-zero-lattice":
        pts = rng.integers(-2, 3, (300, 2)).astype(np.float64)
        zeros = pts == 0.0
        pts[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        return HierGridIndex(PointCollection(pts), 2, 2, HierConfig(max_bin_records=4))
    if name == "overflow-1e200":
        pts = rng.uniform(-1e200, 1e200, (300, 2))
        return HierGridIndex(PointCollection(pts), 2, 2, HierConfig(max_bin_records=1))
    cluster = rng.uniform(500_000.0, 500_000.5, (40, 2))
    pts = np.vstack([[[0.0, 0.0], [1e6, 1e6]], cluster, [[500_000.25, 500_000.25]] * 30])
    return HierGridIndex(PointCollection(pts), 5, 5, HierConfig(max_bin_records=1))


def tree_digest(index) -> str:
    """sha256 over every level in walk order (root, then each child level's
    subtree in list order): its depth, its box and size floor as float.hex,
    each list's ids in first-seen order with whether the list has a child
    level, and each bin's filled owner as an index into those lists."""
    h = hashlib.sha256()

    def walk(state) -> None:
        ext = state.shape.extents
        box = (ext.min.x, ext.min.y, ext.max.x, ext.max.y, state.size_floor)
        h.update(f"{state.depth} {' '.join(v.hex() for v in box)}\n".encode())
        for lst in state.lists:
            h.update(f"{lst.ids!r} {int(lst.child is not None)}\n".encode())
        owner = {lst: k for k, lst in enumerate(state.lists)}
        h.update(" ".join(str(owner[lst]) for lst in state.bins).encode() + b"\n")
        for lst in state.lists:
            if lst.child is not None:
                walk(lst.child)

    walk(index.ensure_built())
    return h.hexdigest()


TREE_PINNED = {
    "uniform-flat-10x10": "853ccb0c26bb55a8a6a2050438386f315d6c3eb835dfab8541de83c92bea9be9",
    "uniform-hier-2x2-b1": "c639b430e9e30e63c2564a3dd34ac4af5fb79d0b54f817b34a95d1e7ed5e15f3",
    "gaussian-hier-10x10-b8": "58342eea2453f17ec4b37c31b911c501333259c1d1537cb01f31c8fcd069bb38",
    "gaussian-hier-7x5-b1": "39cfe6540eb16ff8f3af2f58bf288f49a620a32ed764452c3caebd7a3d813ed0",
    "signed-zero-lattice": "46290393291120bdee50dc85f2bf8c8986a80162d914c70518d974c4e5585a33",
    "overflow-1e200": "6cd54dfa35bdb405429cbe299ac15c168eaeee25e8806bc6427ab6ea137d9c3c",
    "floor-cluster": "557e9fdafeb6f28400e205861b55e4375d35b43778db117da660d59e19da24bb",
}


@pytest.mark.parametrize("name", list(TREE_PINNED))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_tree_unchanged(name):
    index = build(name) if name in CONFIGS else small_tree(name)
    assert tree_digest(index) == TREE_PINNED[name]

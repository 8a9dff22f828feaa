"""Pinned cost identity: sha256 digests of cost fields, nearest answers and
leaf sets on fixed configurations.

Refactors of the engine must leave every digest unchanged; a deliberate
change to the search cost updates them and says so in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from hiergrid import (
    GridIndex,
    HierConfig,
    HierGridIndex,
    Point2D,
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
    },
    "uniform-hier-2x2-b1": {
        "sweep": "ce9c141698f575a4d8e874bb4166f7b5aaacd15f1141953a94a27031bc1bb30d",
        "nearest": "4c68602612ea89e8e13eb23e5f25953d4098bb776480561ff40eecc52e0a68a1",
        "leaves": "d9aa6c8d6fe996f47406d22412cc525af8e91a53d8eadd775ef06f4f74a15cd2",
    },
    "gaussian-hier-10x10-b8": {
        "sweep": "adfcfaf3f622261f6acfde87881568869986fcbc9137844267f30c56eb2605f1",
        "nearest": "e87d04baf8601fc403c840e1624b7b6e5ff33e142019ebecfcebf5e9426c5027",
        "leaves": "7ed8f8dfafea17d45455780e18ffda040ede78283dd8b788cd81c301ba110214",
    },
    "gaussian-hier-7x5-b1": {
        "sweep": "4f02abcaed2bef2b0c0f6b9564842056c298cff23a47b69a46f121b411b898c0",
        "nearest": "cc9102336cee29a5fb7ace8c7f9dacaa27a90fca09eba6091a603963c112273f",
        "leaves": "790d3475cceca8979702e556b7243d1b073dcca44f0e1c94cfa9fc465f08dbf4",
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
    leaf order (rectangles are left out: the last column and row close at
    the extents' max, an ulp beyond min + n * bin_size on some levels)."""
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
    if isinstance(index, HierGridIndex):
        h = hashlib.sha256()
        for _, ids in index.leaf_occupancies():
            h.update(f"{ids!r}\n".encode())
        out["leaves"] = h.hexdigest()
    return out


@pytest.mark.parametrize("name", list(CONFIGS))
def test_digests_unchanged(name):
    assert digests(build(name)) == PINNED[name]

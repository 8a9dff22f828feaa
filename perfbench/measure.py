"""Statistics, digests and memory accounting shared by the workloads."""
from __future__ import annotations

import gc
import hashlib
import statistics
import sys
import types

import numpy as np

# Objects the index refers to but does not own: code, classes and modules
# exist before any build and are shared by every index.
_SHARED_TYPES = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
    types.MethodType,
)


def pct(samples, q: float) -> float:
    """q-th percentile (linear interpolation) of a non-empty sample list."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples) -> float:
    return float(statistics.median(samples))


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def floor_latency(passes, chunk: int = 0) -> tuple[float, float]:
    """(p50, p99) in microseconds of K operations timed on each of P passes.

    passes: P rows of K latencies in seconds, column k always operation k,
    columns in the order the calls ran. p50 is the median over operations
    of each one's fastest pass: what a call costs at the speed the machine
    reaches in its fastest moments. For p99, every call is divided by the
    median of its chunk of `chunk` consecutive calls (default: its whole
    pass); p99 is the 99th percentile of those ratios over every call,
    times p50. A short chunk runs at one machine speed, which cancels in
    the ratio, while any call that is slow relative to its neighbours (a
    slow path, periodic work, GC pressure) still counts.
    """
    lat = np.asarray(passes, dtype=np.float64) * 1e6
    p50 = float(np.percentile(lat.min(axis=0), 50))
    size = chunk or lat.shape[1]
    chunks = lat[:, : lat.shape[1] // size * size].reshape(-1, size)
    relative = chunks / np.median(chunks, axis=1, keepdims=True)
    return p50, p50 * float(np.percentile(relative, 99))


class Digest:
    """sha256 over a sequence of answers, one line per operation.

    Nearest answers contribute (record, records_examined); range answers
    their ascending ids; an operation that raised contributes its exception
    type, so a new exception changes the digest too.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def nearest(self, res) -> None:
        self._h.update(f"n {res.record} {res.records_examined}\n".encode())

    def range(self, ids) -> None:
        self._h.update(("r " + ",".join(map(str, ids)) + "\n").encode())

    def error(self, exc: BaseException) -> None:
        self._h.update(f"e {type(exc).__name__}\n".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def index_bytes(index, source) -> int:
    """Bytes of every object reachable from `index` that the source does not
    already hold: what the built index keeps alive.

    Walks gc referents from the index, counting each object once with
    sys.getsizeof (numpy arrays include the data they own), and stops at the
    source object, at code, classes and modules, and at interpreter
    singletons. On the configurations benchmarked this agrees with a
    tracemalloc before/after difference to within a few percent while
    costing a tenth of the time, which a 50k-record hierarchical build
    cannot afford under tracemalloc.
    """
    seen = {id(source), id(None), id(True), id(False)}
    stack = [index]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _SHARED_TYPES):
            continue
        if type(obj) is int and -5 <= obj <= 256:  # cached small ints
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total

"""Metric-space primitives: points, the point store and the instrumented
distance oracle.

All distance computation in the package funnels through :class:`DistanceOracle`
so that the evaluation counter is an exact, hardware-independent cost proxy.
The oracle has one kernel per shape: :meth:`DistanceOracle.matrix_between`
for blocks and :meth:`DistanceOracle.elementwise` for aligned pairs. Each
applies the custom-metric check, the offset and the same-id zeroing for its
shape, and every other distance (``distance``, ``pairwise``, the 2*radius
check of ``integrity_check``) is a call to one of them. Each bumps the
counter by the number of pairs it touches; diagnostics may opt out with
``count=False``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

PointId = int

# Chunk size (rows) for batched distance matrices, bounds transient memory.
_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Point:
    """An element of the space: opaque unique id plus a coordinate vector."""

    id: PointId
    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError(f"point {self.id}: coords must be a flat vector")
        if not np.all(np.isfinite(coords)):
            raise ValueError(f"point {self.id}: coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def points_from_array(rows: np.ndarray, start_id: int = 0) -> list[Point]:
    """Wrap a (n, d) array as points with ids start_id..start_id+n-1."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return [Point(start_id + i, rows[i]) for i in range(rows.shape[0])]


class PointStore:
    """Live points of one space plus a contiguous coordinate matrix.

    The matrix lets callers gather coordinates for many ids with one fancy
    index instead of stacking per-point arrays. Rows of removed points are
    reused by later inserts, so the matrix grows with the live count, not
    with the number of inserts; ids are never reused while a point is live.
    """

    def __init__(self) -> None:
        self.dim: Optional[int] = None
        self._points: dict[PointId, Point] = {}
        self._rows: dict[PointId, int] = {}
        self._matrix: Optional[np.ndarray] = None
        self._used = 0
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, pid: PointId) -> bool:
        return pid in self._points

    def add(self, point: Point) -> None:
        if point.id in self._points:
            raise ValueError(f"point id {point.id} already present")
        if self.dim is None:
            self.dim = point.dim
            self._matrix = np.empty((16, self.dim), dtype=np.float64)
        elif point.dim != self.dim:
            raise ValueError(
                f"point {point.id} has dimension {point.dim}, space has {self.dim}"
            )
        assert self._matrix is not None
        if self._free:
            row = self._free.pop()
        else:
            if self._used == self._matrix.shape[0]:
                grown = np.empty((2 * self._used, self.dim), dtype=np.float64)
                grown[: self._used] = self._matrix
                self._matrix = grown
            row = self._used
            self._used += 1
        self._matrix[row] = point.coords
        self._rows[point.id] = row
        self._points[point.id] = point

    def remove(self, pid: PointId) -> None:
        del self._points[pid]
        self._free.append(self._rows.pop(pid))

    def get(self, pid: PointId) -> Point:
        return self._points[pid]

    def ids_sorted(self) -> list[PointId]:
        return sorted(self._points)

    def points_sorted(self) -> list[Point]:
        return [self._points[i] for i in self.ids_sorted()]

    def coords_for(self, ids: Sequence[PointId] | np.ndarray) -> np.ndarray:
        """Gather coordinates for the given ids as an (len(ids), dim) matrix."""
        if self._matrix is None:
            return np.empty((0, 0), dtype=np.float64)
        keys = ids.tolist() if isinstance(ids, np.ndarray) else ids
        rows = np.fromiter(
            map(self._rows.__getitem__, keys), dtype=np.int64, count=len(ids)
        )
        return self._matrix[rows]


class DistanceOracle:
    """Distance evaluation with an additive offset and an evaluation counter.

    The base metric is Euclidean L2 over coordinates unless a symmetric
    callable ``base(coords_a, coords_b) -> float`` is supplied. The offset is
    added to every distinct-id pair; same-id pairs are exactly zero. Costs
    apply the exponent of the working dissimilarity d^p at evaluation sites.

    Immutable after construction except the counter; confine each oracle to
    one thread of control when counts matter.
    """

    def __init__(
        self,
        offset: float = 0.0,
        base: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
    ) -> None:
        if offset < 0.0:
            raise ValueError("offset must be nonnegative")
        self.offset = float(offset)
        self.base = base
        self.evals = 0

    def distance(self, x: Point, y: Point) -> float:
        """d(x, y): a one-pair call to :meth:`elementwise`."""
        return float(self.elementwise(x.coords[None], [x.id], y.coords[None], [y.id])[0])

    def matrix_between(
        self,
        a_coords: np.ndarray,
        a_ids: Optional[Sequence[PointId]],
        b_coords: np.ndarray,
        b_ids: Optional[Sequence[PointId]],
        count: bool = True,
    ) -> np.ndarray:
        """Full distance matrix between two coordinate blocks.

        Counts ``len(a) * len(b)`` evaluations unless ``count=False`` (used by
        read-only diagnostics so they do not distort cost measurements).

        Euclidean entries are pinned to this sequence of float64 operations,
        with ``a2[i] = einsum("ij,ij->i")`` over rows of ``a``, ``b2[j]``
        likewise over ``b``, and ``g = a[lo:hi] @ b.T`` taken in row chunks
        of ``_CHUNK_ROWS``::

            sqrt(max((a2[i] + b2[j]) - 2 * g[i, j], 0)) + offset

        (the offset add is skipped when it is zero). The kernel adds
        ``b2[j] + a2[i]``, which is the same float because addition
        commutes, and applies each step in place. The row chunking is part
        of the contract, because BLAS may round a product of another shape
        differently. When ``a`` and ``b`` share memory, ``b`` is copied
        first, so the result does not depend on buffer identity (numpy
        computes ``x @ x.T`` of one buffer with a symmetric kernel that
        rounds differently). Pairs whose ids are equal are then set to
        exactly 0; without both id sequences no pair is zeroed.

        Before any product is formed, ``ValueError`` is raised when
        ``2 * (max a2 + max b2)`` is not finite: every term of the expansion
        is bounded by it, so below that no step overflows.

        A custom ``base`` must return a finite value >= 0 for every pair;
        anything else raises ``ValueError`` naming the pair (by id when ids
        are given, else by row positions).
        """
        a = np.asarray(a_coords, dtype=np.float64)
        b = np.asarray(b_coords, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ValueError("coordinate blocks must be 2-D with equal dimension")
        n, c = a.shape[0], b.shape[0]
        if count:
            self.evals += n * c
        out = np.empty((n, c), dtype=np.float64)
        if self.base is None:
            if np.may_share_memory(a, b):
                b = b.copy()
            a_sq = np.einsum("ij,ij->i", a, a)
            b_sq = np.einsum("ij,ij->i", b, b)
            if n and c and not math.isfinite(2.0 * (a_sq.max() + b_sq.max())):
                raise ValueError(
                    "coordinates overflow float64 in the Euclidean kernel: "
                    "2 * (max|a|^2 + max|b|^2) is not finite"
                )
            for lo in range(0, n, _CHUNK_ROWS):
                hi = min(lo + _CHUNK_ROWS, n)
                blk = a[lo:hi]
                sq = out[lo:hi]
                sq[...] = b_sq
                sq += a_sq[lo:hi, None]
                twice = blk @ b.T
                twice *= 2.0
                sq -= twice
                np.clip(sq, 0.0, None, out=sq)
                np.sqrt(sq, out=sq)
                if self.offset:
                    sq += self.offset
        else:
            for i in range(n):
                for j in range(c):
                    out[i, j] = self.base(a[i], b[j])
            _check_custom(out, a_ids, b_ids)
            if self.offset:
                out += self.offset
        if a_ids is not None and b_ids is not None:
            rows, cols = _same_id_pairs(a_ids, b_ids, n, c)
            out[rows, cols] = 0.0
        return out

    def elementwise(
        self,
        a_coords: np.ndarray,
        a_ids: Optional[Sequence[PointId]],
        b_coords: np.ndarray,
        b_ids: Optional[Sequence[PointId]],
        count: bool = True,
    ) -> np.ndarray:
        """Vector of d(a[i], b[i]) over two aligned coordinate blocks: the
        aligned-pair twin of :meth:`matrix_between`.

        Counts ``len(a)`` evaluations unless ``count=False``. Euclidean
        entries are the direct-difference norm
        ``np.linalg.norm(a - b, axis=1)``, plus the offset when it is
        nonzero. A custom ``base`` is checked as in :meth:`matrix_between`.
        Pairs whose ids are equal are then set to exactly 0; without both id
        sequences no pair is zeroed.
        """
        a = np.asarray(a_coords, dtype=np.float64)
        b = np.asarray(b_coords, dtype=np.float64)
        if a.ndim != 2 or a.shape != b.shape:
            raise ValueError("coordinate blocks must be 2-D with equal shape")
        n = a.shape[0]
        if count:
            self.evals += n
        if self.base is None:
            d = np.linalg.norm(a - b, axis=1)
        else:
            d = np.array([self.base(a[i], b[i]) for i in range(n)], dtype=np.float64)
            _check_custom(d, a_ids, b_ids)
        if self.offset:
            d += self.offset
        if a_ids is not None and b_ids is not None:
            ia = np.asarray(a_ids, dtype=np.int64)
            ib = np.asarray(b_ids, dtype=np.int64)
            if ia.shape != (n,) or ib.shape != (n,):
                raise ValueError("id sequences must match the coordinate blocks")
            d[ia == ib] = 0.0
        return d

    def pairwise(
        self, xs: Sequence[Point], ys: Sequence[Point], count: bool = True
    ) -> np.ndarray:
        """Distance matrix between two point sequences, in the given order."""
        if len(xs) == 0 or len(ys) == 0:
            if count:
                self.evals += len(xs) * len(ys)
            return np.empty((len(xs), len(ys)), dtype=np.float64)
        a = np.stack([p.coords for p in xs])
        b = np.stack([p.coords for p in ys])
        return self.matrix_between(
            a, [p.id for p in xs], b, [p.id for p in ys], count=count
        )


def _check_custom(
    values: np.ndarray,
    a_ids: Optional[Sequence[PointId]],
    b_ids: Optional[Sequence[PointId]],
) -> None:
    """Raise when a custom metric returned a non-finite or negative value;
    ``values`` is a matrix, or a vector of aligned pairs."""
    bad = ~(np.isfinite(values) & (values >= 0.0))
    if not bad.any():
        return
    where = np.argwhere(bad)[0]
    i, j = int(where[0]), int(where[-1])
    if a_ids is not None and b_ids is not None:
        pair = f"points {a_ids[i]} and {b_ids[j]}"
    else:
        pair = f"rows {i} and {j}"
    raise ValueError(f"custom metric returned {float(values[tuple(where)])!r} for {pair}")


def _same_id_pairs(
    a_ids: Sequence[PointId], b_ids: Sequence[PointId], n: int, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column positions of every pair with equal ids, found by
    binary search in the sorted column ids instead of an n x c comparison;
    ids may repeat within either sequence."""
    ia = np.asarray(a_ids, dtype=np.int64)
    ib = np.asarray(b_ids, dtype=np.int64)
    if ia.shape != (n,) or ib.shape != (c,):
        raise ValueError("id sequences must match the coordinate blocks")
    order = np.argsort(ib, kind="stable")
    sorted_ids = ib[order]
    first = np.searchsorted(sorted_ids, ia, side="left")
    counts = np.searchsorted(sorted_ids, ia, side="right") - first
    rows = np.repeat(np.arange(n), counts)
    # the matches of row i are order[first[i] : first[i] + counts[i]]
    starts = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return rows, order[starts + np.arange(rows.shape[0])]

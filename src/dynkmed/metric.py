"""Metric-space primitives: points, the point store and the instrumented
distance oracle.

All distance computation in the package funnels through :class:`DistanceOracle`
so that the evaluation counter is an exact, hardware-independent cost proxy.
The oracle has one kernel per shape: :meth:`DistanceOracle.matrix_between`
for blocks and :meth:`DistanceOracle.elementwise` for aligned pairs. Each
takes coordinate arrays and optional ids, applies the custom-metric check,
the offset and the same-id zeroing for its shape, and bumps the counter by
the number of pairs it touches; the aligned-pair kernel of diagnostics (the
2*radius check of ``integrity_check``) may opt out with ``count=False``.
Callers that need only row minima (cover rounds, the live-set cost) take
``matrix_between(..., squared=True)`` and reduce it with ``nearest`` or
``row_min``, which take square roots of n row minima only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

PointId = int


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
    """Live points of one space as rows of a contiguous coordinate matrix.

    Each live point is one row of ``matrix``, and nothing else: callers
    gather coordinates for many points with one fancy index, ``row_ids``
    maps each row in use back to its point id, and :meth:`get` builds a
    :class:`Point` from a copy of its row. Rows of removed points are reused
    by later inserts, so both grow with the live count, not with the number
    of inserts; ids are never reused while a point is live.
    """

    def __init__(self) -> None:
        self.dim: Optional[int] = None
        self._rows: dict[PointId, int] = {}
        self.matrix = np.empty((0, 0), dtype=np.float64)
        self.row_ids = np.empty(0, dtype=np.int64)
        self._used = 0
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, pid: PointId) -> bool:
        return pid in self._rows

    def add(self, point: Point) -> int:
        """Store a point and return its row."""
        self._check(point, (), self.dim)
        row = self._free.pop() if self._free else self._fresh_rows(point.dim, 1)[0]
        self.matrix[row] = point.coords
        self.row_ids[row] = point.id
        self._rows[point.id] = row
        return row

    def add_many(self, points: Sequence[Point]) -> np.ndarray:
        """Store points as one :meth:`add` each would (same rows, ``row_ids``
        and matrix), raising any error before the first is stored."""
        if not points:
            return np.empty(0, dtype=np.int64)
        ids = [q.id for q in points]
        dim = points[0].dim if self.dim is None else self.dim
        if (len(set(ids)) < len(ids) or not self._rows.keys().isdisjoint(ids)
                or {q.coords.shape[0] for q in points} != {dim}):
            seen: set[PointId] = set()
            for point in points:  # raise what the first failing add would
                self._check(point, seen, dim)
                seen.add(point.id)
        reused = [self._free.pop() for _ in range(min(len(points), len(self._free)))]
        fresh = self._fresh_rows(dim, len(points) - len(reused))
        rows = np.array(reused + list(fresh), dtype=np.int64)
        self.matrix[rows] = np.array([q.coords for q in points])
        self.row_ids[rows] = ids
        self._rows.update(zip(ids, rows.tolist()))
        return rows

    def _check(self, point: Point, seen, dim: Optional[int]) -> None:
        if point.id in self._rows or point.id in seen:
            raise ValueError(f"point id {point.id} already present")
        if dim is not None and point.dim != dim:
            raise ValueError(f"point {point.id} has dimension {point.dim}, space has {dim}")

    def _fresh_rows(self, dim: int, count: int) -> range:
        """Take ``count`` never-used rows, doubling the capacity from 16 until
        they fit; the first call sets the dimension."""
        if self.dim is None:
            self.dim, self.matrix = dim, np.empty((0, dim))
        start, size = self._used, max(16, self.matrix.shape[0])
        self._used += count
        while size < self._used:
            size *= 2
        grow = size - self.matrix.shape[0]
        if grow:
            self.matrix = np.concatenate([self.matrix, np.empty((grow, dim))])
            self.row_ids = np.concatenate([self.row_ids, np.empty(grow, dtype=np.int64)])
        return range(start, self._used)

    def remove(self, pid: PointId) -> None:
        self._free.append(self._rows.pop(pid))

    def get(self, pid: PointId) -> Point:
        return Point(pid, self.matrix[self._rows[pid]].copy())

    def row(self, pid: PointId) -> int:
        return self._rows[pid]

    def rows_by_id(self) -> np.ndarray:
        """Rows of the live points, in ascending id order."""
        rows = np.delete(np.arange(self._used), self._free)
        return rows[np.argsort(self.row_ids[rows])]


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

    def matrix_between(
        self,
        a_coords: np.ndarray,
        a_ids: Optional[Sequence[PointId]],
        b_coords: np.ndarray,
        b_ids: Optional[Sequence[PointId]],
        squared: bool = False,
    ) -> np.ndarray:
        """Full distance matrix between two coordinate blocks; counts
        ``len(a) * len(b)`` evaluations.

        Euclidean entries come from one matrix product on blocks centered
        on ``mu = b.mean(axis=0)``. With ``u = a - mu``, ``v = b - mu`` and
        their squared row norms ``u2``, ``v2`` by ``einsum("ij,ij->i")``::

            out = matmul([u, 1, u2], [-2.0 * v, v2, 1].T)

        then, in place, ``maximum(out, 0)``, ``sqrt`` and a nonzero offset.
        Pairs with equal ids are then set to exactly 0 (only when both id
        sequences are given).

        Centering makes the rounding error scale with the squared distance
        of the rows from ``mu``, not from the origin. One call over whole
        blocks needs no row chunking: the operands add only
        ``(n + c) * (d + 2)`` values to the output. They are new arrays, so
        the result does not depend on whether ``a`` and ``b`` share memory.

        Before the product, ``ValueError`` is raised when
        ``2 * (max u2 + max v2)`` is not finite: every term of the product is
        bounded by it, so below that no step overflows.

        A custom ``base`` must return a finite value >= 0 for every pair;
        anything else raises ``ValueError`` naming the pair (by id when ids
        are given, else by row positions).

        ``squared=True`` returns the input of :meth:`nearest` and
        :meth:`row_min`, with the same count: Euclidean entries stop at the
        product, custom ones are distances, and same-id pairs are ``-inf``.
        """
        a = np.asarray(a_coords, dtype=np.float64)
        b = np.asarray(b_coords, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ValueError("coordinate blocks must be 2-D with equal dimension")
        n, c = a.shape[0], b.shape[0]
        self.evals += n * c
        out = np.empty((n, c), dtype=np.float64)
        if self.base is not None:
            for i in range(n):
                for j in range(c):
                    out[i, j] = self.base(a[i], b[j])
            _check_custom(out, a_ids, b_ids)
            if self.offset:
                out += self.offset
        elif n and c:
            d = a.shape[1]
            left = np.empty((n, d + 2))
            right = np.empty((c, d + 2))
            with np.errstate(over="ignore", invalid="ignore"):
                mu = b.mean(axis=0)
                u = np.subtract(a, mu, out=left[:, :d])
                v = np.subtract(b, mu, out=right[:, :d])
                left[:, d + 1] = np.einsum("ij,ij->i", u, u)
                right[:, d] = np.einsum("ij,ij->i", v, v)
                if not math.isfinite(2.0 * (left[:, d + 1].max() + right[:, d].max())):
                    raise ValueError(
                        "coordinates overflow float64 in the Euclidean kernel: "
                        "2 * (max|a-mu|^2 + max|b-mu|^2) is not finite"
                    )
            v *= -2.0
            left[:, d] = 1.0
            right[:, d + 1] = 1.0
            np.matmul(left, right.T, out=out)
            if not squared:
                self._root(out, out=out)
        if a_ids is not None and b_ids is not None:
            rows, cols = _same_id_pairs(a_ids, b_ids, n, c)
            out[rows, cols] = -np.inf if squared else 0.0
        return out

    def _root(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Euclidean distances of product entries: sqrt(max(x, 0)) + offset."""
        out = np.maximum(x, 0.0, out=out)
        np.sqrt(out, out=out)
        if self.offset:
            out += self.offset
        return out

    def _distances(self, x: np.ndarray) -> np.ndarray:
        """Distances of ``squared=True`` entries; -inf (same ids) is 0."""
        d = self._root(x) if self.base is None else x.copy()
        d[x == -np.inf] = 0.0
        return d

    def nearest(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's first-minimum column and its distance, bit for bit as
        over the distances, from a ``squared=True`` result ``x``. The distance
        is monotone in ``x``, so it is only reduced again over the rows whose
        second-smallest entry of ``x`` rounds to the same distance as the
        smallest (distinct entries can, and so can a same-id -inf and a 0)."""
        cols, low, second = _nearest_two(x)
        dmin = self._distances(low)
        tied = np.flatnonzero(self._distances(second) <= dmin)
        if tied.shape[0]:
            cols[tied], dmin[tied] = _nearest_two(self._distances(x[tied]))[:2]
        return cols, dmin

    def row_min(self, x: np.ndarray) -> np.ndarray:
        """Each row's minimum distance from a ``squared=True`` result: the
        distance of the row minimum of ``x``, taken column by column."""
        low = x[:, 0].copy()
        for j in range(1, x.shape[1]):
            np.minimum(low, x[:, j], out=low)
        return self._distances(low)

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
        nonzero; ``ValueError`` is raised, as in :meth:`matrix_between`,
        when an entry overflows. A custom ``base`` is checked as in
        :meth:`matrix_between`. Pairs whose ids are equal are then set to
        exactly 0; without both id sequences no pair is zeroed.
        """
        a = np.asarray(a_coords, dtype=np.float64)
        b = np.asarray(b_coords, dtype=np.float64)
        if a.ndim != 2 or a.shape != b.shape:
            raise ValueError("coordinate blocks must be 2-D with equal shape")
        n = a.shape[0]
        if count:
            self.evals += n
        if self.base is None:
            with np.errstate(over="ignore"):
                d = np.linalg.norm(a - b, axis=1)
            if not np.isfinite(d).all():
                raise ValueError("coordinates overflow float64 in the Euclidean kernel")
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


def _nearest_two(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a block (restored on return): the first minimum's column,
    the minimum, and the second-smallest entry (``inf`` with one column)."""
    rows = np.arange(x.shape[0])
    cols = np.argmin(x, axis=1)
    low = x[rows, cols]
    x[rows, cols] = np.inf
    second = x[rows, np.argmin(x, axis=1)]  # argmin beats min(axis=1) on short rows
    x[rows, cols] = low
    return cols, low, second


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

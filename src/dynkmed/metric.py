"""Metric-space primitives: points, the point store and the instrumented
distance oracle.

All distance computation in the package funnels through :class:`DistanceOracle`
so that the evaluation counter is an exact, hardware-independent cost proxy.
The oracle has one kernel per shape: :meth:`DistanceOracle.matrix_between`
for blocks and :meth:`DistanceOracle.elementwise` for aligned pairs. Each
takes coordinate arrays only and applies the custom-metric check and the
offset for its shape; which pairs are a point with itself, at distance 0, is
the caller's to mark by position. Only the block kernel bumps the counter, by
the pairs it touches: the aligned-pair kernel serves the 2*radius check of
``integrity_check``, and diagnostics count nothing. The block kernel has one
form: coordinate rows against a block made once by ``prepare``, returning
the kernel's product. Cover rounds and the live-set cost take it over chunks
of :func:`chunk_rows` rows and reduce each with ``nearest`` or ``row_min``;
the query finishes the entries it reads. Only the oracle knows what a
product entry means: ``_root`` maps it to a distance and ``_entry`` back.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

PointId = int
_MARGIN = 1.0 + 2.0 ** -20  # the relative slop of DistanceOracle._entry
_CHUNK_ENTRIES = 1 << 18    # entries of a chunk_rows block: 2 MB of float64


class PowerOverflowError(ValueError):
    """Coordinates, distances to the power p, or their weighted sums overflow float64."""


@dataclass(frozen=True, eq=False)
class Point:
    """An element of the space: opaque unique id plus a coordinate vector."""

    id: PointId
    coords: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.id, bool) or not (isinstance(self.id, numbers.Integral) and -2**63 <= self.id < 2**63):
            raise ValueError(f"point id must be an integer that fits in int64, got {self.id!r}")
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError(f"point {self.id}: coords must be a flat vector")
        if not np.all(np.isfinite(coords)):
            raise ValueError(f"point {self.id}: coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def points_from_array(rows: np.ndarray) -> list[Point]:
    """Wrap a (n, d) array as points with ids 0..n-1."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return [Point(i, rows[i]) for i in range(rows.shape[0])]


class PointStore:
    """Live points of one space as rows of a contiguous coordinate matrix.

    Each live point is one row of ``matrix``, and nothing else: callers
    gather coordinates for many points with one fancy index, ``row_ids``
    maps each row in use back to its point id, and :meth:`get` builds a
    :class:`Point` from a copy of its row. ``slot`` is its owner's int64 per
    row: the store grows it with the rows, -1 in each new one, and the owner
    writes every other value. Rows of removed points are reused by later
    inserts, so the arrays grow with the live count, not with the number of
    inserts; ids are never reused while a point is live.
    """

    def __init__(self) -> None:
        self.dim: Optional[int] = None
        self._rows: dict[PointId, int] = {}
        self.matrix = np.empty((0, 0), dtype=np.float64)
        self.row_ids = np.empty(0, dtype=np.int64)
        self.slot = np.empty(0, dtype=np.int64)
        self._used = 0
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def used(self) -> int:
        """Rows handed out so far, live or free: every row in use is below it."""
        return self._used

    def __contains__(self, pid: PointId) -> bool:
        return pid in self._rows

    def add(self, point: Point) -> int:
        """Store a point and return its row."""
        if point.id in self._rows or len(point.coords) != self.dim:  # _check passes a first point
            self._check(point, (), self.dim)
        row = self._free.pop() if self._free else self._fresh_rows(point.dim, 1)[0]
        self.matrix[row] = point.coords
        self.row_ids[row] = point.id
        self._rows[point.id] = row
        return row

    def add_many(self, points: Sequence[Point]) -> np.ndarray:
        """Store points as one :meth:`add` each would (same rows, ``row_ids``
        and matrix), raising any error before the first is stored.

        A batch costs one ``np.concatenate`` of the coordinates and one
        ``np.arange`` of fresh rows besides the per-id work. The block comes
        after ``_fresh_rows`` grows the matrix: before it, it raised the peak
        RSS of the benchmark's ``wide-kmeans`` workload by about 3 MB."""
        if not points:
            return np.empty(0, dtype=np.int64)
        ids = [q.id for q in points]
        coords = [q.coords for q in points]
        unique = set(ids)
        dim = points[0].dim if self.dim is None else self.dim
        if (len(unique) < len(ids) or not self._rows.keys().isdisjoint(unique)
                or set(map(len, coords)) != {dim}):
            seen: set[PointId] = set()
            for point in points:  # raise what the first failing add would
                self._check(point, seen, dim)
                seen.add(point.id)
        reused = [self._free.pop() for _ in range(min(len(points), len(self._free)))]
        fresh = self._fresh_rows(dim, len(points) - len(reused))
        rows = np.concatenate((np.array(reused, dtype=np.int64), np.arange(fresh.start, fresh.stop)))
        self.matrix[rows] = np.concatenate(coords).reshape(len(points), dim)
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
        if size > self.matrix.shape[0]:  # copy only the rows handed out
            matrix, row_ids, slot = np.empty((size, dim)), np.empty(size, np.int64), np.full(size, -1, np.int64)
            matrix[:start], row_ids[:start] = self.matrix[:start], self.row_ids[:start]
            slot[:start] = self.slot[:start]
            self.matrix, self.row_ids, self.slot = matrix, row_ids, slot
        return range(start, self._used)

    def remove(self, pid: PointId) -> int:
        self._free.append(row := self._rows.pop(pid))  # row_ids and matrix keep the row
        return row

    def get(self, pid: PointId) -> Point:
        return Point(pid, self.matrix[self._rows[pid]].copy())

    def row(self, pid: PointId) -> int:
        return self._rows[pid]

    def rows_by_id(self) -> np.ndarray:
        """Rows of the live points, in ascending id order."""
        rows = np.delete(np.arange(self._used), self._free)
        return rows[self.row_ids[rows].argsort(kind="stable")]  # ids are distinct


class Prepared(NamedTuple):
    """Block ``b`` made by ``DistanceOracle.prepare``; ``_replace(rows=rows[lo:])`` keeps its ``mu``."""

    rows: np.ndarray                  # Euclidean: [-2v, v2, 1]; custom: the coordinates
    mu: Optional[np.ndarray] = None
    top: float = 0.0                  # the largest v2


class DistanceOracle:
    """Distance evaluation with an additive offset and an evaluation counter.

    The base metric is Euclidean L2 over coordinates unless a symmetric
    callable ``base(coords_a, coords_b) -> float`` is supplied. The offset is
    added to every pair the kernels compute, a point's pair with itself
    included: callers that pair a point with itself set that distance to 0.
    Costs apply the exponent of the working dissimilarity d^p at evaluation
    sites.

    Immutable after construction except the counter; confine each oracle to
    one thread of control when counts matter.
    """

    def __init__(
        self,
        offset: float = 0.0,
        base: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
    ) -> None:
        if not 0.0 <= offset < math.inf:
            raise ValueError(f"offset must be finite and nonnegative, got {offset!r}")
        self.offset = float(offset)
        self.base = base
        self.evals = 0

    def prepare(self, b: np.ndarray) -> Prepared:
        """Coordinate block ``b`` made once into what :meth:`matrix_between` reads of it."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2:
            raise ValueError("coordinate blocks must be 2-D with equal dimension")
        if self.base is not None:
            return Prepared(b)
        rows = np.empty((b.shape[0], b.shape[1] + 2))
        v = rows[:, :-2]
        with np.errstate(over="ignore", invalid="ignore"):
            mu = np.add.reduce(b, 0) / b.shape[0]
            v2 = np.einsum("ij,ij->i", np.subtract(b, mu, out=v), v)
            v *= -2.0  # overflows only where v2 does, which matrix_between refuses
        rows[:, -2], rows[:, -1] = v2, 1.0
        return Prepared(rows, mu, np.maximum.reduce(v2, initial=0.0))

    def matrix_between(self, a: np.ndarray, b: Prepared, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The kernel's product of coordinate block ``a`` against ``b``, made by
        :meth:`prepare`: counts ``len(a) * len(b.rows)`` evaluations and returns
        that block, into ``out`` when given, for :meth:`_root` to finish.

        Euclidean entries come from one matrix product on blocks centered on
        ``mu = np.add.reduce(b, 0) / c``. With ``u = a - mu``, ``v = b - mu`` and
        their rows' sums of squares ``u2``, ``v2`` by ``einsum("ij,ij->i")``::

            out = matmul([u, 1, u2], [-2.0 * v, v2, 1].T)

        Centering makes the rounding error scale with ``|x - mu|^2`` over the
        rows ``x``, not with ``|x|^2``. ``mu`` is ``b``'s alone, so
        calls on row chunks of ``a`` (:func:`chunk_rows`) give the one call's
        rows where the BLAS reproduces the row split. The operands are new arrays,
        so the result does not depend on whether ``a`` and ``b`` share memory.

        Before the product, :class:`PowerOverflowError` is raised when
        ``2 * (max u2 + max v2)`` is not finite: every term of the product is
        bounded by it, so below that no step overflows.

        A custom ``base`` must return a finite value >= 0 for every pair;
        anything else raises ``ValueError`` naming the two coordinate rows
        it was called with. Its entries are the distances plus the offset.
        """
        if not isinstance(b, Prepared):
            raise ValueError("matrix_between reads b as made by DistanceOracle.prepare(b)")
        a = np.asarray(a, dtype=np.float64)
        d = b.rows.shape[1] - (0 if b.mu is None else 2)
        if a.ndim != 2 or a.shape[1] != d:
            raise ValueError("coordinate blocks must be 2-D with equal dimension")
        n, c = a.shape[0], b.rows.shape[0]
        self.evals += n * c
        out = np.empty((n, c), dtype=np.float64) if out is None else out
        if self.base is not None:
            for i in range(n):
                for j in range(c):
                    out[i, j] = self.base(a[i], b.rows[j])
            _check_custom(out, a, b.rows)
            if self.offset:
                out += self.offset
        elif n and c:
            left = np.empty((n, d + 2))  # the rows [u, 1, u2]
            u = left[:, :d]
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(a, b.mu, out=u)
                u2 = np.einsum("ij,ij->i", u, u)
                if not math.isfinite(2.0 * (np.maximum.reduce(u2) + b.top)):
                    raise PowerOverflowError("coordinates overflow float64 in the Euclidean kernel: "
                                             "2 * (max|a-mu|^2 + max|b-mu|^2) is not finite")
            left[:, d], left[:, d + 1] = 1.0, u2
            np.matmul(left, b.rows.T, out=out)
        return out

    def _root(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Distances of the kernel's product entries, into ``out`` (``None`` or ``x``):
        Euclidean ones are sqrt(max(x, 0)) + offset, custom ones a copy or ``x``."""
        if self.base is not None:
            return x.copy() if out is None else x
        out = np.maximum(x, 0.0, out=out)
        np.sqrt(out, out=out)
        if self.offset:
            out += self.offset
        return out

    def _entry(self, d: float) -> float:
        """T, the product entry bound of distance ``d``: :meth:`_root`
        inverted with ``_MARGIN`` at each end, ``e = max(d * _MARGIN - offset, 0)``
        then ``e * (e * _MARGIN)`` (``d * _MARGIN`` if custom), plus the smallest
        normal. The margin is far above the ulps ``sqrt``, ``+ offset`` and ``** p``
        round by, so entries >= T finish at or above ``d ** p``."""
        if self.base is not None:
            return d * _MARGIN + 2.0 ** -1022
        e = max(d * _MARGIN - self.offset, 0.0)
        return e * (e * _MARGIN) + 2.0 ** -1022

    def nearest(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's first-minimum column and its distance, bit for bit as
        over the distances, from the kernel's product ``x``. The distance
        is monotone in ``x``, so the row minimum's is the least, and only the
        column is found again, over the rows whose second-smallest entry of
        ``x`` rounds to the same distance as the smallest, as distinct entries can."""
        cols, low, second = _nearest_two(x)
        dmin, second = self._root(np.concatenate((low, second))).reshape(2, -1)
        tied = (second <= dmin).nonzero()[0]
        if tied.shape[0]:
            cols[tied] = self._root(x[tied]).argmin(1)
        return cols, dmin

    def row_min(self, x: np.ndarray) -> np.ndarray:
        """Each row's minimum distance from the kernel's product: the
        distance of the row minimum of ``x``, taken column by column."""
        low = x[:, 0].copy()
        for j in range(1, x.shape[1]):
            np.minimum(low, x[:, j], out=low)
        return self._root(low)

    def elementwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vector of d(a[i], b[i]) over two aligned coordinate blocks: the
        aligned-pair twin of :meth:`matrix_between`, for diagnostics.

        Leaves the evaluation counter as it was. Euclidean entries are the
        direct-difference norm ``np.linalg.norm(a - b, axis=1)``, plus the
        offset when it is nonzero; :class:`PowerOverflowError` is raised, as
        in :meth:`matrix_between`, when an entry overflows. A custom ``base`` is
        checked as in :meth:`matrix_between`.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or a.shape != b.shape:
            raise ValueError("coordinate blocks must be 2-D with equal shape")
        n = a.shape[0]
        if self.base is None:
            with np.errstate(over="ignore"):
                d = np.linalg.norm(a - b, axis=1)
            if not np.isfinite(d).all():
                raise PowerOverflowError("coordinates overflow float64 in the Euclidean kernel")
        else:
            d = np.array([self.base(a[i], b[i]) for i in range(n)], dtype=np.float64)
            _check_custom(d, a, b)
        if self.offset:
            d += self.offset
        return d


def chunk_rows(c: int) -> int:
    """Rows per chunk against ``c`` columns: the largest multiple of 768 within ``_CHUNK_ENTRIES``, or 768."""
    return max(1, _CHUNK_ENTRIES // (768 * c)) * 768


def _nearest_two(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a block of any layout, left as it was: the first minimum's
    column, the minimum, and the second-smallest entry (``inf`` with one column)."""
    x = x if x.flags.c_contiguous else x.copy()
    cols, base = x.argmin(1), np.arange(0, x.size, x.shape[1])
    flat, at = x.reshape(-1), base + cols
    low = flat[at]
    flat[at] = np.inf
    second = flat[base + x.argmin(1)]  # argmin beats min(axis=1) on short rows
    flat[at] = low
    return cols, low, second


def _check_custom(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Raise when a custom metric returned a non-finite or negative value,
    naming the coordinate rows it was called with; ``values`` is a matrix
    over the rows of ``a`` and ``b``, or a vector of their aligned pairs."""
    bad = ~(np.isfinite(values) & (values >= 0.0))
    if not bad.any():
        return
    where = np.argwhere(bad)[0]
    raise ValueError(f"custom metric returned {float(values[tuple(where)])!r} "
                     f"for {a[where[0]]!r} and {b[where[-1]]!r}")

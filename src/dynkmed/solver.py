"""Query path and cost evaluation.

The static weighted solver seeds k centers by weighted distance-power
sampling and then runs single-swap local search: a swap is accepted only when
it shrinks the weighted cost by at least a ``LOCAL_SEARCH_DELTA/k`` relative
margin, so the search terminates and never returns anything worse than its
seeding. A query extracts the weighted instance of a dynamic state, solves
it, and costs the answer over the full live set with :func:`cost_set`.
"""
from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .metric import DistanceOracle, Point, PointId, PointStore, _nearest_two

# Relative-improvement cutoff of the local search: a swap must cut the cost
# to at most (1 - LOCAL_SEARCH_DELTA/k) times its current value.
LOCAL_SEARCH_DELTA = 0.01


class WeightedInstance:
    """Distinct points with positive integer weights, held as three arrays
    in ascending id order: integer ``ids``, ``coords`` (one row per id) and
    ``weights``."""

    def __init__(self, ids: np.ndarray, coords: np.ndarray, weights: np.ndarray) -> None:
        ids, coords, weights = np.asarray(ids), np.asarray(coords), np.asarray(weights)
        if (ids.ndim, coords.ndim, weights.ndim) != (1, 2, 1) or not (
                len(ids) == len(coords) == len(weights)):
            raise ValueError("an instance needs one id, one coordinate row and one weight per point")
        if ids.dtype.kind not in "iu":
            raise ValueError("ids must be integers")
        if weights.dtype.kind not in "iu":
            raise ValueError("weights must be integers")
        light = np.flatnonzero(weights < 1)
        if light.size:
            raise ValueError(f"weight of point {ids[light[0]]} must be at least 1")
        unordered = np.flatnonzero(np.diff(ids) <= 0)
        if unordered.size:
            raise ValueError(f"duplicate or unordered point id {ids[unordered[0] + 1]}")
        self.ids, self.coords, self.weights = ids, coords, weights

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def total_weight(self) -> int:
        return self.weights.sum().item()


@dataclass(frozen=True)
class Solution:
    centers: frozenset[PointId]
    cost: float


# -- cost evaluators ---------------------------------------------------------


def _check_int(name: str, value: int, low: int = 1, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer, not a bool, and at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be at least {low}")


def _check_power(p: float) -> None:
    """Raise unless the exponent of d^p is finite and at least 1."""
    if not (math.isfinite(p) and p >= 1.0):  # a NaN fails both
        raise ValueError(f"power must be finite and at least 1, got {p!r}")


class PowerOverflowError(ValueError):
    """Distances to the power p, or their weighted sums, overflow float64."""


@contextmanager
def _power_overflow(p: float):
    """Turn a float64 overflow inside the block into a PowerOverflowError naming d^p."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise PowerOverflowError(f"distances to the power {p!r} overflow float64") from None


_MARGIN = 1.0 + 2.0 ** -20


class _Finish:
    """Gram entries from the kernel's ``squared=True`` product, diagonal marked
    ``-inf``: ``oracle._distances`` (the mark reads 0), then ``** p``; all
    elementwise, so bit for bit the whole Gram's. No oracle: already finished."""

    def __init__(self, oracle: Optional[DistanceOracle], p: float) -> None:
        self.oracle, self.p = oracle, p

    def __call__(self, x: np.ndarray, j: Optional[int] = None) -> np.ndarray:
        """A finished copy of ``x``, or of column ``j`` of the transposed product ``x``."""
        if self.oracle is None:
            return x if j is None else x[:, j]
        if j is None:
            d = self.oracle._distances(x)
        else:
            d = self.oracle._root(x[:, j]) if self.oracle.base is None else x[:, j].copy()
            d[j] = 0.0                                # the column's diagonal entry
        if self.p != 1.0:
            with _power_overflow(self.p):
                d **= self.p
        return d

    def whole(self, x: np.ndarray) -> "_Finish":
        """Finish all of the product ``x`` in place; returns the finish of the result."""
        if self.oracle is not None:
            if self.oracle.base is None:
                self.oracle._root(x, out=x)
            np.fill_diagonal(x, 0.0)
            if self.p != 1.0:
                with _power_overflow(self.p):
                    x **= self.p
        return _FINISHED

    def bound(self, theta: float) -> float:
        """T(theta) = ``(theta^(1/p) - offset)^2`` (``theta^(1/p)`` if custom) with
        ``_MARGIN`` at each end, far above the ulps ``sqrt``, ``+ offset`` and ``** p``
        round by, plus the smallest normal: entries >= T finish at or above theta."""
        if self.oracle is None:
            return theta
        root = theta ** (1.0 / self.p) * _MARGIN
        if self.oracle.base is None:
            root = max(root - self.oracle.offset, 0.0)
            root *= root * _MARGIN
        return root + 2.0 ** -1022


_FINISHED = _Finish(None, 1.0)


def cost_set(
    centers: Iterable[Point] | Iterable[PointId],
    universe: Sequence[Point] | PointStore,
    p: float,
    oracle: DistanceOracle,
) -> float:
    """Sum over the universe of the p-th power of the distance to the nearest
    center.

    The universe may be a :class:`PointStore`: its live ids and rows are
    then read as arrays in id order, and the centers may be given as ids of
    its points, whose rows are read the same way. Either way the rows are in
    id order, so the cost is the same float. A universe point whose id is a
    center's is at distance 0 from the centers, whatever its coordinates.
    """
    _check_power(p)
    if isinstance(universe, PointStore):
        rows = universe.rows_by_id()
        ids, coords = universe.row_ids[rows], universe.matrix[rows]
    else:
        ids, coords = _id_rows(universe)
    if len(ids) == 0:
        return 0.0
    centers = list(centers)
    if not centers:
        raise ValueError("center set must be nonempty")
    if isinstance(centers[0], Point):
        center_ids, center_coords = _id_rows(centers)
    else:
        center_ids = sorted(centers)
        if not isinstance(universe, PointStore):
            raise ValueError("centers given as ids need a PointStore universe, not a point sequence")
        if not all(c in universe for c in center_ids):
            raise ValueError(f"center ids {[c for c in center_ids if c not in universe]} are not in the store")
        center_coords = universe.matrix[[universe.row(c) for c in center_ids]]
    low = oracle.row_min(oracle.matrix_between(coords, center_coords, squared=True))
    low[np.isin(ids, center_ids)] = 0.0
    with _power_overflow(p):
        return float(np.sum(low ** p))


def _id_rows(points: Iterable[Point]) -> tuple[list[PointId], np.ndarray]:
    """Ids and coordinate rows of points, in id order."""
    ordered = sorted(points, key=lambda q: q.id)
    return [q.id for q in ordered], np.array([q.coords for q in ordered])


# -- weighted solver ---------------------------------------------------------


def _seed_indices(
    powered: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator,
    finish: _Finish = _FINISHED, near: Optional[list] = None,
) -> list[int]:
    """Weighted distance-power seeding: first pick proportional to weight,
    then proportional to weight times powered distance to the picks so far.
    Each pick is what ``rng.choice(n, p=mass / total)`` draws after its checks,
    with the same stream: ``rng.random()`` searched, ``side="right"``, in the
    cumulative sum of ``mass / total`` rescaled to end at 1; a ``total`` that
    overflows raises ``ValueError``. Picks' columns, finished, go to ``near``."""
    n = powered.shape[0]
    chosen: list[int] = []
    mass, dmin = weights, np.full(n, np.inf)
    with np.errstate(over="ignore"):  # an overflow leaves total infinite
        while len(chosen) < k:
            total = mass.sum()
            if not math.isfinite(total):
                raise PowerOverflowError("seeding masses (weight times powered distance) overflow float64")
            if total <= 0.0:
                taken = set(chosen)
                nxt = next(i for i in range(n) if i not in taken)
            else:
                cdf = (mass / total).cumsum()
                cdf /= cdf[-1]
                nxt = int(cdf.searchsorted(rng.random(), side="right"))
            chosen.append(nxt)
            column = finish(powered, nxt)
            if near is not None:
                near.append(column)
            np.minimum(dmin, column, out=dmin)
            mass = weights * dmin
    return chosen


# Candidate block sizes of the local-search screen (see _local_search).
_BLOCK_MIN = 16
_BLOCK_MAX = 256
# The screen reads a list of the Gram entries below the largest d2 when at
# most this share of the entries of every _SAMPLE_STEP-th column is below it.
_LIST_DENSITY = 0.15
_SAMPLE_STEP = 16


def _near_list(gram_t: np.ndarray, theta: float, finish: _Finish = _FINISHED) -> tuple:
    """The entries of ``gram_t`` (candidate columns stored as rows) below
    ``theta`` in column order, ``(offsets, columns, rows, values)`` with
    column j's at ``offsets[j]:offsets[j + 1]``; the rows are intp for ``take``."""
    size, m = gram_t.size, gram_t.shape[1]
    flat = (gram_t < theta).reshape(-1).nonzero()[0]
    offsets = flat.searchsorted(np.arange(0, size + 1, m))
    columns = np.repeat(np.arange(gram_t.shape[0], dtype=np.int32), np.diff(offsets))
    values = finish(gram_t.take(flat))
    flat -= np.multiply(columns, m, dtype=np.intp)
    return offsets.tolist(), columns, flat, values


def _screen_entries(slab: np.ndarray, below: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, ...]:
    """Block position, row and value of each entry of ``slab`` below its
    row's ``d2``, in block order; ``below`` is a flat bool buffer of at least
    ``slab.size`` entries."""
    b, m = slab.shape
    flat = np.less(slab, d2, out=below[:b * m].reshape(b, m)).reshape(-1).nonzero()[0]
    cand = flat // m
    return cand, flat - cand * m, slab.take(flat)


def _listed_entries(listed: tuple, lo: int, hi: int, cut: np.ndarray) -> tuple[np.ndarray, ...]:
    """What :func:`_screen_entries` gives for columns ``lo:hi`` against
    ``cut``, which is at most theta, read from the list of :func:`_near_list`."""
    offsets, columns, rows, values = listed
    first, last = offsets[lo], offsets[hi]
    rows, v = rows[first:last], values[first:last]
    keep = (v < cut.take(rows)).nonzero()[0]
    cand = np.subtract(columns[first:last].take(keep), lo, dtype=np.intp)
    return cand, rows.take(keep), v.take(keep)


def _screen_estimate(
    slab: np.ndarray, entries: tuple[np.ndarray, ...], weights: np.ndarray, c1: np.ndarray,
    d1: np.ndarray, d2: np.ndarray, base: np.ndarray, cost: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated new cost of each candidate in ``slab``, a block of candidate
    columns stored as rows, from its entries below ``d2`` alone, and the
    b-by-k matrix of its per-center values ``base + delta``.

    A row whose entry is at least its ``d2`` adds nothing to the shared gain
    and exactly its removal loss ``w*(d2-d1)`` to its center; ``base`` holds
    those losses summed per center. An entry ``v`` below ``d2`` adds
    ``w*(min(v,d1)-d1)`` to the shared gain and changes its row's removal
    loss by ``w*(max(v,d1)-d2)``. The estimate is
    ``cost + shared + min_c(base[c] + delta[c])``. ``entries`` holds the
    block position, row and value of every entry below ``d2``, each once.
    """
    b, k = slab.shape[0], base.shape[0]
    cand, rows, v = entries
    w, lo = weights.take(rows), d1.take(rows)
    shared = np.bincount(cand, weights=(np.minimum(v, lo) - lo) * w, minlength=b)
    delta = np.bincount(cand * k + c1.take(rows), weights=(np.maximum(v, lo) - d2.take(rows)) * w,
                        minlength=b * k).reshape(b, k)
    delta += base
    estimate = np.minimum.reduce(delta, axis=1)
    estimate += shared
    estimate += cost
    return estimate, delta


def _exact_swap(
    column: np.ndarray, weights: np.ndarray, c1: np.ndarray, d1: np.ndarray, d2: np.ndarray,
    k: int, cost: float,
) -> tuple[int, float]:
    """Exact evaluation of one candidate column: the position of the center
    whose swap for it costs least (the first minimum), and the new cost."""
    gain_keep = np.minimum(column, d1)
    gain_keep -= d1
    gain_keep *= weights                              # <= 0 everywhere
    shared = gain_keep.sum()
    lose = np.minimum(column, d2)
    lose -= d1
    lose *= weights
    lose -= gain_keep                                 # extra cost if center lost
    per_center = np.bincount(c1, weights=lose, minlength=k)
    c_pos = int(per_center.argmin())
    return c_pos, cost + shared + per_center[c_pos]


@np.errstate(over="ignore")                           # an overflow turns the screen off
def _local_search(
    powered: np.ndarray, weights: np.ndarray, chosen: list[int], cutoff: float,
    finish: _Finish = _FINISHED, near: Optional[np.ndarray] = None,
) -> float:
    """Single-swap descent: scan candidates cyclically in column order from
    column 0, apply any swap that shrinks the cost to at most ``cutoff``
    times the current value, and stop when the scan is back at the last
    swap's column (or at column 0). Full passes until one without a swap
    make the same swaps: after the last swap, their last pass only rereads
    columns already rejected against the same state.

    For each candidate the best center to retire is chosen by the standard
    decomposition: points keeping their center can only gain from the
    candidate; points losing theirs fall back to the second-nearest. A
    retired center is scanned again as a candidate when the scan reaches
    its column.

    Each row keeps its nearest center position ``c1``, its distance ``d1``
    and its second-nearest distance ``d2``, and ``near`` holds the columns
    of the current centers. After a swap only the rows where these can
    change are recomputed from ``near``: rows whose nearest center was
    retired, rows whose second-nearest may have been the retired center, and
    rows the new center comes within ``d2`` of. Every other row keeps its
    nearest center and both distances, so they stay the exact minima. A
    swap whose recomputed cost is not below the last, which only a wrong
    screen makes, raises ``RuntimeError`` rather than let the scan cycle. Ties
    in ``c1`` go to the first minimum, and which tied center a row names
    does not matter: a row with ``d1 == d2`` adds exactly 0.0 to the removal
    loss of its center, so no swap decision depends on the tie rule.

    Screen. A row whose entry in a candidate's column is at least its
    ``d2`` adds only its fixed removal loss ``w*(d2-d1)`` to its center, so
    :func:`_screen_estimate` estimates the new cost of a block of upcoming
    candidates (rows of ``powered.T``, contiguous because the Gram is
    F-contiguous), and its per-center values, from the entries below ``d2``
    alone. A candidate is skipped when ``estimate - err > cutoff * cost``,
    and accepted from the screen when ``estimate + err <= cutoff * cost``
    and its best per-center value leads the next by more than ``err``; the
    exact code, :func:`_exact_swap`, decides the rest in the same scan
    order. After a swap the rest of the block is dropped and screening
    resumes at the next column against the new state, so the search makes
    exactly the swaps it makes unscreened. Blocks start at ``_BLOCK_MIN``
    candidates and double up to ``_BLOCK_MAX`` while no swap happens.

    Entries. ``powered`` may be the kernel's product, read through
    ``finish`` (:class:`_Finish`), with ``near`` the centers' finished
    columns. Let theta be the largest ``d2`` after seeding. When at most
    ``_LIST_DENSITY`` of the entries of every ``_SAMPLE_STEP``-th column lie
    below T(theta) (:meth:`_Finish.bound`), :func:`_near_list` lists those
    once, finished, and each block keeps its columns' listed entries below
    their row's ``d2``, at most theta; so the list's extras, which finish at
    or above theta, never reach an estimate. A row whose ``d2`` has risen
    above theta (found again after each swap) may have entries in ``[theta,
    d2)`` that the list lacks, so the block finishes and reads that row
    densely instead. Otherwise the product is finished whole, in place, and
    each block is read densely; only columns swapped in or evaluated exactly
    are finished besides. Both give every entry below ``d2`` once, and in
    the dense order while no row is above theta, when the estimates are bit
    for bit the same; otherwise only the order of the sums differs, which the
    bound below does not depend on: it counts m rounding errors per sum.

    The bound. Let ``S = cost + sum(w*d2)`` and u = eps/2. The exact code
    and the estimate round the same real value, ``cost + shared +
    min_c per_center[c]``, and a minimum moves by at most the largest error
    of its terms. Distances and weights are nonnegative, so in either
    computation each per-row term is at most ``w*(d1+d2)`` in magnitude and
    takes at most three roundings, the terms total at most ``2*S``, each sum
    over rows (``sum``, ``bincount``) adds at most m rounding errors of
    relative size u, and at most three more additions of values below
    ``2*S`` follow. Each computation is thus within ``4*(m+8)*u*S`` of the
    real value, plus at most ``3*m`` half subnormals where products
    underflow; so is each per-center value, a sum over a subset of the rows.
    ``err = 64*(m+8)*(eps*S + smallest_subnormal)`` is 16 times the sum of
    both errors, which also absorbs the rounding of ``estimate - err``,
    ``estimate + err`` and the lead. So a skipped candidate's exact new
    cost is above ``cutoff * cost``, and for one accepted from the screen it
    is at most that, with the screen's best center as the exact code's first
    minimum. When ``err`` is not finite (k = 1, where ``d2`` is ``inf``, or
    an overflow) the screen is off and every candidate is evaluated exactly.
    """
    n, k = powered.shape[0], len(chosen)
    near = finish(powered[:, chosen]) if near is None else near
    c1, d1, d2 = _nearest_two(near)
    cost = float(np.add.reduce(weights * d1))
    below = np.empty(_BLOCK_MAX * n, dtype=bool)
    theta, sample, listed = float(d2.max()), powered.T[::_SAMPLE_STEP], None
    if cost > 0.0 and np.count_nonzero(sample < finish.bound(theta)) <= _LIST_DENSITY * sample.size:
        if finish.p != 1.0:                           # d^p of the largest entry must not overflow
            finish(np.maximum.reduce(powered.T, axis=None, keepdims=True))
        listed = _near_list(powered.T, finish.bound(theta), finish)
    else:
        finish = finish.whole(powered.T)
    err = None                                        # screen bound of the current state
    start, block = 0, _BLOCK_MIN
    left = n if cost > 0.0 else 0                     # columns to scan before stopping
    while left:
        if err is None:
            err = 64.0 * (n + 8) * (math.ulp(1.0) * (cost + float(np.add.reduce(weights * d2))) + math.ulp(0.0))
            screened = math.isfinite(err)
            if screened:
                base = np.bincount(c1, weights=weights * (d2 - d1), minlength=k)
                if listed is not None:                # rows whose d2 rose above theta are read densely
                    high = (d2 > theta).nonzero()[0]
                    cut = np.where(d2 > theta, -np.inf, d2)
        lo, hi, limit = start, min(start + block, n, start + left), cutoff * cost
        if screened:
            slab = powered.T[lo:hi]
            if listed is None:
                entries = _screen_entries(slab, below, d2)
            else:
                entries = _listed_entries(listed, lo, hi, cut)
                if high.size:                         # appended in block order of their own
                    cand, at, v = _screen_entries(finish(slab.take(high, axis=1)), below, d2.take(high))
                    entries = tuple(map(np.concatenate, zip(entries, (cand, high.take(at), v))))
            estimate, per_center = _screen_estimate(slab, entries, weights, c1, d1, d2, base, cost)
            candidates = (lo + (estimate - err <= limit).nonzero()[0]).tolist()
        else:
            candidates = range(lo, hi)
        left -= hi - lo
        start, block = hi % n, min(2 * block, _BLOCK_MAX)
        for j in candidates:
            if j in chosen:
                continue
            c_pos, column = -1, finish(powered, j)
            if screened and estimate[j - lo] + err <= limit:
                row = per_center[j - lo]
                best, runner_up = row.argpartition(1)[:2].tolist()
                if row[runner_up] - row[best] > err:  # the screen proves the swap
                    c_pos = best
            if c_pos < 0:
                c_pos, new_cost = _exact_swap(column, weights, c1, d1, d2, k, cost)
                if not new_cost <= limit:
                    continue
            stale = ((c1 == c_pos) | (column <= d2) | (near[:, c_pos] == d2)).nonzero()[0]
            chosen[c_pos] = j
            near[:, c_pos] = column
            c1[stale], d1[stale], d2[stale] = _nearest_two(near[stale])
            cost, last = float(np.add.reduce(weights * d1)), cost
            if not cost < last:                       # the screen proved a swap wrongly
                raise RuntimeError(f"swapping in column {j} did not lower the cost: {last!r} -> {cost!r}")
            if cost <= 0.0:
                return cost
            err = None
            start, block, left = (j + 1) % n, _BLOCK_MIN, n - 1
            break
    return cost


def weighted_solve(
    instance: WeightedInstance,
    k: int,
    p: float,
    seed: int | np.random.SeedSequence = 0,
    oracle: Optional[DistanceOracle] = None,
) -> Solution:
    """Solve the weighted instance: seeding plus single-swap local search.

    Instances with at most k points are returned whole at cost zero; the
    search's cutoff is ``1 - LOCAL_SEARCH_DELTA/k``. Deterministic given the seed.
    Both read the powered Gram, distances ``** p`` with the diagonal at 0, but
    only the kernel's product is computed whole: :class:`_Finish` finishes the
    picks' columns and what the search reads. An overflow of d^p raises.
    """
    _check_int("k", k)
    _check_power(p)
    if len(instance) == 0:
        raise ValueError("instance must be nonempty")
    oracle = oracle or DistanceOracle()
    ids = instance.ids.tolist()
    if len(ids) <= k:
        return Solution(frozenset(ids), 0.0)
    weights = instance.weights.astype(np.float64)
    product = oracle.matrix_between(instance.coords, instance.coords, squared=True)
    np.fill_diagonal(product, -np.inf)
    finish, near = _Finish(oracle, p), []
    chosen = _seed_indices(product.T, weights, k, np.random.default_rng(seed), finish, near)
    cost = _local_search(product.T, weights, chosen, 1.0 - LOCAL_SEARCH_DELTA / k, finish, np.stack(near).T)
    return Solution(frozenset(ids[i] for i in chosen), cost)


def query(
    state,
    k: int,
    p: float,
    seed: int | np.random.SeedSequence = 0,
) -> Solution:
    """Extract the weighted instance from a dynamic state, solve it, and
    report the chosen centers with their cost over the full live point set."""
    if state.live_count == 0:
        raise ValueError("state is empty")
    _check_int("k", k)
    _check_power(p)
    if state.live_count <= k:
        return Solution(frozenset(state.assignment()), 0.0)
    picked = weighted_solve(state.weighted_instance(), k, p, seed, state.oracle)
    full_cost = cost_set(sorted(picked.centers), state.store, p, state.oracle)
    return Solution(picked.centers, full_cost)


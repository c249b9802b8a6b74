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

from .metric import DistanceOracle, Point, PointId, PointStore, PowerOverflowError, _nearest_two, chunk_rows

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
        unordered = np.flatnonzero(ids[1:] <= ids[:-1])
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


@contextmanager
def _power_overflow(p: float):
    """Turn a float64 overflow inside the block into a PowerOverflowError naming d^p."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise PowerOverflowError(f"distances to the power {p!r} overflow float64") from None


class _Finish:
    """Gram entries from the kernel's product, bit for bit the whole Gram's:
    ``oracle._root``, the diagonal's entries set to 0, then ``** p``,
    elementwise; no oracle: already finished. :func:`weighted_solve`
    marks the diagonal, each point's pair with itself, ``-inf``, which the
    search's sample and :func:`_near_list` read as below every bound."""

    def __init__(self, oracle: Optional[DistanceOracle], p: float) -> None:
        self.oracle, self.p = oracle, p

    def __call__(self, x: np.ndarray, zero, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x`` finished into ``out`` (``None`` or ``x``), with ``zero`` indexing
        the diagonal's entries in it; ``x`` itself if already finished."""
        if self.oracle is None:
            return x
        d = self.oracle._root(x, out=out)
        d[zero] = 0.0
        if self.p != 1.0:
            with _power_overflow(self.p):
                d **= self.p
        return d

    def bound(self, theta: float) -> float:
        """T(theta), the entry bound of ``theta^(1/p)``: entries >= T finish at or above theta."""
        if self.oracle is None:
            return theta
        return self.oracle._entry(theta ** (1.0 / self.p))


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
        ids, coords = universe.row_ids.take(rows), universe.matrix.take(rows, 0)
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
        center_coords = universe.matrix.take([universe.row(c) for c in center_ids], 0)
    step, block = chunk_rows(center_coords.shape[0]), oracle.prepare(center_coords)
    low = np.concatenate([oracle.row_min(oracle.matrix_between(
        coords[lo : lo + step], block)) for lo in range(0, len(ids), step)])
    first, last = ids.searchsorted(center_ids).tolist(), ids.searchsorted(center_ids, "right").tolist()
    low[[i for lo, hi in zip(first, last) for i in range(lo, hi)]] = 0.0
    with _power_overflow(p):
        return float(np.sum(low ** p))


def _id_rows(points: Iterable[Point]) -> tuple[np.ndarray, np.ndarray]:
    """Ids and coordinate rows of points, in id order."""
    ordered = sorted(points, key=lambda q: q.id)
    return np.array([q.id for q in ordered], dtype=np.int64), np.array([q.coords for q in ordered])


# -- weighted solver ---------------------------------------------------------


def _seed_indices(
    powered: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator, finish: _Finish,
) -> tuple[list[int], np.ndarray]:
    """Weighted distance-power seeding: first pick proportional to weight,
    then proportional to weight times powered distance to the picks so far.
    Each pick is what ``rng.choice(n, p=mass / total)`` draws after its checks,
    with the same stream: ``rng.random()`` searched, ``side="right"``, in the
    cumulative sum of ``mass / total`` rescaled to end at 1; a ``total`` that
    overflows raises ``ValueError``. Returns the picks and ``near``, the
    (n, k) array of their finished columns."""
    n = powered.shape[0]
    chosen: list[int] = []
    near = np.empty((n, k), order="F")
    mass, dmin = weights, np.full(n, np.inf)
    with np.errstate(over="ignore"):  # an overflow leaves total infinite
        for j in range(k):
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
            near[:, j] = finish(powered[:, nxt], nxt)
            np.minimum(dmin, near[:, j], out=dmin)
            mass = weights * dmin
    return chosen, near


# Candidate block sizes of the local-search screen (see _local_search).
_BLOCK_MIN = 16
_BLOCK_MAX = 256
# The screen reads a list of the Gram entries below the largest d2 when at
# most this share of the entries of every _SAMPLE_STEP-th column is below it.
_LIST_DENSITY = 0.15
_SAMPLE_STEP = 16
_PANEL = 192  # rows per panel of the instance Gram, 8 x 24: the fastest of 48, 96, 192 and 384


def _near_list(gram_t: np.ndarray, theta: float, finish: _Finish) -> tuple:
    """The entries of ``gram_t`` (candidate columns stored as rows) below
    ``theta`` in column order, ``(offsets, columns, rows, values)`` with
    column j's at ``offsets[j]:offsets[j + 1]``; the rows are intp for ``take``."""
    size, m = gram_t.size, gram_t.shape[1]
    flat = (gram_t < theta).reshape(-1).nonzero()[0]
    offsets = flat.searchsorted(np.arange(0, size + 1, m))
    columns = np.repeat(np.arange(gram_t.shape[0], dtype=np.int32), np.diff(offsets))
    values = gram_t.take(flat)
    finish(values, flat.searchsorted(np.arange(0, size, m + 1)), values)
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
    d1: np.ndarray, d2: np.ndarray, base: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated change in cost of each candidate in ``slab``, a block of
    candidate columns stored as rows, from its entries below ``d2`` alone,
    and the b-by-k matrix of its per-center values ``base + delta``.

    A row whose entry is at least its ``d2`` adds nothing to the shared gain
    and exactly its removal loss ``w*(d2-d1)`` to its center; ``base`` holds
    those losses summed per center. An entry ``v`` below ``d2`` adds
    ``w*(min(v,d1)-d1)`` to the shared gain and changes its row's removal
    loss by ``w*(max(v,d1)-d2)``. The estimate is
    ``shared + min_c(base[c] + delta[c])``. ``entries`` holds the
    block position, row and value of every entry below ``d2``, each once.
    """
    b, k = slab.shape[0], base.shape[0]
    cand, rows, v = entries
    w, lo = weights.take(rows), d1.take(rows)
    gain = np.minimum(v, lo)
    gain -= lo
    gain *= w
    lose = np.subtract(np.maximum(v, lo, out=lo), d2.take(rows), out=lo)
    lose *= w
    shared = np.bincount(cand, weights=gain, minlength=b)
    delta = np.bincount(cand * k + c1.take(rows), weights=lose, minlength=b * k).reshape(b, k)
    delta += base
    estimate = np.minimum.reduce(delta, axis=1)
    estimate += shared
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
    finish: _Finish, near: np.ndarray,
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
    of the current centers. After a swap only the rows where the retired
    center or the new one lies within ``d2`` are recomputed from ``near``:
    no center but the nearest is closer than ``d2``, so these are the rows
    whose nearest or second-nearest center was retired, and those the new
    one reaches. Every other row keeps its nearest center and both
    distances, so they stay the exact minima. A swap whose recomputed cost
    is not below the last, which only a wrong screen makes, raises
    ``RuntimeError`` rather than let the scan cycle. Ties in ``c1`` go to
    the first minimum; which tied center a row names does not matter, as a
    row with ``d1 == d2`` adds exactly 0.0 to its center's removal loss.

    Screen. A row whose entry in a candidate's column is at least its ``d2``
    adds only its fixed removal loss ``w*(d2-d1)`` to its center, so
    :func:`_screen_estimate` estimates the change in cost of a block of
    upcoming candidates (rows of ``powered.T``, contiguous because the Gram
    is F-contiguous), and its per-center values, from the entries below
    ``d2`` alone. With ``limit = cutoff * cost``, a candidate is skipped
    when ``estimate > limit - cost + err``, and accepted from the screen
    when ``estimate <= limit - cost - err`` and its best per-center value
    leads the next by more than ``err``; the exact code,
    :func:`_exact_swap`, decides the rest in the same scan order. After a
    swap the rest of the block is dropped and screening resumes at the next
    column against the new state, so the search makes exactly the swaps it
    makes unscreened. Blocks start at ``_BLOCK_MIN`` candidates and double
    up to ``_BLOCK_MAX`` while no swap happens.

    Entries. ``powered`` may be the kernel's product, read through
    ``finish`` (:class:`_Finish`), with ``near`` the centers' finished
    columns. One rule, run only while the screen is on, picks the source.
    Theta, the largest ``d2`` the sample (every ``_SAMPLE_STEP``-th column)
    was last tested at, starts at ``inf``; while no list is read, each time
    the largest ``d2`` is at most theta / 2, so at the first screened block,
    it becomes theta and the sample is tested against T(theta)
    (:meth:`_Finish.bound`). When at most ``_LIST_DENSITY`` of its entries
    lie below, :func:`_near_list` lists the product's entries below
    T(theta) once, finished; each block keeps its columns' listed entries
    below their row's ``d2``, at most theta, so the list's extras, which
    finish at or above theta, never reach an estimate. A row whose ``d2``
    has risen above theta (found again after each swap) may have entries in
    ``[theta, d2)`` that the list lacks, so the block finishes and reads
    densely instead. Otherwise, and while the screen is off with no list,
    the product is finished whole, in place, once, and blocks are read
    densely; only columns swapped in or evaluated exactly are finished
    besides, and a search whose seeding costs 0 finishes nothing. Both
    sources give every entry below ``d2`` once, and in the dense order while
    no row is above theta, when the estimates are bit for bit the same;
    otherwise only the order of the sums differs, which the bound below does
    not depend on: it counts m rounding errors per sum.

    The bound. Let ``S = cost + sum(w*d2)`` and u = eps/2. The exact code
    rounds the real new cost, ``cost + shared + min_c per_center[c]``, and
    the estimate that less ``cost``; a minimum moves by at most the largest
    error of its terms. Distances and weights are nonnegative, so in either
    computation each per-row term is at most ``w*(d1+d2)`` in magnitude and
    takes at most three roundings (``w*d2 - w*d1`` takes three), the terms
    total at most ``2*S``, each sum over rows (``sum``, ``bincount``) adds
    at most m rounding errors of relative size u, and at most three more
    additions of values below ``2*S`` follow. Each computation is thus
    within ``4*(m+8)*u*S`` of its real value, plus at most ``4*m`` half
    subnormals where products underflow; so is each per-center value, a sum
    over a subset of the rows. ``err = 64*(m+8)*(eps*S + smallest_subnormal)``
    is 16 times the sum of both errors, which also absorbs the rounding of
    ``limit - cost``, of ``± err`` and of the lead. So a skipped candidate's
    exact new cost is above ``cutoff * cost``, and for one accepted from the
    screen it is at most that, with the screen's best center as the exact
    code's first minimum. When ``err`` is not finite (k = 1, where ``d2`` is
    ``inf``, or an overflow) the screen is off and every candidate is
    evaluated exactly.
    """
    n, k = powered.shape[0], len(chosen)
    c1, d1, d2 = _nearest_two(near)
    cost = float(np.add.reduce(wd1 := weights * d1))
    below = np.empty(_BLOCK_MAX * n, dtype=bool)
    sample, listed = powered.T[::_SAMPLE_STEP], None
    theta = math.inf                                  # the largest d2 the sample was last tested at
    err = None                                        # screen bound of the current state
    start, block = 0, _BLOCK_MIN
    left = n if cost > 0.0 else 0                     # columns to scan before stopping
    while left:
        if err is None:
            wd2 = weights * d2                        # then w*(d2-d1), the rows' removal losses
            err = 64.0 * (n + 8) * (math.ulp(1.0) * (cost + float(np.add.reduce(wd2))) + math.ulp(0.0))
            screened = math.isfinite(err)
            if screened and listed is None and 2.0 * (top := float(d2.max())) <= theta:
                theta = top
                if np.count_nonzero(sample < finish.bound(theta)) <= _LIST_DENSITY * sample.size:
                    if finish.p != 1.0:               # d^p of the largest entry must not overflow
                        finish(np.maximum.reduce(powered.T, axis=None, keepdims=True), [])
                    listed = _near_list(powered.T, finish.bound(theta), finish)
            if listed is None:                        # a no-op once finished
                finish(powered.T, np.diag_indices(n), powered.T)
                finish = _FINISHED
            limit = cutoff * cost
            if screened:
                base = np.bincount(c1, weights=np.subtract(wd2, wd1, out=wd2), minlength=k)
                skip, prove = limit - cost + err, limit - cost - err
                if listed is not None:                # rows whose d2 rose above theta are read densely
                    high = (above := d2 > theta).nonzero()[0]
                    cut = np.where(above, -np.inf, d2) if high.size else d2
        lo, hi = start, min(start + block, n, start + left)
        if screened:
            slab = powered.T[lo:hi]
            if listed is None:
                entries = _screen_entries(slab, below, d2)
            else:
                entries = _listed_entries(listed, lo, hi, cut)
                if high.size:                         # appended in block order of their own
                    part = slab.take(high, axis=1)
                    cand, at, v = _screen_entries(finish(part, part == -np.inf, part), below, d2.take(high))
                    entries = tuple(map(np.concatenate, zip(entries, (cand, high.take(at), v))))
            estimate, per_center = _screen_estimate(slab, entries, weights, c1, d1, d2, base)
            candidates = [lo + i for i in (estimate <= skip).nonzero()[0].tolist()]
        else:
            candidates = range(lo, hi)
        left -= hi - lo
        start, block = hi % n, min(2 * block, _BLOCK_MAX)
        for j in candidates:
            if j in chosen:
                continue
            c_pos, column = -1, finish(powered[:, j], j)
            if screened and estimate[j - lo] <= prove:
                row = per_center[j - lo]
                best, runner_up = row.argpartition(1)[:2].tolist()
                if row[runner_up] - row[best] > err:  # the screen proves the swap
                    c_pos = best
            if c_pos < 0:
                c_pos, new_cost = _exact_swap(column, weights, c1, d1, d2, k, cost)
                if not new_cost <= limit:
                    continue
            stale = (np.minimum(near[:, c_pos], column) <= d2).nonzero()[0]
            chosen[c_pos] = j
            near[:, c_pos] = column
            c1[stale], d1[stale], d2[stale] = _nearest_two(near[stale])
            cost, last = float(np.add.reduce(wd1 := weights * d1)), cost
            if not cost < last:                       # the screen proved a swap wrongly
                raise RuntimeError(f"swapping in column {j} did not lower the cost: {last!r} -> {cost!r}")
            if cost <= 0.0:
                return cost
            err = None
            start, block, left = (j + 1) % n, _BLOCK_MIN, n - 1
            break
    return cost


def _instance_gram(coords: np.ndarray, oracle: DistanceOracle) -> np.ndarray:
    """The kernel's product of the instance with itself in ``_PANEL``-row panels, each
    against the prepared rows from its first row on and mirrored below it: about
    m * (m + _PANEL) / 2 evaluations, and the whole product's one call when m <= _PANEL."""
    m = coords.shape[0]
    gram, prepared = np.empty((m, m)), oracle.prepare(coords)
    for lo in range(0, m, _PANEL):
        hi, rest = lo + _PANEL, prepared._replace(rows=prepared.rows[lo:])
        oracle.matrix_between(coords[lo:hi], rest, out=gram[lo:hi, lo:])
        gram[hi:, lo:hi] = gram[lo:hi, hi:].T
    return gram


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
    product = _instance_gram(instance.coords, oracle)
    np.fill_diagonal(product, -np.inf)
    finish = _Finish(oracle, p)
    chosen, near = _seed_indices(product.T, weights, k, np.random.default_rng(seed), finish)
    cost = _local_search(product.T, weights, chosen, 1.0 - LOCAL_SEARCH_DELTA / k, finish, near)
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


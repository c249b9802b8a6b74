"""Query path and cost evaluation.

The static weighted solver seeds k centers by weighted distance-power
sampling and then runs single-swap local search: a swap is accepted only when
it shrinks the weighted cost by at least a ``LOCAL_SEARCH_DELTA/k`` relative
margin, so the search terminates and never returns anything worse than its
seeding. A query extracts the weighted instance of a dynamic state, solves
it, and costs the answer over the full live set with :func:`cost_set`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metric import DistanceOracle, Point, PointId, PointStore

# Relative-improvement cutoff of the local search: a swap must cut the cost
# to at most (1 - LOCAL_SEARCH_DELTA/k) times its current value.
LOCAL_SEARCH_DELTA = 0.01


@dataclass
class WeightedInstance:
    """Distinct points with positive integer weights."""

    entries: list[tuple[Point, int]]

    def __post_init__(self) -> None:
        seen: set[PointId] = set()
        for point, weight in self.entries:
            if weight < 1:
                raise ValueError(f"weight of point {point.id} must be at least 1")
            if point.id in seen:
                raise ValueError(f"duplicate point id {point.id} in instance")
            seen.add(point.id)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_weight(self) -> int:
        return sum(w for _, w in self.entries)

    def sorted_entries(self) -> list[tuple[Point, int]]:
        return sorted(self.entries, key=lambda e: e[0].id)


@dataclass(frozen=True)
class Solution:
    centers: frozenset[PointId]
    cost: float


# -- cost evaluators ---------------------------------------------------------


def cost_set(
    centers: Sequence[Point],
    universe: Sequence[Point] | PointStore,
    p: float,
    oracle: DistanceOracle,
) -> float:
    """Sum over the universe of the p-th power of the distance to the nearest
    center.

    The universe may be a :class:`PointStore`: its live points are then read
    as sorted ids and one gathered coordinate block, with no Point list.
    Either way the rows are in id order, so the cost is the same float.
    """
    if p < 1.0:
        raise ValueError("power must be at least 1")
    if isinstance(universe, PointStore):
        ids = universe.ids_sorted()
        coords = universe.coords_for(ids)
    else:
        members = sorted(universe, key=lambda q: q.id)
        ids = [q.id for q in members]
        coords = np.stack([q.coords for q in members]) if members else None
    if not ids:
        return 0.0
    ctrs = sorted(centers, key=lambda q: q.id)
    if not ctrs:
        raise ValueError("center set must be nonempty")
    dmin = oracle.matrix_between(
        coords, ids, np.stack([q.coords for q in ctrs]), [q.id for q in ctrs]
    ).min(axis=1)
    return float(np.sum(dmin**p))


# -- weighted solver ---------------------------------------------------------


def _seed_indices(
    powered: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> list[int]:
    """Weighted distance-power seeding: first pick proportional to weight,
    then proportional to weight times powered distance to the picks so far."""
    n = powered.shape[0]
    first = int(rng.choice(n, p=weights / weights.sum()))
    chosen = [first]
    dmin = powered[:, first].copy()
    while len(chosen) < k:
        mass = weights * dmin
        total = mass.sum()
        if total <= 0.0:
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=mass / total))
        chosen.append(nxt)
        np.minimum(dmin, powered[:, nxt], out=dmin)
    return chosen


def _nearest_two(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of an (m, k) block: the position of the first minimum, the
    minimum, and the second-smallest value (``inf`` when k == 1)."""
    rows = np.arange(cols.shape[0])
    c1 = np.argmin(cols, axis=1)
    d1 = cols[rows, c1]
    if cols.shape[1] == 1:
        return c1, d1, np.full(cols.shape[0], np.inf)
    rest = cols.copy()
    rest[rows, c1] = np.inf
    return c1, d1, rest.min(axis=1)


def _local_search(
    powered: np.ndarray,
    weights: np.ndarray,
    chosen: list[int],
    cutoff: float,
) -> float:
    """Single-swap descent: scan candidates in column order and apply any
    swap that shrinks the cost to at most ``cutoff`` times the current value,
    until a full scan finds none.

    For each candidate the best center to retire is chosen by the standard
    decomposition: points keeping their center can only gain from the
    candidate; points losing theirs fall back to the second-nearest. A
    center retired during a pass is scanned as a candidate later in that
    pass if its column comes after the current one.

    Each row keeps its nearest center position ``c1``, its distance ``d1``
    and its second-nearest distance ``d2``. After a swap only the rows where
    these can change are recomputed: rows whose nearest center was retired,
    rows whose second-nearest may have been the retired center, and rows
    the new center comes within ``d2`` of. Every other row keeps its
    nearest center and both distances, so they stay the exact minima. Ties
    in ``c1`` go to the first minimum, and which tied center a row names
    does not matter: a row with ``d1 == d2`` adds exactly 0.0 to the removal
    loss of its center, so no swap decision depends on the tie rule.
    """
    n, k = powered.shape[0], len(chosen)
    c1, d1, d2 = _nearest_two(powered[:, chosen])
    cost = float(np.sum(weights * d1))
    in_solution = np.zeros(n, dtype=bool)
    in_solution[chosen] = True
    gain_keep = np.empty(n)
    lose = np.empty(n)
    improved = True
    while improved and cost > 0.0:
        improved = False
        for j in range(n):
            if in_solution[j]:
                continue
            column = powered[:, j]
            np.minimum(column, d1, out=gain_keep)
            gain_keep -= d1
            gain_keep *= weights                      # <= 0 everywhere
            shared = gain_keep.sum()
            np.minimum(column, d2, out=lose)
            lose -= d1
            lose *= weights
            lose -= gain_keep                         # extra cost if center lost
            per_center = np.bincount(c1, weights=lose, minlength=k)
            c_pos = int(per_center.argmin())
            new_cost = cost + shared + per_center[c_pos]
            if new_cost <= cutoff * cost:
                retired = powered[:, chosen[c_pos]]
                in_solution[chosen[c_pos]] = False
                in_solution[j] = True
                chosen[c_pos] = j
                stale = np.flatnonzero((c1 == c_pos) | (column <= d2) | (retired == d2))
                c1[stale], d1[stale], d2[stale] = _nearest_two(
                    powered[np.ix_(stale, chosen)]
                )
                cost = float(np.sum(weights * d1))
                improved = True
                if cost <= 0.0:
                    return cost
    return cost


def _instance_gram(points: Sequence[Point], p: float, oracle: DistanceOracle) -> np.ndarray:
    """Powered distance matrix of instance points against themselves, equal
    to ``oracle.pairwise(points, points) ** p``. Instance ids are distinct,
    so the same-id pairs to zero are exactly the diagonal."""
    coords = np.stack([q.coords for q in points])
    dist = oracle.matrix_between(coords, None, coords, None)
    np.fill_diagonal(dist, 0.0)
    return dist if p == 1.0 else dist ** p


def weighted_solve(
    instance: WeightedInstance,
    k: int,
    p: float,
    seed: int | np.random.SeedSequence = 0,
    oracle: Optional[DistanceOracle] = None,
) -> Solution:
    """Solve the weighted instance: seeding plus single-swap local search.

    Instances with at most k points are returned whole at cost zero. A swap
    is accepted only when the new cost is at most ``(1 - LOCAL_SEARCH_DELTA/k)`` times the
    current one; the loop runs until no such swap exists. Deterministic given
    the seed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if p < 1.0:
        raise ValueError("power must be at least 1")
    if len(instance) == 0:
        raise ValueError("instance must be nonempty")
    oracle = oracle or DistanceOracle()
    entries = instance.sorted_entries()
    ids = [q.id for q, _ in entries]
    if len(entries) <= k:
        return Solution(frozenset(ids), 0.0)
    points = [q for q, _ in entries]
    weights = np.array([w for _, w in entries], dtype=np.float64)
    powered = _instance_gram(points, p, oracle)
    rng = np.random.default_rng(seed)

    chosen = _seed_indices(powered, weights, k, rng)
    cost = _local_search(powered, weights, chosen, 1.0 - LOCAL_SEARCH_DELTA / k)
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
    if k < 1:
        raise ValueError("k must be at least 1")
    if state.live_count <= k:
        return Solution(frozenset(p.id for p in state.live_points()), 0.0)
    oracle = state.oracle
    instance = state.weighted_instance()
    picked = weighted_solve(instance, k, p, seed, oracle)
    centers = [state.store.get(c) for c in sorted(picked.centers)]
    full_cost = cost_set(centers, state.store, p, oracle)
    return Solution(picked.centers, full_cost)


"""Reference oracles for the tests: brute-force optima, reference costs, the
relaxed triangle check and one cover round over points.

None of these is on an engine path. The brute-force enumerations carry hard
size guards and evaluate distances without touching the oracle counter.
Test modules import this file as ``oracles`` (``tests/`` is not a package).
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from dynkmed import DistanceOracle, DynamicParams, Point, PointId, Solution, WeightedInstance
from dynkmed.cover import _cover_arrays

_BRUTE_FORCE_MAX_POINTS = 16
_BRUTE_FORCE_MAX_SUBSETS = 100_000


# -- reference costs -----------------------------------------------------------


def cost_assignment(
    assignment: Mapping[PointId, PointId],
    points: Iterable[Point],
    p: float,
    oracle: DistanceOracle,
) -> float:
    """Cost of a point -> center map: sum of d(x, assignment[x])^p."""
    if p < 1.0:
        raise ValueError("power must be at least 1")
    by_id = {q.id: q for q in points}
    xs = sorted(by_id)
    ys: list[PointId] = []
    for pid in xs:
        target = assignment.get(pid)
        if target is None:
            raise ValueError(f"point {pid} has no assigned center")
        ys.append(target)
    d = oracle.elementwise(
        np.stack([by_id[pid].coords for pid in xs]), xs,
        np.stack([by_id[pid].coords for pid in ys]), ys,
    )
    return float(np.sum(d**p))


def cost_weighted(
    centers: Iterable[PointId],
    instance: WeightedInstance,
    p: float,
    oracle: DistanceOracle,
) -> float:
    """Weighted nearest-center cost over an instance; centers must be
    instance points."""
    if p < 1.0:
        raise ValueError("power must be at least 1")
    center_ids = sorted(set(centers))
    known = {q.id: q for q, _ in instance.entries}
    missing = [c for c in center_ids if c not in known]
    if missing:
        raise ValueError(f"centers {missing} are not instance points")
    if not center_ids:
        raise ValueError("center set must be nonempty")
    entries = instance.sorted_entries()
    members = [q for q, _ in entries]
    weights = np.array([w for _, w in entries], dtype=np.float64)
    dmin = oracle.pairwise(members, [known[c] for c in center_ids]).min(axis=1)
    return float(np.sum(weights * dmin**p))


def relaxed_triangle_ok(
    oracle: DistanceOracle,
    triples: Iterable[tuple[Point, Point, Point]],
    p: float,
    rel_tol: float = 1e-9,
) -> bool:
    """Check d^p(x,y) <= 2^(p-1) * (d^p(x,z) + d^p(z,y)) on every triple.

    A powered metric is only a relaxed metric, so the factor 2^(p-1) is the
    exact inflation to verify. ``rel_tol`` absorbs floating-point roundoff.
    """
    if p < 1.0:
        raise ValueError("power must be at least 1")
    rho = 2.0 ** (p - 1.0)
    for x, y, z in triples:
        dxy = oracle.distance(x, y) ** p
        dxz = oracle.distance(x, z) ** p
        dzy = oracle.distance(z, y) ** p
        bound = rho * (dxz + dzy)
        if dxy > bound * (1.0 + rel_tol) + 1e-12:
            return False
    return True


# -- one cover round over points -----------------------------------------------


def cover_round(
    points: Sequence[Point],
    params: DynamicParams,
    oracle: Optional[DistanceOracle] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[set[PointId], dict[PointId, PointId], float]:
    """``_cover_arrays`` over points, read back as (distinct sampled centers,
    covered point -> nearest center, radius)."""
    pts = sorted(points, key=lambda q: q.id)
    ids = np.array([q.id for q in pts], dtype=np.int64)
    coords = np.stack([q.coords for q in pts])
    rng = rng if rng is not None else np.random.default_rng(params.seed)
    center_ids, nearest, mask, radius = _cover_arrays(
        ids, coords, params, rng, oracle or DistanceOracle()
    )
    assignment = {int(u): int(center_ids[j]) for u, j in zip(ids[mask], nearest[mask])}
    return set(center_ids.tolist()), assignment, radius


# -- brute-force optima --------------------------------------------------------


def unit_instance(points: Iterable[Point]) -> WeightedInstance:
    """The points as an instance of unit weights: its weighted optimum is the
    plain optimum over the points."""
    return WeightedInstance([(q, 1) for q in points])


def _guard_subsets(n: int, k: int, max_points: int = _BRUTE_FORCE_MAX_POINTS) -> int:
    if n > max_points:
        raise ValueError(f"brute force limited to {max_points} points, got {n}")
    k_eff = min(k, n)
    if math.comb(n, k_eff) > _BRUTE_FORCE_MAX_SUBSETS:
        raise ValueError("brute force subset count over budget")
    return k_eff


def _powered_matrix(
    points: Sequence[Point], p: float, oracle: DistanceOracle
) -> np.ndarray:
    return oracle.pairwise(points, points, count=False) ** p


def brute_force_opt_weighted(
    instance: WeightedInstance, k: int, p: float, oracle: DistanceOracle
) -> Solution:
    """Exact weighted optimum over instance points; subset-count guarded.

    Ties go to the lexicographically smallest id tuple. Guarded to at most 24
    points and 1e5 subsets.
    """
    entries = instance.sorted_entries()
    n = len(entries)
    if n == 0:
        raise ValueError("instance must be nonempty")
    k_eff = _guard_subsets(n, k, max_points=24)
    pts = [q for q, _ in entries]
    if k_eff == n:
        return Solution(frozenset(q.id for q in pts), 0.0)
    weights = np.array([w for _, w in entries], dtype=np.float64)
    powered = _powered_matrix(pts, p, oracle)
    best_cost = math.inf
    best: tuple[int, ...] = ()
    for subset in itertools.combinations(range(n), k_eff):
        c = float(np.sum(weights * powered[:, subset].min(axis=1)))
        if c < best_cost:
            best_cost = c
            best = subset
    return Solution(frozenset(pts[i].id for i in best), best_cost)


def brute_force_coverage_radius(
    universe: Sequence[Point],
    k: int,
    fraction: float,
    oracle: DistanceOracle,
) -> float:
    """Smallest coverage radius achievable with k centers: minimum over all
    k-subsets of the ceil(fraction*n)-th smallest distance to the subset."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    pts = sorted(universe, key=lambda q: q.id)
    n = len(pts)
    if n == 0:
        raise ValueError("universe must be nonempty")
    k_eff = _guard_subsets(n, k)
    dist = oracle.pairwise(pts, pts, count=False)
    m = max(1, math.ceil(fraction * n - 1e-9))
    best = math.inf
    for subset in itertools.combinations(range(n), k_eff):
        dmin = dist[:, subset].min(axis=1)
        r = float(np.partition(dmin, m - 1)[m - 1])
        if r < best:
            best = r
    return best

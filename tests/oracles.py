"""Reference oracles for the tests: brute-force optima, reference costs, the
relaxed triangle check, one cover round over points or read back by
position, the covered set of a layer and the checks of a state's weighted
instance; the views of the engine that only tests read: distances between
points and between coordinate blocks, a layer's members and clusters, a
point's center, a state's layer table, the live ids of a store, and
weighted instances built from or read back as ``(Point, weight)`` pairs;
:class:`ForcedDraws`, a sample stream whose cover-round draws are chosen
by the test, passed to the engine as ``DynamicParams(seed=...)``; the
seeding of a weighted solve drawn with ``rng.choice``; and the powered Gram
of an instance finished whole.

None of these is on an engine path. The brute-force enumerations carry hard
size guards and evaluate distances without touching the oracle counter; the
costs and distances that the engine's counted kernels would have computed
add their pairs to ``oracle.evals`` themselves, since the oracle's
aligned-pair kernel ``elementwise`` counts nothing. The oracle's kernels take
coordinates only, so the views over points set every same-id pair to 0
themselves: a point is at distance 0 from itself.
Test modules import this file as ``oracles`` (``tests/`` is not a package).
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from dynkmed import (
    ClusteringState,
    DistanceOracle,
    DynamicParams,
    Point,
    PointId,
    PointStore,
    Solution,
    WeightedInstance,
)
from dynkmed.dynamic import _cover_arrays

_BRUTE_FORCE_MAX_POINTS = 16
_BRUTE_FORCE_MAX_SUBSETS = 100_000


# -- views of points, instances, stores and states -----------------------------


def distance(oracle: DistanceOracle, x: Point, y: Point) -> float:
    """d(x, y): a one-pair call to the oracle's aligned-pair kernel, counted
    as one evaluation; 0 when the ids are equal."""
    oracle.evals += 1
    d = float(oracle.elementwise(x.coords[None], y.coords[None])[0])
    return 0.0 if x.id == y.id else d


def distances(oracle: DistanceOracle, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix between coordinate blocks ``a`` and ``b``, counted as
    the block kernel counts it: the kernel's product against ``prepare(b)``,
    finished by ``_root``."""
    return oracle._root(oracle.matrix_between(a, oracle.prepare(b)))


def pairwise(
    oracle: DistanceOracle, xs: Sequence[Point], ys: Sequence[Point], count: bool = True
) -> np.ndarray:
    """Distance matrix between two point sequences, in the given order, with
    every same-id pair at 0; ``count=False`` leaves the oracle's counter as
    it was."""
    if len(xs) == 0 or len(ys) == 0:
        return np.empty((len(xs), len(ys)), dtype=np.float64)
    evals = oracle.evals
    a = np.stack([p.coords for p in xs])
    b = np.stack([p.coords for p in ys])
    out = distances(oracle, a, b)
    out[np.equal.outer([p.id for p in xs], [p.id for p in ys])] = 0.0
    if not count:
        oracle.evals = evals
    return out


def instance_of(pairs: Iterable[tuple[Point, int]]) -> WeightedInstance:
    """The instance of ``(Point, weight)`` pairs given in any order."""
    ordered = sorted(pairs, key=lambda e: e[0].id)
    return WeightedInstance(
        np.array([q.id for q, _ in ordered], dtype=np.int64),
        np.array([q.coords for q, _ in ordered]) if ordered else np.empty((0, 0)),
        np.array([w for _, w in ordered], dtype=np.int64),
    )


def entries(instance: WeightedInstance) -> list[tuple[Point, int]]:
    """The instance as ``(Point, weight)`` pairs in id order."""
    ids, weights = instance.ids.tolist(), instance.weights.tolist()
    return [(Point(pid, row), w) for pid, row, w in zip(ids, instance.coords, weights)]


def live_ids(store: PointStore) -> list[PointId]:
    """The ids of a store's live points, ascending."""
    return store.row_ids[store.rows_by_id()].tolist()


def _slots(state: ClusteringState, index: int) -> tuple[int, int]:
    """The first and the end slot of layer index (1-based) in the table."""
    starts = [layer.start for layer in state.layers] + [len(state.center)]
    return starts[index - 1], starts[index]


def members(state: ClusteringState, index: int) -> set[PointId]:
    """U_index (1-based): the points covered at depth index or deeper."""
    start = state.layers[index - 1].start
    return set(state.store.row_ids[state.store.slot >= start].tolist())


def clusters(state: ClusteringState, index: int) -> dict[PointId, set[PointId]]:
    """The clusters of layer index (1-based) as center -> member ids."""
    lo, hi = _slots(state, index)
    ids = state.store.row_ids
    out = {int(ids[state.center[s]]): set() for s in range(lo, hi) if state.size[s]}
    rows = np.flatnonzero((state.store.slot >= lo) & (state.store.slot < hi))
    for pid, s in zip(ids[rows].tolist(), state.store.slot[rows].tolist()):
        out[int(ids[state.center[s]])].add(pid)
    return out


def assignment_of(state: ClusteringState, pid: PointId) -> PointId:
    """Current center of the unique cluster containing ``pid`` (KeyError
    for an id that is not live)."""
    return int(state.store.row_ids[state.center[state.store.slot[state.store.row(pid)]]])


def snapshot(state: ClusteringState) -> str:
    """Tab-separated dump: one line per layer with
    i, |U_i|, |S_i|, |C_i|, radius, base size, update counter."""
    sizes = [sum(state.size[layer.start :]) for layer in state.layers] + [0]
    lines = []
    for i, layer in enumerate(state.layers, start=1):
        lo, hi = _slots(state, i)
        kept = sum(1 for w in state.size[lo:hi] if w)
        lines.append(
            f"{i}\t{sizes[i - 1]}\t{kept}\t{sizes[i - 1] - sizes[i]}\t"
            f"{layer.radius!r}\t{layer.base_size}\t{layer.updates}"
        )
    return "\n".join(lines) + "\n"


# -- reference costs -----------------------------------------------------------


def cost_assignment(
    assignment: Mapping[PointId, PointId],
    points: Iterable[Point],
    p: float,
    oracle: DistanceOracle,
) -> float:
    """Cost of a point -> center map: sum of d(x, assignment[x])^p, where a
    point assigned to its own id is at distance 0."""
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
    oracle.evals += len(xs)
    d = oracle.elementwise(
        np.stack([by_id[pid].coords for pid in xs]), np.stack([by_id[pid].coords for pid in ys])
    )
    d[np.equal(xs, ys)] = 0.0
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
    known = {q.id: q for q, _ in entries(instance)}
    missing = [c for c in center_ids if c not in known]
    if missing:
        raise ValueError(f"centers {missing} are not instance points")
    if not center_ids:
        raise ValueError("center set must be nonempty")
    pairs = entries(instance)
    points = [q for q, _ in pairs]
    weights = np.array([w for _, w in pairs], dtype=np.float64)
    dmin = pairwise(oracle, points, [known[c] for c in center_ids]).min(axis=1)
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
        dxy = distance(oracle, x, y) ** p
        dxz = distance(oracle, x, z) ** p
        dzy = distance(oracle, z, y) ** p
        bound = rho * (dxz + dzy)
        if dxy > bound * (1.0 + rel_tol) + 1e-12:
            return False
    return True


# -- forced sample draws -------------------------------------------------------


class ForcedDraws(np.random.Generator):
    """A sample stream whose draws the test chooses: ``integers(low, high,
    size)`` returns ``positions(high, size)``, the sampled positions in the
    round's working set of ``high`` points in id order; every other draw
    comes from ``PCG64(0)``, whose ``bit_generator.state`` the engine may
    save and restore. ``np.random.default_rng`` returns a Generator as is,
    so ``DynamicParams(seed=ForcedDraws(...))`` forces every cover round of
    a state, and ``_cover_arrays`` takes one as its ``rng``."""

    def __init__(self, positions: Callable[[int, int], Sequence[int]]) -> None:
        super().__init__(np.random.PCG64(0))
        self.positions = positions

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        return np.asarray(self.positions(high, size), dtype=np.int64)


def first_draws() -> ForcedDraws:
    """Every draw is the working set's smallest id."""
    return ForcedDraws(lambda n, size: [0] * size)


def id_draws(ids: Sequence[PointId], sample: Sequence[PointId]) -> ForcedDraws:
    """Draws of the ids ``sample`` from a working set of the ids ``ids``, one
    round's: the ids are mapped to their positions in ascending id order
    when drawn, and an id outside the set raises ``ValueError`` then."""
    ordered = np.sort(np.asarray(ids, dtype=np.int64))

    def positions(n: int, size: int) -> np.ndarray:
        assert n == ordered.shape[0], "the working set is not the one the ids were given for"
        picked = np.asarray(sample, dtype=np.int64)
        outside = np.setdiff1d(picked, ordered)
        if outside.shape[0]:
            raise ValueError(f"sample id {outside[0]} is outside the working set")
        return np.searchsorted(ordered, picked)

    return ForcedDraws(positions)


# -- one cover round over points -----------------------------------------------


def cover_positions(
    matrix: np.ndarray,
    params: DynamicParams,
    rng: np.random.Generator,
    oracle: DistanceOracle,
    rows: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``_cover_arrays`` over ``rows`` of ``matrix`` (by default all of them),
    the working set in ascending id order, read back by position in it: the
    sampled centers, each covered row's cluster index (-1 on the
    rows it leaves over), the covered mask and the radius. Checks first that
    the layer and the rows left over split the working set, each in order,
    and that the sizes count the cluster indices."""
    rows = np.arange(matrix.shape[0]) if rows is None else rows
    n = rows.shape[0]
    (size, radius, layer_rows, group, centers, sizes), left = _cover_arrays(
        matrix, rows, params, rng, oracle)
    at = np.full(matrix.shape[0], -1)
    at[rows] = np.arange(n)
    covered, left = at[layer_rows], at[left]
    assert size == n and np.array_equal(np.sort(np.concatenate((covered, left))), np.arange(n))
    assert np.all(np.diff(covered) > 0) and np.all(np.diff(left) > 0)
    assert sizes == np.bincount(group).tolist() and group.shape == covered.shape
    nearest, mask = np.full(n, -1), np.zeros(n, dtype=bool)
    nearest[covered], mask[covered] = group, True
    return at[np.array(centers, dtype=np.int64)], nearest, mask, radius


def cover_round(
    points: Sequence[Point],
    params: DynamicParams,
    oracle: Optional[DistanceOracle] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[set[PointId], dict[PointId, PointId], float]:
    """``_cover_arrays`` over points, read back as (the sampled centers,
    covered point -> nearest center, radius)."""
    pts = sorted(points, key=lambda q: q.id)
    ids = np.array([q.id for q in pts], dtype=np.int64)
    coords = np.stack([q.coords for q in pts])
    rng = rng if rng is not None else np.random.default_rng(params.seed)
    pos, nearest, mask, radius = cover_positions(coords, params, rng, oracle or DistanceOracle())
    center_ids = ids[pos]
    assignment = {int(u): int(center_ids[j]) for u, j in zip(ids[mask], nearest[mask])}
    return set(center_ids.tolist()), assignment, radius


def covered(state: ClusteringState, index: int) -> set[PointId]:
    """C_index: the union of the members of layer index's clusters."""
    return set().union(*clusters(state, index).values())


def checked_instance(state: ClusteringState) -> WeightedInstance:
    """The weighted instance of a nonempty state, after checking it: ids
    strictly ascending and exactly the centers of the nonempty clusters,
    each weighted by its cluster's size (so weights are at least 1 and sum
    to the live count), and coordinates bit for bit the store rows of those
    ids."""
    inst = state.weighted_instance()
    ids = inst.ids.tolist()
    assert np.all(np.diff(inst.ids) > 0)
    assert np.all(inst.weights >= 1) and inst.total_weight == state.live_count
    assert dict(zip(ids, inst.weights.tolist())) == {
        int(state.store.row_ids[c]): w for c, w in zip(state.center, state.size) if w
    }
    rows = [state.store.row(pid) for pid in ids]
    assert inst.coords.tobytes() == state.store.matrix[rows].tobytes()
    return inst


# -- brute-force optima --------------------------------------------------------


def unit_instance(points: Iterable[Point]) -> WeightedInstance:
    """The points as an instance of unit weights: its weighted optimum is the
    plain optimum over the points."""
    return instance_of((q, 1) for q in points)


def seed_indices_by_choice(
    powered: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> list[int]:
    """Weighted distance-power seeding with each pick drawn by
    ``rng.choice(n, p=mass / total)``, checks and all: the reference for the
    solver's ``_seed_indices``, which must draw the same picks from the same
    stream. A total of 0 picks the smallest position not yet chosen."""
    n = powered.shape[0]
    chosen = [int(rng.choice(n, p=weights / weights.sum()))]
    dmin = powered[:, chosen[0]].copy()
    while len(chosen) < k:
        mass = weights * dmin
        total = mass.sum()
        if total <= 0.0:
            chosen.append(min(set(range(n)) - set(chosen)))
        else:
            chosen.append(int(rng.choice(n, p=mass / total)))
        np.minimum(dmin, powered[:, chosen[-1]], out=dmin)
    return chosen


def instance_gram(coords: np.ndarray, p: float, oracle: DistanceOracle) -> np.ndarray:
    """Powered distance matrix of instance coordinates against themselves,
    finished whole: ``distances(oracle, coords, coords).T ** p`` with
    the diagonal, each point's pair with itself, at 0. The reference for the
    pieces the solver finishes from the kernel's product alone."""
    gram = distances(oracle, coords, coords).T
    np.fill_diagonal(gram, 0.0)
    if p != 1.0:
        gram **= p
    return gram


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
    return pairwise(oracle, points, points, count=False) ** p


def brute_force_opt_weighted(
    instance: WeightedInstance, k: int, p: float, oracle: DistanceOracle
) -> Solution:
    """Exact weighted optimum over instance points; subset-count guarded.

    Ties go to the lexicographically smallest id tuple. Guarded to at most 24
    points and 1e5 subsets.
    """
    pairs = entries(instance)
    n = len(pairs)
    if n == 0:
        raise ValueError("instance must be nonempty")
    k_eff = _guard_subsets(n, k, max_points=24)
    pts = [q for q, _ in pairs]
    if k_eff == n:
        return Solution(frozenset(q.id for q in pts), 0.0)
    weights = np.array([w for _, w in pairs], dtype=np.float64)
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
    dist = pairwise(oracle, pts, pts, count=False)
    m = max(1, math.ceil(fraction * n - 1e-9))
    best = math.inf
    for subset in itertools.combinations(range(n), k_eff):
        dmin = dist[:, subset].min(axis=1)
        r = float(np.partition(dmin, m - 1)[m - 1])
        if r < best:
            best = r
    return best

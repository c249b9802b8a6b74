import numpy as np
import pytest

from dynkmed import (
    DistanceOracle,
    DynamicParams,
    Point,
    WeightedInstance,
    cost_set,
    points_from_array,
    preprocess,
    query,
    weighted_solve,
)
from dynkmed.solver import _instance_gram, _seed_indices
from oracles import (
    brute_force_coverage_radius,
    brute_force_opt_weighted,
    checked_instance,
    cost_assignment,
    cost_weighted,
    distance,
    entries,
    instance_of,
    pairwise,
    unit_instance,
)


def line_points(*coords):
    return points_from_array(np.array([[float(c)] for c in coords]))


def random_points(n, dim=2, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return points_from_array(rng.normal(0, scale, size=(n, dim)))


ORACLE = DistanceOracle()


def test_cost_set_examples():
    pts = line_points(0, 3, 10)
    assert cost_set(pts, pts, 1.0, ORACLE) == 0.0
    centers = [pts[0], pts[2]]
    assert cost_set(centers, pts, 1.0, ORACLE) == 3.0
    assert cost_set(centers, pts, 2.0, ORACLE) == 9.0
    assert cost_set(centers, [], 1.0, ORACLE) == 0.0
    with pytest.raises(ValueError):
        cost_set([], pts, 1.0, ORACLE)


def test_cost_assignment_identity_and_trace():
    pts = line_points(2, 4, 8)
    assert cost_assignment({0: 0, 1: 1, 2: 2}, pts, 1.0, ORACLE) == 0.0

    small = preprocess(pts, DynamicParams(k=2, phi=4))
    assert small.t == 1
    assert cost_assignment(small.assignment(), pts, 1.0, ORACLE) == 0.0

    # forced-sampler six-point trace: per-point distances 0+1+2 + 0+1 + 0
    trace_pts = line_points(0, 1, 2, 10, 11, 12)
    params = DynamicParams(
        k=2, phi=1, last_layer_threshold=2, sampler=lambda ids, n, rng: [ids[0]]
    )
    state = preprocess(trace_pts, params)
    assert cost_assignment(state.assignment(), trace_pts, 1.0, ORACLE) == 4.0

    with pytest.raises(ValueError):
        cost_assignment({0: 0}, pts, 1.0, ORACLE)


def test_cost_weighted_examples():
    pts = line_points(0, 2)
    inst = instance_of([(pts[0], 3), (pts[1], 1)])
    assert cost_weighted({0, 1}, inst, 1.0, ORACLE) == 0.0
    assert cost_weighted({0}, inst, 1.0, ORACLE) == 2.0
    with pytest.raises(ValueError):
        cost_weighted({5}, inst, 1.0, ORACLE)


def test_cost_weighted_unit_weights_bitwise_equal_cost_set():
    pts = random_points(23, dim=3, seed=8, scale=4.0)
    inst = instance_of([(p, 1) for p in pts])
    centers = {pts[4].id, pts[11].id, pts[19].id}
    center_pts = [p for p in pts if p.id in centers]
    for p in (1.0, 2.0):
        assert cost_weighted(centers, inst, p, ORACLE) == cost_set(
            center_pts, pts, p, ORACLE
        )


def test_weighted_instance_validation():
    pts = line_points(0, 1)
    with pytest.raises(ValueError):
        instance_of([(pts[0], 0)])
    with pytest.raises(ValueError):
        instance_of([(pts[0], 1), (pts[0], 2)])
    ids, coords = np.array([1, 2, 3]), np.zeros((3, 2))
    with pytest.raises(ValueError, match="one id, one coordinate row and one weight"):
        WeightedInstance([1, 2], coords, [1, 1])
    with pytest.raises(ValueError, match="one id, one coordinate row and one weight"):
        WeightedInstance(ids, coords, [1, 1])
    with pytest.raises(ValueError, match="one id, one coordinate row and one weight"):
        WeightedInstance(ids, np.zeros(3), [1, 1, 1])
    with pytest.raises(ValueError, match="one id, one coordinate row and one weight"):
        WeightedInstance(ids[:1], coords[:1], 1)
    with pytest.raises(ValueError, match="weights must be integers"):
        WeightedInstance(ids, coords, [1.5, 1, 2.0])
    with pytest.raises(ValueError, match="weights must be integers"):
        WeightedInstance(ids, coords, np.ones(3))
    assert WeightedInstance(ids, coords, [1, 1, 2]).total_weight == 4


def test_weighted_solve_small_instance_returned_whole():
    pts = line_points(1, 5)
    inst = instance_of([(pts[0], 2), (pts[1], 7)])
    sol = weighted_solve(inst, k=3, p=1.0, seed=0, oracle=ORACLE)
    assert sol.centers == {0, 1}
    assert sol.cost == 0.0
    with pytest.raises(ValueError):
        weighted_solve(instance_of([]), 1, 1.0, 0, ORACLE)
    with pytest.raises(ValueError):
        weighted_solve(inst, 0, 1.0, 0, ORACLE)


def test_weighted_solve_two_separated_clusters():
    rng = np.random.default_rng(3)
    left = rng.normal(0.0, 0.2, size=(6, 2))
    right = rng.normal(50.0, 0.2, size=(6, 2))
    pts = points_from_array(np.vstack([left, right]))
    inst = instance_of([(p, 1) for p in pts])
    best = brute_force_opt_weighted(inst, 2, 1.0, ORACLE)
    for seed in range(5):
        sol = weighted_solve(inst, 2, 1.0, seed, ORACLE)
        sides = {pid < 6 for pid in sol.centers}
        assert sides == {True, False}  # one center per blob
        assert sol.cost <= best.cost * 1.01 + 1e-12


def test_weighted_solve_against_brute_force_many_seeds():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        pts = points_from_array(rng.uniform(0, 10, size=(20, 2)))
        weights = rng.integers(1, 6, size=20)
        inst = instance_of([(p, int(w)) for p, w in zip(pts, weights)])
        sol = weighted_solve(inst, 3, 1.0, seed, ORACLE)
        best = brute_force_opt_weighted(inst, 3, 1.0, ORACLE)
        assert sol.cost <= 5.5 * best.cost + 1e-12
        assert cost_weighted(sol.centers, inst, 1.0, ORACLE) == pytest.approx(sol.cost)


def test_weighted_solve_never_worse_than_seeding():
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        pts = points_from_array(rng.normal(size=(18, 2)))
        weights = rng.integers(1, 4, size=18)
        inst = instance_of([(p, int(w)) for p, w in zip(pts, weights)])
        pairs = entries(inst)
        w = np.array([wt for _, wt in pairs], dtype=float)
        powered = pairwise(ORACLE, [q for q, _ in pairs], [q for q, _ in pairs])
        chosen = _seed_indices(powered, w, 4, np.random.default_rng(seed))
        seed_cost = float(np.sum(w * powered[:, chosen].min(axis=1)))
        sol = weighted_solve(inst, 4, 1.0, seed, ORACLE)
        assert sol.cost <= seed_cost + 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, 1.5])
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_instance_gram_equals_the_general_pairwise_path(p, offset):
    pts = random_points(40, dim=3, seed=31, scale=3.0)
    pts += points_from_array(np.stack([q.coords for q in pts[:6]]), start_id=40)
    general, fast = DistanceOracle(offset), DistanceOracle(offset)
    expected = pairwise(general, pts, pts).T ** p
    got = _instance_gram(np.stack([q.coords for q in pts]), p, fast)
    assert np.array_equal(got, expected)
    assert got.flags.f_contiguous
    assert fast.evals == general.evals == 46 * 46


def test_brute_force_opt_examples():
    # the plain optimum is the weighted one over unit weights
    pts = line_points(0, 1, 10)
    assert brute_force_opt_weighted(unit_instance(pts), 5, 1.0, ORACLE).cost == 0.0
    sol = brute_force_opt_weighted(unit_instance(pts), 2, 1.0, ORACLE)
    assert sol.cost == 1.0
    assert sol.centers == {0, 2}  # lexicographically first optimal subset

    # k = 1 equals a direct 1-median scan
    pts = random_points(9, seed=5)
    direct = min(
        sum(distance(ORACLE, x, c) for x in pts) for c in pts
    )
    assert brute_force_opt_weighted(unit_instance(pts), 1, 1.0, ORACLE).cost == pytest.approx(
        direct
    )


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_opt_weighted(unit_instance(random_points(25, seed=0)), 2, 1.0, ORACLE)
    with pytest.raises(ValueError):
        brute_force_opt_weighted(unit_instance(random_points(24, seed=0)), 12, 1.0, ORACLE)
    with pytest.raises(ValueError):
        brute_force_opt_weighted(unit_instance([]), 1, 1.0, ORACLE)
    with pytest.raises(ValueError):
        brute_force_coverage_radius(random_points(17, seed=0), 2, 0.5, ORACLE)


def test_brute_force_coverage_radius_examples():
    pts = line_points(0, 1, 2, 100)
    # quantile index at or below k: some subset covers itself entirely
    assert brute_force_coverage_radius(pts, 1, 0.25, ORACLE) == 0.0
    # k=1, fraction 0.75: enumerate all four singletons by hand -> 1
    assert brute_force_coverage_radius(pts, 1, 0.75, ORACLE) == 1.0


def test_brute_force_coverage_radius_monotone_in_fraction():
    pts = random_points(10, seed=12)
    for k in (1, 2, 3):
        values = [
            brute_force_coverage_radius(pts, k, g, ORACLE)
            for g in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert values == sorted(values)


def test_query_cost_zero_when_k_covers_everything():
    pts = line_points(0, 5, 9)
    state = preprocess(pts, DynamicParams(k=3, phi=4))
    sol = query(state, 3, 1.0, seed=1)
    assert sol.cost == 0.0
    assert sol.centers == {0, 1, 2}


def test_query_cost_zero_after_drain_below_k():
    # multi-layer state drained until fewer live points than k: the answer
    # is every live point, at cost zero, even though some were covered by
    # other centers
    pts = random_points(40, seed=19)
    state = preprocess(pts, DynamicParams(k=6, phi=8, seed=2))
    for p in pts[: len(pts) - 5]:
        state.delete(p.id)
    assert state.live_count == 5
    sol = query(state, 6, 1.0, seed=0)
    assert sol.cost == 0.0
    assert sol.centers == {p.id for p in state.live_points()}


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_cost_solve_and_query_reject_a_power_that_is_not_finite_and_at_least_1(p):
    pts = line_points(0, 5, 9)
    state = preprocess(pts, DynamicParams(k=2, phi=4))
    with pytest.raises(ValueError, match="power"):
        cost_set(pts[:1], pts, p, ORACLE)
    with pytest.raises(ValueError, match="power"):
        weighted_solve(instance_of([(q, 1) for q in pts]), 5, p, 0, ORACLE)
    with pytest.raises(ValueError, match="power"):
        query(state, 2, p)
    with pytest.raises(ValueError, match="power"):
        query(state, 10, p)  # n <= k: checked before the whole set is returned


def test_query_repeatable_for_fixed_seed():
    state = preprocess(random_points(80, seed=3), DynamicParams(k=4, phi=10, seed=2))
    a = query(state, 4, 1.0, seed=9)
    b = query(state, 4, 1.0, seed=9)
    assert a == b


def test_query_measured_extraction_bound():
    # extraction guarantee with both approximation factors measured exactly
    for seed in range(30):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(8, 15))
        k = int(rng.integers(2, 4))
        pts = points_from_array(rng.uniform(0, 4, size=(n, 2)))
        params = DynamicParams(k=k, phi=3, last_layer_threshold=3, seed=seed)
        state = preprocess(pts, params)
        oracle = state.oracle

        opt = brute_force_opt_weighted(unit_instance(pts), k, 1.0, oracle).cost
        assert opt > 0.0
        phi_hat = cost_assignment(state.assignment(), pts, 1.0, oracle) / opt

        inst = state.weighted_instance()
        answer = query(state, k, 1.0, seed=seed)
        opt_w = brute_force_opt_weighted(inst, k, 1.0, oracle).cost
        got_w = cost_weighted(answer.centers, inst, 1.0, oracle)
        psi_hat = got_w / opt_w if opt_w > 0 else 1.0

        bound = (phi_hat + 2.0 * (1.0 + phi_hat) * psi_hat) * opt
        assert answer.cost <= bound * (1.0 + 1e-9)


def test_solution_cost_matches_cost_set_on_full_set():
    pts = random_points(60, seed=7)
    state = preprocess(pts, DynamicParams(k=3, phi=8, seed=1))
    sol = query(state, 3, 1.0, seed=4)
    centers = [p for p in pts if p.id in sol.centers]
    assert sol.cost == cost_set(centers, pts, 1.0, state.oracle)


def shuffled_state(seed, offset=0.0):
    """A state whose store has freed and reused rows, and whose ids were
    inserted out of order, some of them ids of deleted points."""
    rng = np.random.default_rng(seed)
    coords = rng.normal(0.0, 2.0, size=(140, 3))
    ids = (3 * rng.permutation(80)).tolist()
    pts = [Point(pid, c) for pid, c in zip(ids, coords)]
    state = preprocess(pts, DynamicParams(k=3, phi=8, seed=seed), DistanceOracle(offset))
    fresh = iter(coords[80:])
    for victim in ids[:30:2]:                      # 15 deletes
        state.delete(victim)
    for pid in (1000, 500, 7, ids[0], 2, ids[4], 301, 1):   # 8 inserts
        state.insert(Point(pid, next(fresh)))
    return state


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cost_set_over_a_point_store_equals_the_point_list(p):
    pts = random_points(80, dim=3, seed=12, scale=2.0)
    state = preprocess(pts, DynamicParams(k=3, phi=8, seed=2), DistanceOracle(0.05))
    for pid, fresh in zip((5, 17, 40), random_points(3, dim=3, seed=13)):
        state.delete(pid)
        # the new point takes the freed store row, out of id order
        state.insert(Point(100 + pid, fresh.coords))
    live = state.live_points()
    centers = [live[i] for i in (3, 30, 60)]
    by_store, by_list = DistanceOracle(0.05), DistanceOracle(0.05)
    got = cost_set(centers, state.store, p, by_store)
    assert repr(got) == repr(cost_set(centers, live, p, by_list))
    assert by_store.evals == by_list.evals == 80 * 3
    # centers given by id are read from their store rows
    assert repr(cost_set([c.id for c in centers[::-1]], state.store, p, by_store)) == repr(got)

    state = shuffled_state(5, 0.05)
    assert state.live_count == 73 and len(state.store._free) == 7
    live = state.live_points()
    for picks in ((0, 36, 72), (5,), tuple(range(0, 73, 4))):
        centers = [live[i] for i in picks]
        by_store, by_list = DistanceOracle(0.05), DistanceOracle(0.05)
        got = cost_set(centers, state.store, p, by_store)
        assert repr(got) == repr(cost_set(centers, live, p, by_list))
        assert by_store.evals == by_list.evals == 73 * len(picks)


def test_weighted_instance_is_the_center_rows_in_id_order():
    for seed in range(6):
        state = shuffled_state(seed)
        inst = checked_instance(state)
        assert len(inst) == len(entries(inst)) < state.live_count
        assert [q.id for q, _ in entries(inst)] == inst.ids.tolist()


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_weighted_solve_is_the_same_for_an_array_and_an_entries_instance(p):
    for seed in range(6):
        state = shuffled_state(seed, 0.01)
        arrays = state.weighted_instance()
        # the pairs in table order, layer by layer, not in id order
        from_pairs = instance_of(
            [(state.store.get(int(state.store.row_ids[c])), w)
             for c, w in zip(state.center, state.size) if w]
        )
        by_arrays, by_entries = DistanceOracle(0.01), DistanceOracle(0.01)
        got = weighted_solve(arrays, 3, p, seed, by_arrays)
        expected = weighted_solve(from_pairs, 3, p, seed, by_entries)
        assert got == expected and repr(got.cost) == repr(expected.cost)
        assert by_arrays.evals == by_entries.evals == len(arrays) ** 2

import re
import warnings

import numpy as np
import pytest

from dynkmed import (
    DistanceOracle,
    DynamicParams,
    Point,
    PointStore,
    WeightedInstance,
    cost_set,
    points_from_array,
    preprocess,
    query,
    weighted_solve,
)
from dynkmed.solver import _FINISHED, _PANEL, _Finish, _instance_gram, _seed_indices
from oracles import (
    brute_force_coverage_radius,
    brute_force_opt_weighted,
    checked_instance,
    cost_assignment,
    cost_weighted,
    distance,
    entries,
    first_draws,
    instance_gram,
    instance_of,
    pairwise,
    seed_indices_by_choice,
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


def test_cost_set_names_what_is_wrong_with_center_ids():
    pts = line_points(0, 3, 10)
    with pytest.raises(ValueError, match="centers given as ids need a PointStore universe"):
        cost_set([0, 2], pts, 1.0, ORACLE)
    store = PointStore()
    store.add_many(pts)
    assert cost_set([0, 2], store, 1.0, ORACLE) == 3.0
    with pytest.raises(ValueError, match=r"center ids \[99\] are not in the store"):
        cost_set([0, 99], store, 1.0, ORACLE)


def test_cost_assignment_identity_and_trace():
    pts = line_points(2, 4, 8)
    assert cost_assignment({0: 0, 1: 1, 2: 2}, pts, 1.0, ORACLE) == 0.0

    small = preprocess(pts, DynamicParams(k=2, phi=4))
    assert small.t == 1
    assert cost_assignment(small.assignment(), pts, 1.0, ORACLE) == 0.0

    # forced-draw six-point trace: per-point distances 0+1+2 + 0+1 + 0
    trace_pts = line_points(0, 1, 2, 10, 11, 12)
    params = DynamicParams(k=2, phi=1, seed=first_draws())
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
    with pytest.raises(ValueError, match="ids must be integers"):
        WeightedInstance([1.5, 2.5, 3.5], coords, [1, 1, 1])
    # the order is read by comparing ids, never from differences, which wrap
    # for unsigned and narrow integers
    for dtype, order in ((np.uint64, [5, 3]), (np.int8, [100, -100])):
        with pytest.raises(ValueError, match=f"duplicate or unordered point id {order[1]}$"):
            WeightedInstance(np.array(order, dtype=dtype), coords[:2], [1, 1])
    assert WeightedInstance(np.array([-100, 100], dtype=np.int8), coords[:2], [1, 1]).total_weight == 2
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


@pytest.mark.parametrize("k", [2.5, 3.0, np.float64(2.0), True, "2", None])
def test_query_and_weighted_solve_reject_a_non_integer_k(k):
    pts = random_points(30, seed=4)
    state = preprocess(pts, DynamicParams(k=2, phi=5, seed=4))
    message = re.escape(f"k must be an integer, got {k!r}")
    with pytest.raises(ValueError, match=message):
        query(state, k, 1.0)
    with pytest.raises(ValueError, match=message):
        weighted_solve(unit_instance(pts), k, 1.0)
    for low in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="k must be at least 1"):
            query(state, low, 1.0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            weighted_solve(unit_instance(pts), low, 1.0)
    assert len(query(state, np.int64(3), 1.0).centers) == 3


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
        chosen, _ = _seed_indices(powered, w, 4, np.random.default_rng(seed), _FINISHED)
        seed_cost = float(np.sum(w * powered[:, chosen].min(axis=1)))
        sol = weighted_solve(inst, 4, 1.0, seed, ORACLE)
        assert sol.cost <= seed_cost + 1e-12


def test_seed_indices_draw_what_rng_choice_draws():
    # repeated points make tied and zero masses, and fewer distinct points
    # than k leave a total of 0 once every location is picked; the seeding
    # reads the kernel's product and finishes each pick's column itself,
    # bit for bit the column of the whole Gram
    picks = 0
    for seed in range(80):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        distinct = rng.normal(size=(int(rng.integers(1, n + 1)), 2))
        coords = distinct[rng.integers(0, distinct.shape[0], n)]
        weights = rng.integers(1, 5, n).astype(np.float64)
        p, oracle = (1.0, 2.0, 1.5)[seed % 3], DistanceOracle(0.1 * (seed % 2))
        powered = instance_gram(coords, p, oracle)
        product = oracle.matrix_between(coords, oracle.prepare(coords))
        np.fill_diagonal(product, -np.inf)
        k = int(rng.integers(1, n))
        got_stream, want_stream = np.random.default_rng(seed), np.random.default_rng(seed)
        got, near = _seed_indices(product.T, weights, k, got_stream, _Finish(oracle, p))
        assert got == seed_indices_by_choice(powered, weights, k, want_stream)
        assert got_stream.random() == want_stream.random()  # as many draws taken
        assert near.shape == (n, k) and near.tobytes() == powered[:, got].tobytes()
        assert _seed_indices(powered, weights, k, np.random.default_rng(seed), _FINISHED)[0] == got
        picks += k
    assert picks > 1000


def test_seed_indices_raise_when_the_masses_overflow():
    # weight 4 overflows one mass; weight 1 leaves each mass finite and their sum not
    for weight in (4.0, 1.0):
        powered = np.full((3, 3), 1e308)
        np.fill_diagonal(powered, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^seeding masses .* overflow float64$"):
                _seed_indices(powered, np.full(3, weight), 2, np.random.default_rng(0), _FINISHED)
    # through the API: the squared distances are finite, the weighted ones not
    inst = WeightedInstance(np.arange(3), np.array([[0.0], [5e153], [1e154]]), np.full(3, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^seeding masses"):
            weighted_solve(inst, 2, 2.0, 0)


@pytest.mark.parametrize("p", [1.0, 2.0, 1.5])
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_instance_gram_equals_the_general_pairwise_path(p, offset):
    # the solver's dense read finishes the kernel's product whole, in place
    pts = random_points(40, dim=3, seed=31, scale=3.0)
    pts += [Point(40 + i, q.coords) for i, q in enumerate(pts[:6])]
    general, fast = DistanceOracle(offset), DistanceOracle(offset)
    expected = pairwise(general, pts, pts).T ** p
    coords = np.stack([q.coords for q in pts])
    product = fast.matrix_between(coords, fast.prepare(coords))
    np.fill_diagonal(product, -np.inf)
    _Finish(fast, p)(product, np.diag_indices(46), product)
    got = product.T
    assert np.array_equal(got, expected)
    assert got.flags.f_contiguous
    assert fast.evals == general.evals == 46 * 46


@pytest.mark.parametrize("offset", [0.0, 0.3])
@pytest.mark.parametrize("m", [1, 191, 192, 193, 500])
def test_instance_gram_panels_mirror_each_other_and_count_each_panel_once(m, offset):
    # panels of 192 rows: each against the rows from its own first row on,
    # the block below it mirrored; an instance of at most 192 rows is one
    # panel, bit for bit the whole product
    assert _PANEL == 192
    coords = np.random.default_rng(m).normal(0.0, 3.0, size=(m, 5))
    oracle = DistanceOracle(offset)
    gram = _instance_gram(coords, oracle)
    assert oracle.evals == sum(min(_PANEL, m - lo) * (m - lo) for lo in range(0, m, _PANEL))
    panel = np.arange(m) // _PANEL
    across = panel[:, None] != panel[None, :]
    assert gram[across].tobytes() == gram.T[across].tobytes()
    if m <= _PANEL:
        assert gram.tobytes() == DistanceOracle(offset).matrix_between(coords, oracle.prepare(coords)).tobytes()
    else:
        assert oracle.evals < m * m


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
        params = DynamicParams(k=k, phi=3, seed=seed)
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


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cost_set_over_a_store_costs_a_deleted_center_by_its_coordinates(p):
    # The CLI's stale baseline (--baseline static:q, q above the query
    # spacing) costs Point copies of centers that may since have been
    # deleted; here the deleted center's row holds a new point. The store
    # form reads the copies, as the point list does: the new point is costed
    # against the deleted center's coordinates, not zeroed as a center's row
    pts = random_points(60, dim=3, seed=21, scale=2.0)
    state = preprocess(pts, DynamicParams(k=3, phi=8, seed=4), DistanceOracle(0.05))
    centers = [state.store.get(pid) for pid in (4, 25, 47)]
    row = state.store.row(25)
    state.delete(25)
    state.insert(Point(100, centers[1].coords + 0.5))   # takes the deleted center's row
    assert state.store.row(100) == row and 25 not in state.store
    live = state.live_points()
    by_store, by_list = DistanceOracle(0.05), DistanceOracle(0.05)
    got = cost_set(centers, state.store, p, by_store)
    assert repr(got) == repr(cost_set(centers, live, p, by_list))
    assert by_store.evals == by_list.evals == 60 * 3
    terms = [min(distance(by_list, q, c) for c in centers) ** p for q in live]
    assert terms[-1] == distance(by_list, live[-1], centers[1]) ** p > 0.0
    assert got == pytest.approx(sum(terms), rel=1e-12)
    row_read = [centers[0], state.store.get(100), centers[2]]   # what the row holds now
    assert cost_set(row_read, state.store, p, by_store) != got
    with pytest.raises(ValueError, match=r"center ids \[25\] are not in the store"):
        cost_set([c.id for c in centers], state.store, p, by_store)


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


def test_id_sorts_give_the_permutation_of_the_default_sort():
    # rows_by_id and weighted_instance sort distinct ids with a stable sort,
    # which is faster than the default one and must pick the same order
    for seed in range(6):
        state = shuffled_state(seed)
        store = state.store
        live = np.delete(np.arange(store._used), store._free)
        assert store.rows_by_id().tolist() == live[np.argsort(store.row_ids[live])].tolist()
        sizes = np.array(state.size)
        centers = np.array(state.center)[sizes > 0]
        expected = centers[np.argsort(store.row_ids[centers])]
        assert state.weighted_instance().ids.tolist() == store.row_ids[expected].tolist()


def test_a_power_that_overflows_float64_is_named():
    # d^3 of points 1e110 apart is about 1e330: the Gram of a query and the
    # cost over the live set both overflow, with no warning escaping
    pts = random_points(40, seed=5, scale=1e110)
    state = preprocess(pts, DynamicParams(k=3, phi=8, seed=1))
    with pytest.raises(ValueError, match="overflow"):
        query(state, 3, 3.0)
    with pytest.raises(ValueError, match="overflow"):
        cost_set(pts[:3], pts, 3.0, ORACLE)
    with pytest.raises(ValueError, match="overflow"):
        cost_set([q.id for q in pts[:3]], state.store, 3.0, ORACLE)
    assert cost_set(pts[:3], pts, 2.0, ORACLE) > 0.0   # d^2 still fits
    # each d^2 is finite, 3.6e307, but six of them sum past the float64 range
    far = line_points(0, *[6e153] * 3, *[-6e153] * 3)
    with pytest.raises(ValueError, match="^distances to the power 2.0 overflow float64$"):
        cost_set(far[:1], far, 2.0, ORACLE)

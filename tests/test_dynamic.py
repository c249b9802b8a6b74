import math

import numpy as np
import pytest

from dynkmed import (
    ClusteringState,
    DistanceOracle,
    DynamicParams,
    points_from_array,
    preprocess,
    sliding_window_stream,
)
from oracles import (
    assignment_of,
    clusters,
    cover_round,
    covered,
    distance,
    entries,
    live_ids,
    members,
    pairwise,
    snapshot,
)


def gaussian_points(n, dim=2, seed=0, start_id=0):
    rng = np.random.default_rng(seed)
    return points_from_array(rng.normal(0, 5, size=(n, dim)), start_id=start_id)


def line_points(*coords):
    return points_from_array(np.array([[float(c)] for c in coords]))


def first_id_sampler(ids, count, rng):
    return [ids[0]] * count


def big_state(n=300, phi=20, threshold=40, seed=3, k=5):
    # sized so that a single update never exhausts any layer's slack budget
    params = DynamicParams(k=k, phi=phi, last_layer_threshold=threshold, seed=seed)
    state = preprocess(gaussian_points(n, seed=seed), params)
    assert min(layer.base_size for layer in state.layers) > 1.0 / params.slack
    return state


def test_preprocess_small_input_trivial():
    pts = line_points(1, 2, 3)
    state = preprocess(pts, DynamicParams(k=2, phi=5))
    assert state.t == 1
    assert members(state, 1) == set(clusters(state, 1)) == covered(state, 1) == {0, 1, 2}
    for pid in (0, 1, 2):
        assert assignment_of(state, pid) == pid
    assert state.integrity_check() == []


def test_preprocess_rejects_empty():
    with pytest.raises(ValueError):
        preprocess([], DynamicParams(k=1, phi=1))


def test_preprocess_invariants_and_layer_bound():
    params = DynamicParams(k=5, phi=50, last_layer_threshold=50, seed=11)
    state = preprocess(gaussian_points(500, seed=11), params)
    assert state.integrity_check() == []
    assert state.t <= math.ceil(math.log(500 / 50) / math.log(1 / params.shrink_factor)) + 1
    assert state.t <= 5
    for i in range(1, state.t):
        above, below = members(state, i), members(state, i + 1)
        assert below <= above
        assert len(below) <= params.shrink_factor * len(above) + 1e-9


def test_rebuild_from_layer_one_matches_static_pipeline():
    state = big_state(seed=7)
    params = state.params
    rng_clone = np.random.default_rng(0)
    rng_clone.bit_generator.state = state.rng.bit_generator.state

    state.rebuild_from_layer(1)

    remaining = state.live_points()
    fresh_oracle = DistanceOracle()
    for i, layer in enumerate(state.layers[:-1], start=1):
        centers, assignment, radius = cover_round(
            remaining, params, oracle=fresh_oracle, rng=rng_clone
        )
        assert set(assignment) == covered(state, i)
        assert radius == layer.radius
        assert centers == set(clusters(state, i))
        remaining = [p for p in remaining if p.id not in assignment]
    assert {p.id for p in remaining} == members(state, state.t)
    for layer in state.layers:
        assert layer.updates == 0


def test_rebuild_from_layer_index_guard():
    state = big_state()
    with pytest.raises(IndexError):
        state.rebuild_from_layer(0)
    with pytest.raises(IndexError):
        state.rebuild_from_layer(state.t + 1)


def test_forced_sampler_hand_trace():
    pts = line_points(0, 1, 2, 10, 11, 12)
    params = DynamicParams(
        k=2, phi=1, last_layer_threshold=2, sampler=first_id_sampler
    )
    state = preprocess(pts, params)
    assert state.t == 3
    assert [layer.radius for layer in state.layers] == [2.0, 1.0, 0.0]
    assert clusters(state, 1) == {0: {0, 1, 2}}
    assert clusters(state, 2) == {3: {3, 4}}
    assert clusters(state, 3) == {5: {5}}
    assert state.assignment() == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 5}
    weights = {p.id: w for p, w in entries(state.weighted_instance())}
    assert weights == {0: 3, 3: 2, 5: 1}


def test_insert_self_assigns_in_last_layer():
    state = big_state()
    evals_before = state.oracle.evals
    new = points_from_array(np.array([[100.0, 100.0]]), start_id=9000)[0]
    state.insert(new)
    assert assignment_of(state, 9000) == 9000
    assert clusters(state, state.t)[9000] == {9000}
    assert state.oracle.evals == evals_before  # no rebuild, no distance work
    assert state.integrity_check() == []


def test_insert_bumps_every_layer_counter_pre_rebuild():
    state = big_state()
    before = [layer.updates for layer in state.layers]
    observed = {}
    original = state.rebuild

    def spy():
        observed["counters"] = [layer.updates for layer in state.layers]
        original()

    state.rebuild = spy
    state.insert(points_from_array(np.array([[1.0, 1.0]]), start_id=9001)[0])
    assert observed["counters"] == [c + 1 for c in before]


def test_insert_duplicate_id_rejected():
    state = big_state()
    pid = live_ids(state.store)[0]
    clone = points_from_array(np.array([[0.0, 0.0]]), start_id=pid)[0]
    with pytest.raises(ValueError):
        state.insert(clone)


def test_tenth_consecutive_update_rebuilds_top_layer():
    # top layer of size 100 with slack 0.1 tolerates 9 updates; the 10th trips it
    params = DynamicParams(k=3, phi=10, beta=0.5, epsilon=0.2, seed=5)
    state = preprocess(gaussian_points(100, seed=5), params)
    assert state.layers[0].base_size == 100
    assert params.slack == pytest.approx(0.1)
    fresh = gaussian_points(10, seed=99, start_id=500)
    for i, p in enumerate(fresh, start=1):
        state.insert(p)
        if i < 10:
            assert state.layers[0].updates == i
            assert state.layers[0].base_size == 100
        else:
            assert state.layers[0].updates == 0
            assert state.layers[0].base_size == 110
    assert state.integrity_check() == []


def test_delete_non_center_member():
    state = big_state(seed=9)
    before = clusters(state, 1)
    center, group = next((c, m) for c, m in before.items() if len(m) >= 2)
    victim = max(group - {center})
    state.delete(victim)
    after = clusters(state, 1)
    assert after.keys() == before.keys()
    assert after[center] == group - {victim}
    assert victim not in members(state, 1)
    assert state.integrity_check() == []


def test_delete_center_promotes_smallest_member():
    state = big_state(seed=21)
    layer = state.layers[0]
    old_center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 3)
    expected = min(group - {old_center})
    state.delete(old_center)
    after = clusters(state, 1)
    assert after[expected] == group - {old_center} and old_center not in after
    # every survivor sits within twice the layer radius of the new center
    oracle, store = state.oracle, state.store
    for pid in after[expected]:
        d = distance(oracle, store.get(pid), store.get(expected))
        assert d <= 2 * layer.radius + 1e-9
    assert state.integrity_check() == []


def test_delete_last_layer_singleton_drops_cluster():
    state = big_state(seed=13)
    victim = sorted(members(state, state.t))[0]
    clusters_before = len(clusters(state, state.t))
    evals_before = state.oracle.evals
    state.delete(victim)
    assert len(clusters(state, state.t)) == clusters_before - 1
    assert victim not in clusters(state, state.t)
    assert state.oracle.evals == evals_before
    assert state.integrity_check() == []


def test_delete_unknown_id_rejected():
    state = big_state()
    with pytest.raises(KeyError):
        state.delete(10**9)


def test_rebuild_noop_when_within_slack():
    state = big_state(seed=2)
    before = snapshot(state)
    state.rebuild()
    assert snapshot(state) == before


def test_rebuild_from_exact_violating_layer():
    params = DynamicParams(k=4, phi=25, seed=17)
    state = preprocess(gaussian_points(600, seed=17), params)
    assert state.t >= 4
    top_two = [id(state.layers[0]), id(state.layers[1])]
    counters = [state.layers[0].updates, state.layers[1].updates]
    state.layers[2].updates = 10**6  # fault injection
    state.rebuild()
    assert [id(state.layers[0]), id(state.layers[1])] == top_two
    assert [state.layers[0].updates, state.layers[1].updates] == counters
    assert state.layers[2].updates == 0
    assert state.layers[2].base_size == len(members(state, 3))
    assert state.integrity_check() == []


def test_invariants_hold_over_seeded_stream():
    params = DynamicParams(k=4, phi=25, seed=1)
    state = preprocess(gaussian_points(250, seed=1), params)
    rng = np.random.default_rng(100)
    pool = gaussian_points(400, seed=101, start_id=10_000)
    next_new = 0
    live = set(live_ids(state.store))
    for step in range(1000):
        if (rng.random() < 0.55 and next_new < len(pool)) or len(live) < 5:
            state.insert(pool[next_new])
            live.add(pool[next_new].id)
            next_new += 1
        else:
            victim = sorted(live)[int(rng.integers(0, len(live)))]
            state.delete(victim)
            live.discard(victim)
        slack = params.slack
        for layer in state.layers:
            assert layer.updates <= slack * layer.base_size + 1e-9
    assert state.integrity_check() == []


def test_assignment_of_center_and_covered():
    state = big_state(seed=33)
    layer = state.layers[0]
    center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 2)
    assert assignment_of(state, center) == center
    member = min(group - {center})
    assert assignment_of(state, member) == center
    d = distance(state.oracle, state.store.get(member), state.store.get(center))
    assert d <= 2 * layer.radius + 1e-9
    with pytest.raises(KeyError):
        assignment_of(state, 10**9)


def test_weighted_instance_trivial_and_sum():
    pts = line_points(5, 6, 7)
    state = preprocess(pts, DynamicParams(k=2, phi=4))
    inst = state.weighted_instance()
    assert [(p.id, w) for p, w in entries(inst)] == [(0, 1), (1, 1), (2, 1)]

    state = big_state(seed=41)
    rng = np.random.default_rng(4)
    pool = gaussian_points(50, seed=42, start_id=5000)
    for i, p in enumerate(pool):
        if rng.random() < 0.6:
            state.insert(p)
        else:
            victim = live_ids(state.store)[0]
            state.delete(victim)
        inst = state.weighted_instance()
        assert inst.total_weight == state.live_count


def test_weighted_instance_empty_state_rejected():
    state = ClusteringState(DynamicParams(k=1, phi=1))
    with pytest.raises(ValueError):
        state.weighted_instance()


def test_integrity_check_flags_corruption():
    state = big_state(seed=55)
    state.center[0] = 10**8  # corrupt: a center row out of range
    report = state.integrity_check()
    assert report
    assert any("layer 1: cluster slot 0: center row 100000000 is not a member" in line for line in report)

    state = big_state(seed=55)
    state.center[0] = state.center[-1]  # a live point's row, but it holds another slot
    report = state.integrity_check()
    assert any(f"cluster slot 0: center row {state.center[0]} is not a member" in line for line in report)

    state = big_state(seed=55)
    row = next(r for r in np.flatnonzero(state.slot >= 0) if state.center[state.slot[r]] != r)
    state.delete(int(state.store.row_ids[row]))
    state.center[0] = int(row)  # a freed row
    report = state.integrity_check()
    assert any(f"cluster slot 0: center row {row} is not a member" in line for line in report)


def test_integrity_check_flags_point_map_corruption():
    state = big_state(seed=55)
    center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 2)
    moved = max(group - {center})
    source, target = state.slot[state.store.row(moved)], len(state.center) - 1
    state.slot[state.store.row(moved)] = target  # the point's slot names another cluster
    report = state.integrity_check()
    assert any(f"cluster slot {source}: size" in line for line in report)
    assert any(f"cluster slot {target}: size" in line for line in report)

    state = big_state(seed=55)
    state.size[0] += 1  # a wrong size count
    report = state.integrity_check()
    assert any("cluster slot 0: size" in line for line in report)
    assert any("do not add up to the live point count" in line for line in report)


def test_update_locality_no_rebuild_means_no_distance_work():
    state = big_state(seed=66)
    evals = state.oracle.evals
    p = points_from_array(np.array([[3.0, 3.0]]), start_id=7777)[0]
    state.insert(p)
    state.delete(7777)
    assert state.oracle.evals == evals


def test_snapshot_schema():
    state = big_state(seed=8)
    lines = snapshot(state).strip().split("\n")
    assert len(lines) == state.t
    for i, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert len(fields) == 7
        assert int(fields[0]) == i
        layer = state.layers[i - 1]
        assert [int(fields[1]), int(fields[2]), int(fields[3])] == [
            len(members(state, i)),
            len(clusters(state, i)),
            len(covered(state, i)),
        ]
        assert float(fields[4]) == layer.radius
        assert [int(fields[5]), int(fields[6])] == [layer.base_size, layer.updates]


def test_delete_to_empty_and_repopulate():
    pts = line_points(0, 1, 2)
    state = preprocess(pts, DynamicParams(k=1, phi=2))
    for pid in (0, 1, 2):
        state.delete(pid)
    assert state.live_count == 0
    assert state.t == 1
    assert state.integrity_check() == []
    state.insert(line_points(9)[0])
    assert state.live_count == 1
    assert assignment_of(state, 0) == 0
    assert state.integrity_check() == []


def test_empty_state_constructor():
    state = ClusteringState(DynamicParams(k=2, phi=3))
    assert state.live_count == 0 and state.t == 1
    assert state.integrity_check() == []
    state.insert(line_points(1)[0])
    assert state.live_count == 1


def test_cluster_members_pairwise_within_twice_radius():
    state = big_state(seed=77)
    rng = np.random.default_rng(6)
    pool = gaussian_points(60, seed=78, start_id=4000)
    for i, p in enumerate(pool):
        if rng.random() < 0.5:
            state.insert(p)
        else:
            state.delete(live_ids(state.store)[int(rng.integers(0, state.live_count))])
    for i, layer in enumerate(state.layers, start=1):
        for ids in clusters(state, i).values():
            group = [state.store.get(m) for m in sorted(ids)]
            dist = pairwise(state.oracle, group, group, count=False)
            assert dist.max() <= 2 * layer.radius + 1e-9


def test_amortized_distance_work_budget():
    # total evaluations over a long seeded stream stay under
    # c * m * k' * t * log2(n) for the frozen calibration constant c = 6,
    # where k' = max(k, ceil(log2(n + 2))) grows the center budget with log n
    from dynkmed import Point, synthetic_points, SyntheticSpec

    pts = synthetic_points(SyntheticSpec(6, 3, 1000), 3)
    params = DynamicParams(k=10, phi=50, seed=4)
    state = preprocess(pts, params)
    state.oracle.evals = 0
    pool = [
        Point(p.id + 10**6, p.coords)
        for p in synthetic_points(SyntheticSpec(6, 3, 1200), 5)
    ]
    rng = np.random.default_rng(8)
    live = set(live_ids(state.store))
    nxt = 0
    m = 1200
    for _ in range(m):
        if rng.random() < 0.5 and nxt < len(pool):
            state.insert(pool[nxt])
            live.add(pool[nxt].id)
            nxt += 1
        else:
            victim = sorted(live)[int(rng.integers(0, len(live)))]
            state.delete(victim)
            live.discard(victim)
    k_prime = max(params.k, math.ceil(math.log2(len(live) + 2)))
    budget = 6.0 * m * k_prime * state.t * math.log2(len(live))
    assert state.oracle.evals <= budget


def test_store_memory_tracks_the_live_count_over_a_long_slide():
    window = 60
    pts = gaussian_points(10 * window, seed=4)
    state = preprocess(pts[:window], DynamicParams(k=3, phi=10, seed=4))
    max_live, max_table = state.live_count, len(state.center)
    for step, point in enumerate(pts[window:]):
        state.insert(point)
        max_live = max(max_live, state.live_count)
        max_table = max(max_table, len(state.center))
        state.delete(pts[step].id)
        max_table = max(max_table, len(state.center))
    assert state.store.matrix.shape[0] <= 2 * max_live
    assert max_table <= 2 * max_live
    live = state.live_points()
    assert [p.id for p in live] == [p.id for p in pts[-window:]]
    np.testing.assert_array_equal(
        state.store.matrix[state.store.rows_by_id()], np.stack([p.coords for p in live])
    )
    assert state.integrity_check() == []


class FlakyEuclidean:
    """A custom metric that raises once ``budget`` more calls have been made;
    ``budget=None`` means it never fails."""

    def __init__(self):
        self.budget = None

    def __call__(self, a, b):
        if self.budget is not None:
            if self.budget == 0:
                raise RuntimeError("metric unavailable")
            self.budget -= 1
        return float(np.linalg.norm(a - b))


def test_failed_rebuild_leaves_the_state_unchanged():
    params = DynamicParams(k=2, phi=4, last_layer_threshold=8, seed=6)
    pts = gaussian_points(90, seed=6)
    metric = FlakyEuclidean()
    state = preprocess(pts, params, DistanceOracle(0.01, base=metric))
    twin = preprocess(pts, params, DistanceOracle(0.01, base=FlakyEuclidean()))
    assert state.t >= 3
    before = (snapshot(state), state.assignment())
    # the first round of a rebuild from layer 1 makes 90 * |sample| calls,
    # so the metric fails in a later round
    metric.budget = 90 * 4 + 10
    with pytest.raises(RuntimeError):
        state.rebuild_from_layer(1)
    assert (snapshot(state), state.assignment()) == before
    metric.budget = None
    assert state.integrity_check() == []
    # the sample stream is restored too: a retry rebuilds what a state that
    # never failed builds
    state.rebuild_from_layer(1)
    twin.rebuild_from_layer(1)
    assert (snapshot(state), state.assignment()) == (snapshot(twin), twin.assignment())


def test_update_whose_rebuild_fails_is_kept_and_the_next_update_rebuilds():
    params = DynamicParams(k=2, phi=4, last_layer_threshold=8, seed=6)
    metric = FlakyEuclidean()
    state = preprocess(gaussian_points(90, seed=6), params, DistanceOracle(0.01, base=metric))
    t = state.t
    metric.budget = 0
    fresh = iter(gaussian_points(40, seed=7, start_id=1000))
    with pytest.raises(RuntimeError):
        while True:
            state.insert(next(fresh))
    assert state.t == t
    metric.budget = None
    problems = state.integrity_check()
    assert problems and all("slack invariant broken" in p for p in problems)
    state.insert(next(fresh))
    assert state.integrity_check() == []
    assert state.live_count == len(state.assignment())


def test_integrity_check_reports_a_custom_metric_that_returns_nan():
    params = DynamicParams(k=2, phi=4, last_layer_threshold=8, seed=6)
    metric = FlakyEuclidean()
    state = preprocess(gaussian_points(90, seed=6), params, DistanceOracle(0.01, base=metric))
    assert state.integrity_check() == []
    # the 2*radius check reads the metric through the oracle's aligned-pair
    # kernel, so a NaN is rejected there and reported, never compared
    state.oracle.base = lambda a, b: float("nan")
    problems = state.integrity_check()
    assert problems and all("custom metric returned nan" in p for p in problems)


def test_preprocess_of_overflowing_coordinates_names_the_overflow():
    # finite coordinates whose squared norms overflow float64
    pts = points_from_array(np.random.default_rng(5).normal(size=(60, 2)) * 1e200)
    with pytest.raises(ValueError, match="overflow"):
        preprocess(pts, DynamicParams(k=2, phi=5, seed=1))


@pytest.mark.parametrize("shift", [0.0, 1e4, 1e6, 1e8])
def test_sliding_window_keeps_every_invariant_far_from_the_origin(shift):
    # unit spread at offset 0: far from the origin, a kernel whose rounding
    # error grows with the coordinates' magnitude returns radii of 0 and
    # breaks the 2*radius check
    pts = points_from_array(np.random.default_rng(0).normal(size=(1500, 3)) + shift)
    state = ClusteringState(DynamicParams(k=5, phi=40, seed=1), DistanceOracle(0.0))
    for step, (op, pid) in enumerate(sliding_window_stream(1500, 300)):
        if op == "insert":
            state.insert(pts[pid])
        else:
            state.delete(pid)
        assert state.integrity_check() == [], step

import copy
import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from dynkmed import (
    ClusteringState,
    DistanceOracle,
    DynamicParams,
    Point,
    points_from_array,
    preprocess,
    sliding_window_stream,
)
from dynkmed import dynamic, metric
from oracles import (
    assignment_of,
    center_rows,
    checked_instance,
    clusters,
    cover_round,
    covered,
    distance,
    entries,
    first_draws,
    line_points,
    live_ids,
    members,
    pairwise,
    sizes,
    snapshot,
)


def gaussian_points(n, dim=2, seed=0, start_id=0):
    rng = np.random.default_rng(seed)
    return [Point(start_id + i, row) for i, row in enumerate(rng.normal(0, 5, size=(n, dim)))]


def big_state(n=300, phi=20, seed=3, k=5):
    # sized so that a single update never exhausts any layer's slack budget
    params = DynamicParams(k=k, phi=phi, seed=seed)
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
    params = DynamicParams(k=5, phi=50, seed=11)
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
    params = DynamicParams(k=2, phi=1, seed=first_draws())
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
    new = Point(9000, np.array([100.0, 100.0]))
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
    state.insert(Point(9001, np.array([1.0, 1.0])))
    assert observed["counters"] == [c + 1 for c in before]


def test_insert_duplicate_id_rejected():
    state = big_state()
    pid = live_ids(state.store)[0]
    clone = Point(pid, np.array([0.0, 0.0]))
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


def test_a_delete_writes_only_the_points_slot_and_centers_resolve_in_id_order():
    # the center goes, then its successor: the cluster resolves to the next
    # smallest id, and neither delete writes another slot or the table
    state = big_state(seed=21)
    old_center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 3)
    s = state.store.slot[state.store.row(old_center)]
    first, second = sorted(group - {old_center})[:2]
    for victim, survivors in ((old_center, group - {old_center}), (first, group - {old_center, first})):
        row, slot, table = state.store.row(victim), state.store.slot.copy(), list(state.center)
        state.delete(victim)
        slot[row] = -1
        assert np.array_equal(state.store.slot, slot) and state.center == table
        assert clusters(state, 1)[min(survivors)] == survivors
        assert state.store.row_ids[center_rows(state)[s]] == min(survivors) and sizes(state)[s] == len(survivors)
    inst = checked_instance(state)
    assert inst.weights[inst.ids.tolist().index(second)] == len(group) - 2
    assert state.integrity_check() == []


def test_a_cluster_that_loses_every_point_leaves_the_instance():
    state = big_state(seed=21)
    center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 3)
    s = state.store.slot[state.store.row(center)]
    before = checked_instance(state)
    for pid in sorted(group):
        state.delete(pid)
    assert center_rows(state)[s] == -1 and sizes(state)[s] == 0
    assert center not in clusters(state, 1) and not group & set(state.assignment())
    inst = checked_instance(state)
    assert inst.ids.tolist() == [pid for pid in before.ids.tolist() if pid != center]
    assert state.integrity_check() == []


def test_an_insert_into_a_deleted_centers_row_is_its_own_center():
    # the free list is LIFO: the next insert takes the deleted center's row and
    # a later slot, and the center's cluster still resolves to its survivor
    state = big_state(seed=21)
    old_center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 2)
    row, s = state.store.row(old_center), state.store.slot[state.store.row(old_center)]
    state.delete(old_center)
    state.insert(Point(9999, np.array([40.0, 40.0])))
    assert state.store.row(9999) == row and state.center[s] == row
    assert state.store.slot[row] == len(state.center) - 1 and state.center[-1] == row
    assert assignment_of(state, 9999) == 9999
    assert state.store.row_ids[center_rows(state)[s]] == min(group - {old_center})
    assert clusters(state, 1)[min(group - {old_center})] == group - {old_center}
    assert state.integrity_check() == []


def test_slot_scans_see_exactly_the_used_rows_of_a_store_with_free_rows(monkeypatch):
    # 300 rows handed out of a 512-row capacity, then 40 of them freed and
    # 15 reused: U_i and a cluster's members are found among the used rows
    state = big_state(seed=5)
    store = state.store
    for pid in range(0, 200, 5):
        state.delete(pid)
    for point in gaussian_points(15, seed=8, start_id=1000):
        state.insert(point)
    assert len(store) < store.used < store.row_ids.shape[0] == state.store.slot.shape[0]
    assert np.all(state.store.slot[store.used :] == -1)
    seen = []
    rebuild = state._rebuild

    def spy(index, rows):
        seen.append(rows)
        rebuild(index, rows)

    monkeypatch.setattr(state, "_rebuild", spy)
    for index in range(state.t, 0, -1):
        want = members(state, index)
        state.rebuild_from_layer(index)
        assert np.all(seen[-1] < store.used)
        assert sorted(store.row_ids[seen[-1]].tolist()) == sorted(want)
        assert state.layers[index - 1].base_size == len(want)
    old_center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 3)
    state.delete(old_center)
    assert clusters(state, 1)[min(group - {old_center})] == group - {old_center}
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
    assert any("layer 1: cluster slot 0: center row 100000000 is outside the store" in line for line in report)
    assert state.weighted_instance().total_weight == state.live_count

    # a center row that holds another slot, or a freed row, no longer holds
    # its cluster's: the cluster resolves to its smallest-id live member
    state = big_state(seed=55)
    group = set(state.store.row_ids[state.store.slot == 0].tolist())
    state.center[0] = state.center[-1]  # a live point's row, but it holds another slot
    assert clusters(state, 1)[min(group)] == group and assignment_of(state, max(group)) == min(group)
    assert state.integrity_check() == []

    state = big_state(seed=55)
    row = next(r for r in np.flatnonzero(state.store.slot > 0) if state.center[state.store.slot[r]] != r)
    state.delete(int(state.store.row_ids[row]))
    group = set(state.store.row_ids[state.store.slot == 0].tolist())
    state.center[0] = int(row)  # a freed row
    assert clusters(state, 1)[min(group)] == group and assignment_of(state, max(group)) == min(group)
    assert state.integrity_check() == []


def test_integrity_check_flags_point_map_corruption():
    state = big_state(seed=55)
    center, group = next((c, m) for c, m in clusters(state, 1).items() if len(m) >= 2)
    moved = max(group - {center})
    state.store.slot[state.store.row(moved)] = len(state.center) - 1  # the point's slot names another cluster
    report = state.integrity_check()  # the 2*radius check: a last-layer cluster has radius 0
    assert any(f"layer {state.t}: point {moved} at distance" in line and "exceeds 2*radius=0" in line
               for line in report)

    state = big_state(seed=55)
    state.store.slot[state.store.row(moved)] = -1  # a live point that holds no slot
    report = state.integrity_check()
    assert any("do not add up to the live point count" in line for line in report)


def test_integrity_check_flags_the_layer_count_and_shrink_bounds():
    state = preprocess(gaussian_points(8), DynamicParams(k=1, phi=10))
    assert state.t == 1 and not state.integrity_check()
    state.layers.append(dynamic.Layer(len(state.center)))  # an empty extra layer
    assert state.integrity_check() == ["layer count 2 exceeds bound 1 for n=8"]

    state = big_state(seed=55)
    state.layers[1].start = state.layers[0].start  # layer 2 now holds all of U_1
    bound = state.params.shrink_factor * 300
    assert f"layer 2: size 300 exceeds shrink bound {bound:.3f} from layer 1" in state.integrity_check()


def test_update_locality_no_rebuild_means_no_distance_work():
    state = big_state(seed=66)
    evals = state.oracle.evals
    p = Point(7777, np.array([3.0, 3.0]))
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


def test_a_steady_slide_keeps_the_store_and_the_table_bounded():
    # each insert takes the row the last delete freed: nothing grows with the
    # length of the slide, checked after every update of five windows
    window = 200
    pts = gaussian_points(6 * window, seed=5)
    state = preprocess(pts[:window], DynamicParams(k=3, phi=10, seed=5))
    store, capacity = state.store, state.store.matrix.shape[0]
    assert capacity == 256
    for step, point in enumerate(pts[window:]):
        for update in (lambda: state.insert(point), lambda: state.delete(pts[step].id)):
            update()
            assert store.matrix.shape[0] == state.store.slot.shape[0] == capacity
            assert len(store._free) <= 1 and store.used <= window + 1
            assert len(state.center) <= window // 2
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
    params = DynamicParams(k=2, phi=4, seed=6)
    pts = gaussian_points(90, seed=6)
    metric = FlakyEuclidean()
    state = preprocess(pts, params, DistanceOracle(0.01, base=metric))
    twin = preprocess(pts, params, DistanceOracle(0.01, base=FlakyEuclidean()))
    assert state.t >= 3
    before = (snapshot(state), state.assignment(), state.stats())
    # the first round of a rebuild from layer 1 makes 90 * |sample| calls,
    # so the metric fails in a later round
    metric.budget = 90 * 4 + 10
    with pytest.raises(RuntimeError):
        state.rebuild_from_layer(1)
    assert (snapshot(state), state.assignment(), state.stats()) == before
    metric.budget = None
    assert state.integrity_check() == []
    # the sample stream is restored too: a retry rebuilds what a state that
    # never failed builds
    state.rebuild_from_layer(1)
    twin.rebuild_from_layer(1)
    assert (snapshot(state), state.assignment()) == (snapshot(twin), twin.assignment())


def test_failed_rebuild_past_the_first_chunk_leaves_the_state_unchanged(monkeypatch):
    # 768-row chunks; the metric returns NaN for every pair of one point that
    # the first round of the rebuild leaves unsampled past 1536 other
    # unsampled rows, so only its third chunk or a later one evaluates it
    monkeypatch.setattr(metric, "_CHUNK_ENTRIES", 1)
    n, phi, poisoned = 2000, 4, 1900
    pts = gaussian_points(n, seed=9)
    bad = {float(pts[poisoned].coords[0])}
    armed = []

    def l2(a, b):
        if armed and (float(a[0]) in bad or float(b[0]) in bad):
            return float("nan")
        return float(np.linalg.norm(a - b))

    state = preprocess(pts, DynamicParams(k=2, phi=phi, seed=9), DistanceOracle(0.01, base=l2))
    before = (copy.deepcopy(state.layers), list(state.center),
              state.store.slot.copy(), state.rng.bit_generator.state, state.stats())
    draws = np.random.default_rng(0)
    draws.bit_generator.state = state.rng.bit_generator.state
    sampled = np.unique(draws.integers(0, n, phi))  # the first round's sample, by id
    assert poisoned not in sampled
    c, at = sampled.shape[0], poisoned - np.count_nonzero(sampled < poisoned)
    assert at // 768 >= 2
    evals = state.oracle.evals
    armed.append(True)
    with pytest.raises(ValueError, match="custom metric returned nan"):
        state.rebuild_from_layer(1)
    # the pairs of the chunks reached are counted, the failing one's included
    assert state.oracle.evals - evals == min((at // 768 + 1) * 768, n - c) * c
    after = (state.layers, state.center, state.store.slot, state.rng.bit_generator.state, state.stats())
    assert all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(after, before))


def test_a_layer_one_rebuild_traces_the_live_set_and_one_chunk():
    # a cover round holds one chunk of its block at a time: about 60,000 5-d
    # points at phi 200 would need a 95 MB block in one call
    state = preprocess(gaussian_points(60_000, dim=5, seed=4), DynamicParams(k=5, phi=200, seed=4))
    store = state.store
    live = store.matrix.nbytes + store.row_ids.nbytes + store.slot.nbytes
    chunk = 8 * 768 * 200  # at most phi distinct centers in a 768-row chunk
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state.rebuild_from_layer(1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert state.t >= 5 and peak <= 2 * live + 4 * chunk


def test_update_whose_rebuild_fails_is_kept_and_the_next_update_rebuilds():
    params = DynamicParams(k=2, phi=4, seed=6)
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
    params = DynamicParams(k=2, phi=4, seed=6)
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


@pytest.mark.parametrize("base", [None, FlakyEuclidean()], ids=["euclidean", "custom-metric"])
def test_integrity_check_counts_no_evaluations_over_a_slide(base):
    # the 2*radius check reads distances through the aligned-pair kernel,
    # which counts nothing: a checked slide counts what an unchecked one does
    pts = gaussian_points(300, seed=12)
    params = DynamicParams(k=3, phi=10, seed=12)
    checked = preprocess(pts[:120], params, DistanceOracle(0.01, base=base))
    plain = preprocess(pts[:120], params, DistanceOracle(0.01, base=base))
    assert checked.t > 1
    for i in range(120, 300):
        for state in (checked, plain):
            state.insert(pts[i])
            state.delete(pts[i - 120].id)
        evals = checked.oracle.evals
        assert checked.integrity_check() == []
        assert checked.oracle.evals == evals == plain.oracle.evals


def test_stats_add_up_to_what_the_rebuilds_and_their_cover_rounds_did(monkeypatch):
    # spies on rebuild_from_layer and on each cover round tally, per depth,
    # what the counters must hold; the oracle's count is what they must sum to
    pts = gaussian_points(600, seed=21)
    params = DynamicParams(k=3, phi=10, seed=21)
    state, twin = (preprocess(pts[:200], params, DistanceOracle(0.01)) for _ in range(2))
    (bulk,) = state.stats().values()  # preprocess is one depth-1 rebuild
    assert list(state.stats()) == [1] and state.stats() == twin.stats()
    assert (bulk["rebuilds"], bulk["points"], bulk["rounds"], bulk["evals"]) == (1, 200, state.t - 1,
                                                                                 state.oracle.evals)
    before, evals, seen, depth = state.stats(), state.oracle.evals, defaultdict(Counter), []
    rebuild_from_layer, cover_arrays = ClusteringState.rebuild_from_layer, dynamic._cover_arrays

    def spy_rebuild(self, index):
        depth.append(index)
        rebuild_from_layer(self, index)
        seen[depth.pop()].update(rebuilds=1, points=self.layers[index - 1].base_size)

    def spy_round(matrix, rows, params, rng, oracle):
        start = oracle.evals
        result = cover_arrays(matrix, rows, params, rng, oracle)
        seen[depth[-1]].update(rounds=1, empty_rounds=int(oracle.evals == start))
        return result

    for i in range(200, 600):  # a slide with no queries, the twin's unwatched
        twin.insert(pts[i])
        twin.delete(pts[i - 200].id)
    monkeypatch.setattr(ClusteringState, "rebuild_from_layer", spy_rebuild)
    monkeypatch.setattr(dynamic, "_cover_arrays", spy_round)
    for i in range(200, 600):
        state.insert(pts[i])
        state.delete(pts[i - 200].id)
    stats = state.stats()
    assert stats == twin.stats() and len(seen) > 2
    added = {i: {f: n - before.get(i, Counter())[f] for f, n in c.items()} for i, c in stats.items()}
    assert sum(c["evals"] for c in added.values()) == state.oracle.evals - evals > 0
    for i, c in added.items():
        assert Counter({f: c[f] for f in ("rebuilds", "points", "rounds", "empty_rounds")}) == seen[i], i


@pytest.mark.parametrize("pid", ["a", 2**70, -(2**63) - 1, 1.5, True, None])
def test_a_bad_point_id_is_rejected_before_the_store_takes_a_row(pid):
    state = preprocess(gaussian_points(50, seed=2), DynamicParams(k=3, phi=8, seed=2))
    state.delete(7)  # a free row that a failed insert must not take either
    before = (len(state.store), state.store.used, state.store.rows_by_id().tolist(),
              [(p.id, p.coords.tolist()) for p in state.live_points()], state.oracle.evals)
    with pytest.raises(ValueError, match="point id must be an integer that fits in int64"):
        state.insert(Point(pid, np.array([1.0, 2.0])))
    after = (len(state.store), state.store.used, state.store.rows_by_id().tolist(),
             [(p.id, p.coords.tolist()) for p in state.live_points()], state.oracle.evals)
    assert after == before
    assert state.integrity_check() == []
    for fine in (2**63 - 1, -(2**63), np.int64(9001)):
        state.insert(Point(fine, np.array([1.0, 2.0])))
    assert state.live_count == 52


def fields(state):
    """Every field an update writes: the layers, the slots, the cluster table,
    the store's row ids, free rows, id map and coordinate rows, the sample
    stream and the evaluation count. Rows past ``used`` were never written."""
    store = state.store
    return ([(l.start, l.radius, l.base_size, l.updates, l.due) for l in state.layers],
            state.store.slot.tolist(), list(state.center), store.used,
            store.row_ids[: store.used].tolist(), list(store._free), dict(store._rows),
            store.matrix[: store.used].tobytes(), state.rng.bit_generator.state, state.oracle.evals)


@pytest.mark.parametrize("reject", ["duplicate id", "wrong dimension", "unknown id"])
def test_a_rejected_update_leaves_the_state_exactly_as_it_was(reject):
    pts = gaussian_points(420, seed=8)
    params = DynamicParams(k=3, phi=20, seed=8)
    state, twin = preprocess(pts[:300], params), preprocess(pts[:300], params)
    for i in range(300, 320):  # a free row to take, and counters part way to their budget
        for s in (state, twin):
            s.insert(pts[i])
            s.delete(pts[i - 300].id)
    assert state.store._free and any(layer.updates for layer in state.layers)
    before, arrays = fields(state), (state.store.matrix.tobytes(), state.store.row_ids.tobytes())
    if reject == "unknown id":
        with pytest.raises(KeyError):
            state.delete(10**9)
    else:
        point = Point(pts[310].id, np.zeros(2)) if reject == "duplicate id" else Point(9000, np.zeros(3))
        with pytest.raises(ValueError, match="already present" if reject == "duplicate id" else "dimension"):
            state.insert(point)
    assert fields(state) == before
    assert (state.store.matrix.tobytes(), state.store.row_ids.tobytes()) == arrays
    assert state.integrity_check() == []
    # the next valid updates, rebuilds among them, go as on a state that
    # never saw the rejected one
    evals = state.oracle.evals
    for i in range(320, 420):
        for s in (state, twin):
            s.insert(pts[i])
            s.delete(pts[i - 300].id)
        assert fields(state) == fields(twin)
    assert state.oracle.evals > evals
    assert state.integrity_check() == []


def test_an_insert_stream_across_store_doublings_gives_every_row_a_slot():
    pts = gaussian_points(300, seed=9)
    state = preprocess(pts[:10], DynamicParams(k=2, phi=4, seed=9))
    capacities = [state.store.matrix.shape[0]]
    for i in range(10, 300):
        state.insert(pts[i])
        if i % 3 == 0:  # a freed row, reused by the next insert
            state.delete(pts[i - 5].id)
        store = state.store
        assert state.store.slot.shape[0] >= store.used
        live = sorted(store.row(pid) for pid in live_ids(store))
        assert np.flatnonzero(state.store.slot >= 0).tolist() == live
        assert state.integrity_check() == []
        capacities.append(store.matrix.shape[0])
    assert len(set(capacities)) >= 4  # 16 -> 32 -> 64 -> 128 -> 256 rows

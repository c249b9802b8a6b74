import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynkmed
from dynkmed import (
    ClusteringState,
    DistanceOracle,
    DynamicParams,
    Point,
    PointStore,
    cost_set,
    points_from_array,
)
from oracles import distance, distances, live_ids, pairwise, relaxed_triangle_ok


def pt(pid, *coords):
    return Point(pid, np.array(coords, dtype=float))


def test_distance_same_id_is_zero():
    oracle = DistanceOracle()
    x = pt(4, 1.5, 2.5)
    assert distance(oracle, x, x) == 0.0


def test_distance_one_dimensional():
    oracle = DistanceOracle()
    assert distance(oracle, pt(0, 0.0), pt(1, 3.0)) == 3.0


def test_distance_offset_applied_to_distinct_pairs():
    oracle = DistanceOracle(offset=0.25)
    assert distance(oracle, pt(0, 0.0), pt(1, 3.0)) == 3.25
    assert distance(oracle, pt(0, 0.0), pt(0, 0.0)) == 0.0


def test_identical_coords_distinct_ids():
    x, y = pt(1, 2.0, 3.0), pt(2, 2.0, 3.0)
    assert distance(DistanceOracle(), x, y) == 0.0
    assert distance(DistanceOracle(offset=0.5), x, y) == 0.5


def test_dimension_mismatch_rejected():
    oracle = DistanceOracle()
    with pytest.raises(ValueError):
        distance(oracle, pt(0, 0.0), pt(1, 0.0, 1.0))


def test_symmetry_and_nonnegativity_seeded():
    oracle = DistanceOracle(offset=0.1)
    rng = np.random.default_rng(11)
    pts = points_from_array(rng.normal(size=(30, 4)))
    for x, y in itertools.combinations(pts, 2):
        d = distance(oracle, x, y)
        assert d == distance(oracle, y, x)
        assert d >= 0.1


def nearest(oracle, x, candidates):
    """Distance from x to a candidate set and the nearest id: the first
    minimum of a ``pairwise`` row over the candidates in id order."""
    pts = sorted(candidates, key=lambda q: q.id)
    row = pairwise(oracle, [x], pts)[0]
    j = int(np.argmin(row))
    return float(row[j]), pts[j].id


def test_dist_to_set_tie_breaks_to_smallest_id():
    oracle = DistanceOracle()
    x = pt(5, 5.0)
    near, far = pt(0, 0.0), pt(1, 10.0)
    assert nearest(oracle, x, [far, near]) == (5.0, 0)


def test_dist_to_set_member_and_singleton():
    oracle = DistanceOracle()
    x = pt(3, 4.0)
    assert nearest(oracle, x, [pt(9, 0.0), x]) == (0.0, 3)
    assert nearest(oracle, pt(0, 0.0), [pt(1, 7.0)]) == (7.0, 1)


def test_relaxed_triangle_plain_metric():
    oracle = DistanceOracle()
    rng = np.random.default_rng(5)
    pts = points_from_array(rng.normal(size=(60, 3)))
    triples = [tuple(rng.choice(len(pts), 3, replace=False)) for _ in range(200)]
    triples = [(pts[a], pts[b], pts[c]) for a, b, c in triples]
    assert relaxed_triangle_ok(oracle, triples, 1.0)


def test_relaxed_triangle_squared_boundary_case():
    # 1-D points 0, 2 with midpoint 1: 4 <= 2 * (1 + 1) holds with equality
    oracle = DistanceOracle()
    x, y, z = pt(0, 0.0), pt(1, 2.0), pt(2, 1.0)
    assert relaxed_triangle_ok(oracle, [(x, y, z)], 2.0)


def test_relaxed_triangle_powers_seeded():
    oracle = DistanceOracle(offset=0.01)
    rng = np.random.default_rng(17)
    pts = points_from_array(rng.uniform(-3, 3, size=(40, 5)))
    idx = [tuple(rng.choice(len(pts), 3, replace=False)) for _ in range(300)]
    triples = [(pts[a], pts[b], pts[c]) for a, b, c in idx]
    for p in (1.0, 2.0, 3.0):
        assert relaxed_triangle_ok(oracle, triples, p)


def test_relaxed_triangle_detects_violation():
    # without the 2^(p-1) slack the squared distances violate the plain
    # triangle inequality; an inflation factor of 1 must report that
    def relaxed(base):
        return base

    oracle = DistanceOracle()
    x, y, z = pt(0, 0.0), pt(1, 2.0), pt(2, 1.0)
    dxy = distance(oracle, x, y) ** 2
    assert dxy > distance(oracle, x, z) ** 2 + distance(oracle, z, y) ** 2


def test_eval_counter_scalar_and_batch():
    oracle = DistanceOracle()
    a, b = pt(0, 0.0), pt(1, 3.0)
    distance(oracle, a, b)
    distance(oracle, a, a)
    assert oracle.evals == 2
    pts = [pt(i, float(i)) for i in range(5)]
    pairwise(oracle, pts, pts[:3])
    assert oracle.evals == 2 + 15
    coords = np.stack([p.coords for p in pts])
    # the aligned-pair kernel is the uncounted one of diagnostics
    oracle.elementwise(coords[:4], coords[1:5])
    assert oracle.evals == 17


def test_eval_counter_deterministic_over_batch():
    rng = np.random.default_rng(3)
    pts = points_from_array(rng.normal(size=(20, 2)))
    counts = []
    for _ in range(2):
        oracle = DistanceOracle()
        pairwise(oracle, pts[:12], pts[12:])
        pairwise(oracle, [pts[0]], pts[5:11])
        counts.append(oracle.evals)
    assert counts[0] == counts[1] == 12 * 8 + 6


def test_pairwise_matches_scalar_distance():
    rng = np.random.default_rng(23)
    pts = points_from_array(rng.normal(scale=4.0, size=(15, 6)))
    oracle = DistanceOracle(offset=0.2)
    mat = pairwise(oracle, pts, pts)
    for i in range(15):
        for j in range(15):
            assert mat[i, j] == pytest.approx(distance(oracle, pts[i], pts[j]), abs=1e-9)


@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_distance_is_the_one_pair_elementwise_kernel(offset):
    rng = np.random.default_rng(29)
    for dim in (1, 2, 7, 64):
        xs = points_from_array(rng.normal(scale=3.0, size=(200, dim)))
        ys = [Point(1000 + i, row) for i, row in enumerate(rng.normal(scale=3.0, size=(200, dim)))]
        oracle = DistanceOracle(offset)
        d = oracle.elementwise(np.stack([p.coords for p in xs]), np.stack([p.coords for p in ys]))
        assert oracle.evals == 0  # uncounted; distance() counts its one pair
        assert np.all(d >= offset)
        for i, (x, y) in enumerate(zip(xs, ys)):
            assert repr(distance(oracle, x, y)) == repr(float(d[i]))
        assert oracle.evals == 200
    with pytest.raises(ValueError):
        oracle.elementwise(np.zeros((2, 3)), np.zeros((3, 3)))


def test_custom_base_metric():
    def manhattan(a, b):
        return float(np.abs(a - b).sum())

    oracle = DistanceOracle(base=manhattan)
    assert distance(oracle, pt(0, 0.0, 0.0), pt(1, 1.0, 2.0)) == 3.0
    mat = pairwise(oracle, [pt(0, 0.0, 0.0)], [pt(1, 1.0, 2.0), pt(2, 2.0, 2.0)])
    assert mat.tolist() == [[3.0, 4.0]]


@pytest.mark.parametrize("offset", [float("nan"), float("inf"), -0.5])
def test_offset_must_be_finite_and_nonnegative(offset):
    # rejected at construction: a NaN offset makes every cover-round distance
    # NaN, so no point is ever covered and preprocess would not return, and
    # an infinite one makes the first query's seeding probabilities NaN
    with pytest.raises(ValueError, match="offset must be finite and nonnegative"):
        DistanceOracle(offset)


def test_point_validation():
    with pytest.raises(ValueError):
        Point(0, np.array([np.inf, 1.0]))
    with pytest.raises(ValueError):
        Point(0, np.zeros((2, 2)))


def test_point_store_gather_and_dimension_guard():
    store = PointStore()
    pts = [pt(3, 1.0, 1.0), pt(7, 2.0, 5.0), pt(1, 0.0, -1.0)]
    for p in pts:
        store.add(p)
    assert live_ids(store) == [1, 3, 7]
    np.testing.assert_array_equal(
        store.matrix[store.rows_by_id()], np.array([[0.0, -1.0], [1.0, 1.0], [2.0, 5.0]])
    )
    with pytest.raises(ValueError):
        store.add(pt(9, 1.0))  # wrong dimension
    with pytest.raises(ValueError):
        store.add(pt(3, 0.0, 0.0))  # duplicate id
    assert [store.row_ids[store.row(i)] for i in (1, 3, 7)] == [1, 3, 7]
    freed = store.row(3)
    store.remove(3)
    assert 3 not in store and len(store) == 2
    assert store.row_ids[store.rows_by_id()].tolist() == [1, 7]
    assert store.add(pt(8, 4.0, 4.0)) == freed and store.row_ids[freed] == 8
    assert store.add(pt(2, 0.0, 0.0)) == 3  # a new row, while the freed one is in use
    assert store.row_ids[store.rows_by_id()].tolist() == [1, 2, 7, 8]


def test_store_by_id_orders_any_live_rows_by_their_ids():
    # the free list is LIFO, so freeing and refilling rows leaves row order
    # and id order apart; by_id orders any subset of live rows by id, and
    # rows_by_id is by_id of all of them
    store, rng = PointStore(), np.random.default_rng(5)
    store.add_many(points_from_array(rng.normal(size=(40, 2))))
    alive = list(range(40))
    for pid in range(40, 88, 8):
        for gone in rng.choice(alive, 8, replace=False).tolist():
            store.remove(gone)
            alive.remove(gone)
        for new in range(pid, pid + 8):
            store.add(Point(new, rng.normal(size=2)))
            alive.append(new)
    live = np.array([store.row(i) for i in alive])       # in id order: alive ascends
    assert not np.array_equal(np.sort(live), live)         # row order is not id order
    for subset in (live, rng.permutation(live), rng.permutation(live)[:13], live[:1], live[:0]):
        got = store.by_id(subset)
        assert sorted(got.tolist()) == sorted(subset.tolist())
        assert store.row_ids[got].tolist() == sorted(store.row_ids[subset].tolist())
    assert np.array_equal(store.rows_by_id(), store.by_id(rng.permutation(live)))
    assert np.array_equal(store.rows_by_id(), live)


@pytest.mark.parametrize("bulk", [False, True])
def test_store_grows_the_slot_array_with_its_rows(bulk):
    # The store owns each row's slot: it grows it with matrix and row_ids,
    # from add and add_many alike, rows it hands out fresh read -1, and it
    # writes no row below ``used``, reused and removed ones included, so
    # what the owner wrote there survives every growth
    store, rng = PointStore(), np.random.default_rng(4)
    assert store.slot.shape == (0,) and store.slot.dtype == np.int64
    capacities = []
    for start in range(0, 300, 23):
        used, before = store.used, store.slot[: store.used].copy()
        batch = [Point(pid, rng.normal(size=2)) for pid in range(start, start + 23)]
        rows = store.add_many(batch) if bulk else np.array([store.add(q) for q in batch])
        assert store.slot.shape[0] == store.matrix.shape[0] == store.row_ids.shape[0]
        assert np.array_equal(store.slot[:used], before)
        assert np.all(store.slot[used:] == -1)
        assert np.all(store.slot[rows[rows >= used]] == -1) and np.any(rows < used) == (start > 0)
        store.slot[rows] = 1000 + rows                  # the owner writes the rows it got
        kept = store.slot.copy()
        for pid in (start, start + 5, start + 11):
            store.remove(pid)
        assert np.array_equal(store.slot, kept)
        capacities.append(store.matrix.shape[0])
    assert len(set(capacities)) >= 4                    # 16 or 32 -> ... -> 256 rows


def _store_state(store):
    used = store._used
    return (
        store.dim, store.matrix.shape, store.matrix[:used].tobytes(),
        store.row_ids.shape, store.row_ids[:used].tolist(), dict(store._rows),
        list(store._free), len(store),
    )


@pytest.mark.parametrize("first, removed", [(0, []), (5, [2]), (40, [3, 17, 9, 30]), (40, range(40))])
def test_add_many_equals_one_add_per_point(first, removed):
    # a fresh store, free rows fewer than the batch, and every row free; each
    # with a batch of rows of one array, one of non-contiguous views (every
    # other column), one of views mixed with separately allocated vectors,
    # and one of zero-dimensional points in a store of them
    rng = np.random.default_rng(first)
    pts = points_from_array(rng.normal(size=(first + 70, 3)))
    flat = points_from_array(np.zeros((first + 70, 0)))
    strided = [Point(first + i, row) for i, row in enumerate(rng.normal(size=(70, 6))[:, ::2])]
    assert not any(q.coords.flags.c_contiguous for q in strided)
    mixed = [q if q.id % 2 else Point(q.id, q.coords.copy()) for q in pts[first:]]
    for head, batch in ((pts, pts[first:]), (pts, strided), (pts, mixed), (flat, flat[first:])):
        one, bulk = PointStore(), PointStore()
        for store in (one, bulk):
            for q in head[:first]:
                store.add(q)
            for pid in removed:
                store.remove(pid)
        batch = batch[::-1]                    # ids need not ascend
        want = [one.add(q) for q in batch]
        got = bulk.add_many(batch)
        assert got.dtype == np.int64 and got.tolist() == want
        assert _store_state(bulk) == _store_state(one)
        for q in batch:
            got_point = bulk.get(q.id)
            assert got_point.id == q.id and got_point.coords.tobytes() == q.coords.tobytes()
        assert bulk.add_many([]).tolist() == [] and _store_state(bulk) == _store_state(one)


def test_store_reads_are_copies_of_the_inserted_points():
    state = ClusteringState(DynamicParams(k=2, phi=4))
    pts = points_from_array(np.random.default_rng(3).normal(size=(20, 3)))
    for q in pts[::-1]:
        state.insert(q)
    live = state.live_points()
    assert [q.id for q in live] == [q.id for q in pts]
    assert [q.coords.tobytes() for q in live] == [q.coords.tobytes() for q in pts]
    store = state.store
    kept = store.get(7)
    assert kept is not pts[7] and kept.coords.tobytes() == pts[7].coords.tobytes()
    assert not np.shares_memory(kept.coords, store.matrix)
    row = store.row(7)
    state.delete(7)
    state.insert(Point(100, np.full(3, 9.0)))   # takes the freed row
    assert store.row(100) == row
    capacity, pid = store.matrix.shape[0], 101
    while store.matrix.shape[0] == capacity:     # until the matrix grows
        state.insert(Point(pid, np.zeros(3)))
        pid += 1
    assert kept.id == 7 and kept.coords.tobytes() == pts[7].coords.tobytes()
    assert [q.coords.tobytes() for q in live] == [q.coords.tobytes() for q in pts]


def test_add_many_raises_what_add_would_before_any_change():
    base = [pt(1, 0.0, 0.0), pt(2, 1.0, 1.0)]
    cases = [
        ([pt(5, 1.0, 2.0), pt(2, 3.0, 3.0)], "point id 2 already present"),
        ([pt(5, 1.0, 2.0), pt(5, 3.0, 3.0)], "point id 5 already present"),
        ([pt(5, 1.0, 2.0), pt(6, 3.0)], "point 6 has dimension 1, space has 2"),
        # the first failing point decides, as with one add per point
        ([pt(6, 3.0), pt(1, 0.0, 0.0)], "point 6 has dimension 1, space has 2"),
    ]
    for batch, message in cases:
        store = PointStore()
        store.add_many(base)
        store.remove(1)
        before = _store_state(store)
        with pytest.raises(ValueError, match=f"^{message}$"):
            store.add_many(batch)
        assert _store_state(store) == before
        one = PointStore()
        one.add_many(base)
        one.remove(1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            for q in batch:
                one.add(q)
    # on an empty store the first point sets the dimension
    store = PointStore()
    with pytest.raises(ValueError, match="^point 4 has dimension 3, space has 2$"):
        store.add_many([pt(3, 0.0, 0.0), pt(4, 1.0, 1.0, 1.0)])
    assert store.dim is None and len(store) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_custom_base_metric_rejects_non_finite_and_negative_values(bad):
    def broken(a, b):
        return bad if a[0] + b[0] == 3.0 else float(np.abs(a - b).sum())

    oracle = DistanceOracle(offset=0.5, base=broken)
    pts = [pt(10, 0.0), pt(11, 1.0), pt(12, 2.0)]
    assert distance(oracle, pts[0], pts[1]) == 1.5
    # every path names the two coordinate rows the metric was called with
    message = "^" + re.escape(f"custom metric returned {bad!r} for array([1.]) and array([2.])") + "$"
    coords = np.array([[0.0], [1.0], [2.0]])
    calls = [
        lambda: distance(oracle, pts[1], pts[2]),
        lambda: pairwise(oracle, pts, pts),
        lambda: oracle.elementwise(coords[:2], coords[1:]),
        lambda: oracle.matrix_between(coords, oracle.prepare(coords)),
        lambda: cost_set([pts[2]], pts, 1.0, oracle),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_elementwise_names_an_overflowing_distance():
    # finite coordinates whose difference overflows float64
    x, y = pt(0, 1e200, 0.0), pt(1, -1e200, 0.0)
    oracle = DistanceOracle()
    with pytest.raises(ValueError, match="overflow"):
        distance(oracle, x, y)
    with pytest.raises(ValueError, match="overflow"):
        oracle.elementwise(np.array([[0.0], [1e308]]), np.array([[1.0], [-1e308]]))
    assert distance(oracle, x, pt(2, 1e200, 1.0)) == 1.0


def test_matrix_between_is_exact_for_large_coordinates_with_a_small_spread():
    # |a|^2 overflows float64 here, but the kernel squares only the
    # coordinates' distances from the column block's mean
    a, b = np.array([[1e160, 0.0]]), np.array([[1e160, 1.0]])
    oracle = DistanceOracle()
    got = distances(oracle, a, b)[0, 0]
    assert got == 1.0 == oracle.elementwise(a, b)[0]


def test_importing_the_package_loads_no_scipy():
    # importing scipy.spatial alone raises a process's resident memory from
    # about 27 to 65 MB
    paths = [str(Path(dynkmed.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, dynkmed; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

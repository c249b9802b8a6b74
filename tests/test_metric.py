import itertools

import numpy as np
import pytest

from dynkmed import DistanceOracle, Point, PointStore, points_from_array, relaxed_triangle_ok


def pt(pid, *coords):
    return Point(pid, np.array(coords, dtype=float))


def test_distance_same_id_is_zero():
    oracle = DistanceOracle()
    x = pt(4, 1.5, 2.5)
    assert oracle.distance(x, x) == 0.0


def test_distance_one_dimensional():
    oracle = DistanceOracle()
    assert oracle.distance(pt(0, 0.0), pt(1, 3.0)) == 3.0


def test_distance_offset_applied_to_distinct_pairs():
    oracle = DistanceOracle(offset=0.25)
    assert oracle.distance(pt(0, 0.0), pt(1, 3.0)) == 3.25
    assert oracle.distance(pt(0, 0.0), pt(0, 0.0)) == 0.0


def test_identical_coords_distinct_ids():
    x, y = pt(1, 2.0, 3.0), pt(2, 2.0, 3.0)
    assert DistanceOracle().distance(x, y) == 0.0
    assert DistanceOracle(offset=0.5).distance(x, y) == 0.5


def test_dimension_mismatch_rejected():
    oracle = DistanceOracle()
    with pytest.raises(ValueError):
        oracle.distance(pt(0, 0.0), pt(1, 0.0, 1.0))


def test_symmetry_and_nonnegativity_seeded():
    oracle = DistanceOracle(offset=0.1)
    rng = np.random.default_rng(11)
    pts = points_from_array(rng.normal(size=(30, 4)))
    for x, y in itertools.combinations(pts, 2):
        d = oracle.distance(x, y)
        assert d == oracle.distance(y, x)
        assert d >= 0.1


def test_powered_distance():
    oracle = DistanceOracle()
    a, b = pt(0, 0.0), pt(1, 3.0)
    assert oracle.powered_distance(a, b, 1.0) == 3.0
    assert oracle.powered_distance(a, b, 2.0) == 9.0
    assert oracle.powered_distance(a, a, 7.0) == 0.0
    with pytest.raises(ValueError):
        oracle.powered_distance(a, b, 0.5)


def test_dist_to_set_tie_breaks_to_smallest_id():
    oracle = DistanceOracle()
    x = pt(5, 5.0)
    near, far = pt(0, 0.0), pt(1, 10.0)
    assert oracle.dist_to_set(x, [far, near]) == (5.0, 0)


def test_dist_to_set_member_and_singleton():
    oracle = DistanceOracle()
    x = pt(3, 4.0)
    assert oracle.dist_to_set(x, [pt(9, 0.0), x]) == (0.0, 3)
    assert oracle.dist_to_set(pt(0, 0.0), [pt(1, 7.0)]) == (7.0, 1)
    with pytest.raises(ValueError):
        oracle.dist_to_set(x, [])


def test_ball_examples():
    oracle = DistanceOracle()
    universe = [pt(i, float(c)) for i, c in enumerate([0, 1, 2, 100])]
    assert oracle.ball([universe[0]], 1000.0, universe) == {0, 1, 2, 3}
    assert oracle.ball(universe, 0.0, universe) == {0, 1, 2, 3}
    # 1-D {0,1,2,100}, around {0}, r=1 -> the points at coordinates 0 and 1
    assert oracle.ball([universe[0]], 1.0, universe) == {0, 1}
    with pytest.raises(ValueError):
        oracle.ball([universe[0]], -1.0, universe)


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
    dxy = oracle.distance(x, y) ** 2
    assert dxy > oracle.distance(x, z) ** 2 + oracle.distance(z, y) ** 2


def test_eval_counter_scalar_and_batch():
    oracle = DistanceOracle()
    a, b = pt(0, 0.0), pt(1, 3.0)
    oracle.distance(a, b)
    oracle.distance(a, a)
    assert oracle.evals == 2
    pts = [pt(i, float(i)) for i in range(5)]
    oracle.pairwise(pts, pts[:3])
    assert oracle.evals == 2 + 15
    oracle.pairwise(pts, pts[:2], count=False)
    assert oracle.evals == 17
    oracle.elementwise(pts[:4], pts[1:5])
    assert oracle.evals == 21


def test_eval_counter_deterministic_over_batch():
    rng = np.random.default_rng(3)
    pts = points_from_array(rng.normal(size=(20, 2)))
    counts = []
    for _ in range(2):
        oracle = DistanceOracle()
        oracle.pairwise(pts[:12], pts[12:])
        oracle.dist_to_set(pts[0], pts[5:11])
        counts.append(oracle.evals)
    assert counts[0] == counts[1] == 12 * 8 + 6


def test_pairwise_matches_scalar_distance():
    rng = np.random.default_rng(23)
    pts = points_from_array(rng.normal(scale=4.0, size=(15, 6)))
    oracle = DistanceOracle(offset=0.2)
    mat = oracle.pairwise(pts, pts)
    for i in range(15):
        for j in range(15):
            assert mat[i, j] == pytest.approx(oracle.distance(pts[i], pts[j]), abs=1e-9)


def test_custom_base_metric():
    def manhattan(a, b):
        return float(np.abs(a - b).sum())

    oracle = DistanceOracle(base=manhattan)
    assert oracle.distance(pt(0, 0.0, 0.0), pt(1, 1.0, 2.0)) == 3.0
    mat = oracle.pairwise([pt(0, 0.0, 0.0)], [pt(1, 1.0, 2.0), pt(2, 2.0, 2.0)])
    assert mat.tolist() == [[3.0, 4.0]]


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
    assert store.ids_sorted() == [1, 3, 7]
    np.testing.assert_array_equal(
        store.coords_for([7, 1]), np.array([[2.0, 5.0], [0.0, -1.0]])
    )
    with pytest.raises(ValueError):
        store.add(pt(9, 1.0))  # wrong dimension
    with pytest.raises(ValueError):
        store.add(pt(3, 0.0, 0.0))  # duplicate id
    store.remove(3)
    assert 3 not in store and len(store) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_custom_base_metric_rejects_non_finite_and_negative_values(bad):
    def broken(a, b):
        return bad if a[0] + b[0] == 3.0 else float(np.abs(a - b).sum())

    oracle = DistanceOracle(offset=0.5, base=broken)
    pts = [pt(10, 0.0), pt(11, 1.0), pt(12, 2.0)]
    assert oracle.distance(pts[0], pts[1]) == 1.5
    with pytest.raises(ValueError, match=r"points 11 and 12"):
        oracle.distance(pts[1], pts[2])
    with pytest.raises(ValueError, match=r"points 11 and 12"):
        oracle.pairwise(pts, pts)
    with pytest.raises(ValueError, match=r"points 11 and 12"):
        oracle.elementwise(pts[:2], pts[1:])
    coords = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match=r"rows 1 and 2"):
        oracle.matrix_between(coords, None, coords, None)

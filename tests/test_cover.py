import math

import numpy as np
import pytest

from dynkmed import (
    DistanceOracle,
    DynamicParams,
    points_from_array,
    preprocess,
)
from dynkmed.cover import _cover_arrays
from oracles import clusters, cover_round, covered, distance, pairwise


def line_points(*coords):
    return points_from_array(np.array([[float(c)] for c in coords]))


def first_id_sampler(ids, count, rng):
    return [ids[0]] * count


def round_radius(centers, universe, fraction):
    """The radius of a cover round whose sample is forced to ``centers``."""
    picked = sorted(p.id for p in centers)
    params = DynamicParams(k=1, phi=len(picked), beta=fraction,
                           sampler=lambda ids, count, rng: picked)
    return cover_round(universe, params)[2]


def test_coverage_radius_centers_equal_universe():
    pts = line_points(0, 5, 9)
    assert round_radius(pts, pts, 0.7) == 0.0


def test_coverage_radius_full_fraction_is_max_distance():
    pts = line_points(0, 1, 2, 100)
    center = [pts[0]]
    # a fraction that takes the last of 4 with one center: the largest
    # distance to it
    expected = max(abs(p.coords[0]) for p in pts)
    assert round_radius(center, pts, 0.99) == expected


def test_coverage_radius_selection():
    pts = line_points(0, 1, 2, 100)
    # distances to {0} are {0,1,2,100}; ceil(0.5*4)=2nd smallest is 1
    sorted_d = sorted(abs(p.coords[0]) for p in pts)
    assert round_radius([pts[0]], pts, 0.5) == sorted_d[1] == 1.0


def test_almost_cover_forced_single_center():
    pts = line_points(0, 1, 2, 100)
    params = DynamicParams(k=1, phi=1, beta=0.5, sampler=first_id_sampler)
    centers, assignment, radius = cover_round(pts, params)
    assert centers == {0}
    assert radius == 1.0
    assert set(assignment) == {0, 1}
    assert assignment == {0: 0, 1: 0}


def test_almost_cover_sampling_all_points():
    pts = line_points(3, 8, 20)
    params = DynamicParams(k=1, phi=5, beta=0.5, sampler=lambda ids, n, rng: list(ids))
    centers, assignment, radius = cover_round(pts, params)
    assert centers == {0, 1, 2}
    assert radius == 0.0
    assert set(assignment) == {0, 1, 2}
    assert assignment == {0: 0, 1: 1, 2: 2}


def test_almost_cover_coverage_fraction_holds():
    rng = np.random.default_rng(2)
    for seed in range(20):
        pts = points_from_array(rng.normal(size=(37, 2)))
        params = DynamicParams(k=3, phi=4, beta=0.62, seed=seed)
        centers, assignment, _ = cover_round(pts, params)
        assert len(assignment) >= math.ceil(0.62 * 37)
        for pid, center in assignment.items():
            assert center in centers
        assert centers <= set(assignment)


def test_almost_cover_assignment_within_radius():
    rng = np.random.default_rng(9)
    pts = points_from_array(rng.uniform(0, 10, size=(40, 3)))
    oracle = DistanceOracle(offset=0.05)
    params = DynamicParams(k=2, phi=6, beta=0.5, seed=4)
    centers, assignment, radius = cover_round(pts, params, oracle=oracle)
    by_id = {p.id: p for p in pts}
    ordered = [by_id[c] for c in sorted(centers)]
    for pid, center in assignment.items():
        d = distance(oracle, by_id[pid], by_id[center])
        assert d <= radius + 1e-9
        # nearest-center with ties toward the smallest id: the first minimum
        # of the point's row against the centers in id order
        row = pairwise(oracle, [by_id[pid]], ordered)[0]
        assert center == ordered[int(np.argmin(row))].id


def test_almost_cover_rejects_empty_and_bad_sampler():
    pts = line_points(0, 1)
    params = DynamicParams(k=1, phi=1, sampler=lambda ids, n, rng: [99])
    with pytest.raises(ValueError):
        cover_round(pts, params)


def test_params_validation():
    with pytest.raises(ValueError):
        DynamicParams(k=0, phi=1)
    with pytest.raises(ValueError):
        DynamicParams(k=1, phi=0)
    with pytest.raises(ValueError):
        DynamicParams(k=1, phi=1, beta=1.0)
    with pytest.raises(ValueError):
        DynamicParams(k=1, phi=4, last_layer_threshold=2)
    with pytest.raises(ValueError):
        DynamicParams(k=1, phi=4, epsilon=1.0)
    assert DynamicParams(k=1, phi=4).threshold == 4
    assert DynamicParams(k=1, phi=4, last_layer_threshold=9).threshold == 9


def test_build_layers_small_input_single_layer():
    pts = line_points(4, 5, 6)
    params = DynamicParams(k=2, phi=3)
    state = preprocess(pts, params)
    assert state.t == 1
    assert clusters(state, 1) == {0: {0}, 1: {1}, 2: {2}}
    assert state.layers[0].radius == 0.0
    assert state.assignment() == {0: 0, 1: 1, 2: 2}


def test_build_layers_partition_and_shrink():
    rng = np.random.default_rng(31)
    pts = points_from_array(rng.normal(size=(200, 2)))
    params = DynamicParams(k=5, phi=10, last_layer_threshold=20, beta=0.5, seed=8)
    state = preprocess(pts, params)

    seen = set()
    sizes = []
    remaining = set(range(200))
    for i in range(1, state.t + 1):
        layer_covered = covered(state, i)
        assert layer_covered <= remaining
        assert not (layer_covered & seen)
        seen |= layer_covered
        sizes.append(len(remaining))
        remaining -= layer_covered
    assert seen == set(range(200))
    assert not remaining
    # per-iteration shrink: at least beta of the working set is peeled
    for before, after in zip(sizes, sizes[1:]):
        assert after <= (1 - 0.5) * before


def test_build_layers_count_bound_gaussian():
    rng = np.random.default_rng(12)
    pts = points_from_array(rng.normal(size=(200, 2)))
    for seed in range(10):
        params = DynamicParams(k=4, phi=20, last_layer_threshold=20, beta=0.5, seed=seed)
        assert preprocess(pts, params).t <= math.ceil(math.log2(200 / 20)) + 1


def test_build_layers_assignment_radius():
    rng = np.random.default_rng(44)
    pts = points_from_array(rng.uniform(size=(120, 4)))
    oracle = DistanceOracle()
    params = DynamicParams(k=3, phi=12, beta=0.4, seed=3)
    state = preprocess(pts, params, oracle)
    by_id = {p.id: p for p in pts}
    for i, layer in enumerate(state.layers, start=1):
        for center, members in clusters(state, i).items():
            for pid in members:
                d = distance(oracle, by_id[pid], by_id[center])
                assert d <= layer.radius + 1e-9


def test_build_layers_deterministic():
    rng = np.random.default_rng(1)
    pts = points_from_array(rng.normal(size=(90, 3)))
    params = DynamicParams(k=2, phi=7, beta=0.5, seed=42)
    a = preprocess(pts, params)
    b = preprocess(pts, params)
    assert a.assignment() == b.assignment() and a.t == b.t
    for i, (la, lb) in enumerate(zip(a.layers, b.layers), start=1):
        assert (clusters(a, i), la.radius) == (clusters(b, i), lb.radius)


def test_every_center_with_members_is_its_own_nearest_far_from_the_origin():
    # every other row sits 1e-11 from its predecessor in each coordinate, far
    # closer than the kernel's rounding error at unit spread, so such a pair
    # can get a distance of exactly 0 and a sampled center's own row can go
    # to its twin
    x = np.random.default_rng(0).normal(size=(300, 3)) + 1e4
    x[1::2] = x[0::2] + 1e-11
    ids = np.arange(300)
    for seed in range(3):
        params = DynamicParams(k=5, phi=40, seed=seed)
        pos, nearest, mask, _ = _cover_arrays(
            ids, x, params, np.random.default_rng(seed), DistanceOracle(0.0)
        )
        assert np.all(np.diff(pos) > 0)
        assert np.array_equal(nearest[pos], np.arange(pos.shape[0]))
        assert mask[pos].all()
        state = preprocess(points_from_array(x), params)
        assert not [v for v in state.integrity_check() if "is not a member" in v]

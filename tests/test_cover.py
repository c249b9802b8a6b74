import math

import numpy as np
import pytest

from dynkmed import (
    CoverParams,
    DistanceOracle,
    DynamicParams,
    almost_cover,
    coverage_radius,
    points_from_array,
    preprocess,
)


def line_points(*coords):
    return points_from_array(np.array([[float(c)] for c in coords]))


def first_id_sampler(ids, count, rng):
    return [ids[0]] * count


def test_coverage_radius_centers_equal_universe():
    pts = line_points(0, 5, 9)
    assert coverage_radius(pts, pts, 0.7, DistanceOracle()) == 0.0


def test_coverage_radius_full_fraction_is_max_distance():
    pts = line_points(0, 1, 2, 100)
    center = [pts[0]]
    # fraction 1 with one center: the largest distance to it
    expected = max(abs(p.coords[0]) for p in pts)
    assert coverage_radius(center, pts, 1.0, DistanceOracle()) == expected


def test_coverage_radius_selection():
    pts = line_points(0, 1, 2, 100)
    # distances to {0} are {0,1,2,100}; ceil(0.5*4)=2nd smallest is 1
    sorted_d = sorted(abs(p.coords[0]) for p in pts)
    assert coverage_radius([pts[0]], pts, 0.5, DistanceOracle()) == sorted_d[1] == 1.0


def test_coverage_radius_validation():
    pts = line_points(0, 1)
    with pytest.raises(ValueError):
        coverage_radius([], pts, 0.5, DistanceOracle())
    with pytest.raises(ValueError):
        coverage_radius(pts, pts, 0.0, DistanceOracle())


def test_almost_cover_forced_single_center():
    pts = line_points(0, 1, 2, 100)
    params = CoverParams(k=1, phi=1, beta=0.5, sampler=first_id_sampler)
    cover = almost_cover(pts, params)
    assert cover.centers == {0}
    assert cover.radius == 1.0
    assert cover.covered == {0, 1}
    assert cover.assignment == {0: 0, 1: 0}


def test_almost_cover_sampling_all_points():
    pts = line_points(3, 8, 20)
    params = CoverParams(k=1, phi=5, beta=0.5, sampler=lambda ids, n, rng: list(ids))
    cover = almost_cover(pts, params)
    assert cover.centers == {0, 1, 2}
    assert cover.radius == 0.0
    assert cover.covered == {0, 1, 2}
    assert cover.assignment == {0: 0, 1: 1, 2: 2}


def test_almost_cover_coverage_fraction_holds():
    rng = np.random.default_rng(2)
    for seed in range(20):
        pts = points_from_array(rng.normal(size=(37, 2)))
        params = CoverParams(k=3, phi=4, beta=0.62, seed=seed)
        cover = almost_cover(pts, params)
        assert len(cover.covered) >= math.ceil(0.62 * 37)
        for pid, center in cover.assignment.items():
            assert center in cover.centers
        assert cover.centers <= cover.covered


def test_almost_cover_assignment_within_radius():
    rng = np.random.default_rng(9)
    pts = points_from_array(rng.uniform(0, 10, size=(40, 3)))
    oracle = DistanceOracle(offset=0.05)
    params = CoverParams(k=2, phi=6, beta=0.5, seed=4)
    cover = almost_cover(pts, params, oracle=oracle)
    by_id = {p.id: p for p in pts}
    for pid, center in cover.assignment.items():
        d = oracle.distance(by_id[pid], by_id[center])
        assert d <= cover.radius + 1e-9
        # nearest-center with ties toward the smallest id
        best, best_id = oracle.dist_to_set(by_id[pid], [by_id[c] for c in cover.centers])
        assert center == best_id


def test_almost_cover_rejects_empty_and_bad_sampler():
    with pytest.raises(ValueError):
        almost_cover([], CoverParams(k=1, phi=1))
    pts = line_points(0, 1)
    params = CoverParams(k=1, phi=1, sampler=lambda ids, n, rng: [99])
    with pytest.raises(ValueError):
        almost_cover(pts, params)


def test_params_validation():
    with pytest.raises(ValueError):
        CoverParams(k=0, phi=1)
    with pytest.raises(ValueError):
        CoverParams(k=1, phi=0)
    with pytest.raises(ValueError):
        CoverParams(k=1, phi=1, beta=1.0)
    with pytest.raises(ValueError):
        CoverParams(k=1, phi=4, last_layer_threshold=2)
    assert CoverParams(k=1, phi=4).threshold == 4
    assert CoverParams(k=1, phi=4, last_layer_threshold=9).threshold == 9


def test_build_layers_small_input_single_layer():
    pts = line_points(4, 5, 6)
    params = DynamicParams(k=2, phi=3)
    state = preprocess(pts, params)
    assert state.t == 1
    assert state.layers[0].centers == {0, 1, 2}
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
    for layer in state.layers:
        covered = layer.covered
        assert covered <= remaining
        assert not (covered & seen)
        seen |= covered
        sizes.append(len(remaining))
        remaining -= covered
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
    for layer in state.layers:
        for record in layer.clusters:
            for pid in record.members:
                d = oracle.distance(by_id[pid], by_id[record.center])
                assert d <= layer.radius + 1e-9


def test_build_layers_deterministic():
    rng = np.random.default_rng(1)
    pts = points_from_array(rng.normal(size=(90, 3)))
    params = DynamicParams(k=2, phi=7, beta=0.5, seed=42)
    a = preprocess(pts, params)
    b = preprocess(pts, params)
    assert a.assignment() == b.assignment() and a.t == b.t
    for la, lb in zip(a.layers, b.layers):
        assert (la.centers, la.covered, la.radius) == (lb.centers, lb.covered, lb.radius)

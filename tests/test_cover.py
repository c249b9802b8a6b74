import math
import re

import numpy as np
import pytest

from dynkmed import (
    ConfigError,
    DistanceOracle,
    DynamicParams,
    ExperimentConfig,
    SyntheticSpec,
    points_from_array,
    preprocess,
)
from oracles import (
    ForcedDraws,
    clusters,
    cover_positions,
    cover_round,
    covered,
    distance,
    first_draws,
    id_draws,
    pairwise,
)


def line_points(*coords):
    return points_from_array(np.array([[float(c)] for c in coords]))


def round_radius(centers, universe, fraction):
    """The radius of a cover round whose sample is forced to ``centers``."""
    picked = sorted(p.id for p in centers)
    params = DynamicParams(k=1, phi=len(picked), beta=fraction,
                           seed=id_draws([p.id for p in universe], picked))
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
    params = DynamicParams(k=1, phi=1, beta=0.5, seed=first_draws())
    centers, assignment, radius = cover_round(pts, params)
    assert centers == {0}
    assert radius == 1.0
    assert set(assignment) == {0, 1}
    assert assignment == {0: 0, 1: 0}


def test_almost_cover_sampling_all_points():
    pts = line_points(3, 8, 20)
    params = DynamicParams(k=1, phi=5, beta=0.5, seed=ForcedDraws(lambda n, size: range(n)))
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
    params = DynamicParams(k=1, phi=1, seed=id_draws([p.id for p in pts], [99]))
    with pytest.raises(ValueError, match="sample id 99 is outside the working set"):
        cover_round(pts, params)


def test_params_validation():
    with pytest.raises(ValueError):
        DynamicParams(k=0, phi=1)
    with pytest.raises(ValueError):
        DynamicParams(k=1, phi=0)
    with pytest.raises(ValueError):
        DynamicParams(k=1, phi=1, beta=1.0)
    with pytest.raises(ValueError):
        DynamicParams(k=1, phi=4, epsilon=1.0)


@pytest.mark.parametrize("field, value", [
    ("k", True), ("k", 3.0), ("k", None), ("phi", 10.0), ("phi", False),
    ("phi", np.float64(10.0)),
])
def test_params_reject_counts_that_are_not_integers(field, value):
    given = {"k": 3, "phi": 10} | {field: value}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        DynamicParams(**given)
    config = ExperimentConfig(window=5, synthetic=SyntheticSpec(2, 2, 10), **given)
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        config.validate()


def test_params_accept_numpy_integers():
    params = DynamicParams(k=np.int64(2), phi=np.int32(3))
    assert preprocess(line_points(*range(12)), params).integrity_check() == []


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
    params = DynamicParams(k=5, phi=10, beta=0.5, seed=8)
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
        params = DynamicParams(k=4, phi=20, beta=0.5, seed=seed)
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
    # can get a distance of exactly 0; a sampled center keeps its own row
    x = np.random.default_rng(0).normal(size=(300, 3)) + 1e4
    x[1::2] = x[0::2] + 1e-11
    for seed in range(3):
        params = DynamicParams(k=5, phi=40, seed=seed)
        pos, nearest, mask, _ = cover_positions(
            x, params, np.random.default_rng(seed), DistanceOracle(0.0)
        )
        assert np.all(np.diff(pos) > 0)
        assert np.array_equal(nearest[pos], np.arange(pos.shape[0]))
        assert mask[pos].all()
        state = preprocess(points_from_array(x), params)
        assert not [v for v in state.integrity_check() if "is not a member" in v]


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_a_round_evaluates_only_the_unsampled_rows_at_a_positive_offset(offset):
    # each center is its own nearest at 0, at offset 0 too, so the round
    # leaves the c x c pairs between centers out
    x = np.random.default_rng(3).normal(size=(50, 3))
    draws = ForcedDraws(lambda n, size: [41, 3, 7, 7, 20])
    oracle = DistanceOracle(offset)
    pos, nearest, mask, _ = cover_positions(x, DynamicParams(k=1, phi=5), draws, oracle)
    n, c = x.shape[0], 4
    assert pos.tolist() == [3, 7, 20, 41]
    assert oracle.evals == (n - c) * c
    assert np.array_equal(nearest[pos], np.arange(c)) and mask[pos].all()


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_a_custom_metric_is_never_called_on_two_sampled_rows_at_a_positive_offset(offset):
    x = np.random.default_rng(4).normal(size=(30, 2))
    sampled = [0, 5, 6, 29]
    calls = []

    def l1(u, v):
        calls.append((u.tobytes(), v.tobytes()))
        return float(np.abs(u - v).sum())

    oracle = DistanceOracle(offset, l1)
    draws = ForcedDraws(lambda n, size: sampled + sampled)
    cover_positions(x, DynamicParams(k=1, phi=8), draws, oracle)
    centers = {x[p].tobytes() for p in sampled}
    n, c = x.shape[0], len(sampled)
    assert len(calls) == oracle.evals == (n - c) * c
    assert all(v in centers and u not in centers for u, v in calls)


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_a_round_that_samples_every_row_at_a_positive_offset_evaluates_nothing(offset):
    x = np.random.default_rng(5).normal(size=(6, 2))
    oracle = DistanceOracle(offset)
    got = cover_positions(x, DynamicParams(k=1, phi=6), ForcedDraws(lambda n, size: range(n)), oracle)
    pos, nearest, mask, radius = got
    assert pos.tolist() == nearest.tolist() == list(range(6))
    assert mask.all() and radius == 0.0 and oracle.evals == 0
    # seeded draws that hit every row leave the stream where the draw alone does
    rng, draw = np.random.default_rng(11), np.random.default_rng(11)
    pos = cover_positions(x[:3], DynamicParams(k=1, phi=40), rng, DistanceOracle(offset))[0]
    draw.integers(0, 3, 40)
    assert pos.tolist() == [0, 1, 2]
    assert rng.bit_generator.state == draw.bit_generator.state != np.random.default_rng(11).bit_generator.state


@pytest.mark.parametrize("offset, draws, evals", [
    (0.25, [9, 1, 4, 4, 6, 8], 0),             # 5 distinct rows fill ceil(0.5 * 10)
    (0.25, [9, 1, 4, 4, 6], (10 - 4) * 4),     # 4 do not: the unsampled rows' pairs
    (0.0, [9, 1, 4, 4, 6, 8], 0),
    (0.0, [9, 1, 4, 4, 6], (10 - 4) * 4),
])
def test_a_round_whose_sample_fills_the_beta_quantile_evaluates_nothing(offset, draws, evals):
    # the sampled centers are the nearest points to the sample, at 0, so
    # when they number ceil(beta * n) the radius is 0 and the layer is the
    # sample, whatever the distances are
    x = np.random.default_rng(6).normal(size=(10, 2))
    params = DynamicParams(k=1, phi=len(draws), beta=0.5)
    sampled = sorted(set(draws))
    calls = []

    def l1(u, v):
        calls.append((u, v))
        return float(np.abs(u - v).sum())

    rng, oracle = ForcedDraws(lambda n, size: draws), DistanceOracle(offset, l1)
    pos, nearest, mask, radius = cover_positions(x, params, rng, oracle)
    assert len(calls) == oracle.evals == evals
    assert pos.tolist() == sampled
    # the round read off the whole distance matrix: each row's first nearest
    # sampled row, and the ceil(beta * n) rows nearest to the sample
    pts = points_from_array(x)
    dist = pairwise(DistanceOracle(offset, l1), pts, [pts[j] for j in sampled])
    dmin = dist.min(axis=1)
    want = float(np.partition(dmin, 4)[4])
    assert repr(radius) == repr(want)
    assert np.array_equal(mask, dmin <= want) and np.array_equal(nearest[mask], dist.argmin(axis=1)[mask])
    assert rng.bit_generator.state == ForcedDraws(lambda n, size: draws).bit_generator.state
    if evals == 0:
        assert repr(radius) == "0.0"
        assert mask.nonzero()[0].tolist() == sampled
        assert nearest[pos].tolist() == list(range(len(sampled)))


def test_exact_twins_sampled_at_offset_0_each_keep_a_cluster_of_their_own_row():
    # rows 2 and 3 are exact twins, at distance 0 from each other as from
    # themselves; each sampled row is its own center all the same
    x = np.random.default_rng(7).normal(size=(20, 2))
    x[3] = x[2]
    oracle = DistanceOracle(0.0)
    draws = ForcedDraws(lambda n, size: [3, 2, 11])
    pos, nearest, mask, _ = cover_positions(x, DynamicParams(k=1, phi=3), draws, oracle)
    n, c = x.shape[0], 3
    assert pos.tolist() == [2, 3, 11]
    assert nearest[pos].tolist() == [0, 1, 2] and mask[pos].all()
    assert oracle.evals == (n - c) * c
    params = DynamicParams(k=1, phi=3, seed=ForcedDraws(lambda n, size: [3, 2, n - 1]))
    state = preprocess(points_from_array(x), params, DistanceOracle(0.0))
    layer = clusters(state, 1)
    assert 2 in layer[2] and 3 in layer[3]
    assert state.integrity_check() == []


def test_a_sample_that_fills_the_quantile_at_offset_0_leaves_its_twins_over():
    # row 5 is row 4's exact twin, at distance 0 from the sample, but the
    # round that evaluates nothing covers the sample alone
    x = np.random.default_rng(8).normal(size=(10, 2))
    x[5] = x[4]
    oracle = DistanceOracle(0.0)
    draws = ForcedDraws(lambda n, size: [0, 2, 4, 6, 8])
    pos, nearest, mask, radius = cover_positions(x, DynamicParams(k=1, phi=5), draws, oracle)
    assert mask.nonzero()[0].tolist() == pos.tolist() == [0, 2, 4, 6, 8]
    assert radius == 0.0 and oracle.evals == 0

"""The distance kernel and the cover round against plain-numpy references.

``_reference_product`` states the kernel's formula in plain numpy: center
both blocks on the mean of ``b`` and multiply ``[u, 1, |u|^2]`` by
``[-2v, |v|^2, 1]`` transposed; ``_reference_finish`` clips at 0, takes the
sqrt and adds the offset, and ``_reference_matrix_between`` is the two.
``_reference_cover_arrays`` is the package's earlier cover round, kept
verbatim apart from taking the oracle as an argument, from reading no
sampler from the params (a forced sample reaches both rounds through
``rng.integers``, as the draws of ``oracles.ForcedDraws``), from the
own-center line below and from naming each row's center by the first
minimum of the product over the row's columns at its least distance,
which in a row with no same-id pair is the product's first minimum. It zeroes
same-id pairs through an n x c id mask, which the kernel did when it took
ids, and takes the minimum in a second reduction. The package works in
place and in fewer passes over
memory; every matrix entry, covered flag and radius it returns must be
bit-identical to the reference, and so must each covered row's nearest
center id, over a whole matrix and over a non-contiguous subset of the rows
of a larger one. Its round evaluates only the unsampled rows, so it counts
c * c pairs fewer than the reference for c sampled centers; no pinned round
has a sample that fills the beta-quantile, which would evaluate nothing. A
round or a live-set cost forced into several 768-row chunks must return
what one call gives, bit for bit, and so must 768-row chunks applied to a
center block prepared once.

The rule that each sampled row is its own center is one plain line of the
cover reference. At offset 0 a sampled twin's row can be as near its
earlier sampled twin as itself: exact twins, or twins 1e-10 apart, far
below the kernel's rounding error at unit spread. So in the pinned cases
whose samples hold both twins of a pair, at offset 0 alone, the reference's
output differs from each row's plain first minimum; at offset 0.25 a row's
own pair at 0 is its minimum already.

``nearest`` and ``row_min`` reduce the product that ``matrix_between``
returns. ``_reference_nearest`` finishes that product into distances as
``_root`` does and takes the product's first argmin and the distances'
minimum, which must be that column's distance; the reductions must match
it bit for bit, and the finished product must match
``oracles.distances``, the kernel's product finished whole, on cases where
distinct products round to one distance. The kernel knows no ids: a block
of points against some of themselves pairs each picked point with itself,
and the reductions read that pair as the kernel computed it. No package
caller hands them an entry marked ``-inf``, which a slide with queries
checks.
"""
from __future__ import annotations

import numpy as np
import pytest

from dynkmed import (
    DistanceOracle,
    DynamicParams,
    SyntheticSpec,
    cost_set,
    points_from_array,
    preprocess,
    query,
    synthetic_points,
)
from dynkmed import metric
from dynkmed.dynamic import _quantile_index
from dynkmed.metric import Point, _nearest_two
from oracles import cover_positions, distances, id_draws, pairwise


def _reference_product(
    self: DistanceOracle, a_coords: np.ndarray, b_coords: np.ndarray, count: bool = True
) -> np.ndarray:
    a = np.asarray(a_coords, dtype=np.float64)
    b = np.asarray(b_coords, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("coordinate blocks must be 2-D with equal dimension")
    n, c = a.shape[0], b.shape[0]
    if count:
        self.evals += n * c
    if self.base is None:
        mu = b.mean(axis=0)
        u = a - mu
        v = b - mu
        u2 = np.einsum("ij,ij->i", u, u)
        v2 = np.einsum("ij,ij->i", v, v)
        left = np.hstack([u, np.ones((n, 1)), u2[:, None]])
        right = np.hstack([-2.0 * v, v2[:, None], np.ones((c, 1))])
        return left @ right.T
    out = np.empty((n, c), dtype=np.float64)
    for i in range(n):
        for j in range(c):
            out[i, j] = self.base(a[i], b[j])
    if self.offset:
        out += self.offset
    return out


def _reference_finish(oracle: DistanceOracle, x: np.ndarray) -> np.ndarray:
    """The distances ``_root`` finishes the kernel's product ``x`` into."""
    if oracle.base is not None:
        return x.copy()
    d = np.sqrt(np.maximum(x, 0.0))
    if oracle.offset:
        d += oracle.offset
    return d


def _reference_matrix_between(
    self: DistanceOracle, a_coords: np.ndarray, b_coords: np.ndarray, count: bool = True
) -> np.ndarray:
    return _reference_finish(self, _reference_product(self, a_coords, b_coords, count))


def _reference_cover_arrays(
    ids: np.ndarray,
    coords: np.ndarray,
    params: DynamicParams,
    rng: np.random.Generator,
    oracle: DistanceOracle,
    own_column: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    n = ids.shape[0]
    sample = ids[rng.integers(0, n, size=params.phi)].tolist()
    center_ids = np.array(sorted(set(int(s) for s in sample)), dtype=np.int64)
    pos = np.searchsorted(ids, center_ids)

    product = _reference_product(oracle, coords, coords[pos])
    dist = _reference_finish(oracle, product)
    dist[ids[:, None] == center_ids[None, :]] = 0.0
    dmin = dist.min(axis=1)
    m = _quantile_index(params.beta, n)
    radius = float(np.partition(dmin, m - 1)[m - 1])
    # the first minimum of the product over each row's columns at its least
    # distance: the product's first minimum in a row with no same-id pair
    nearest = np.argmin(np.where(dist == dmin[:, None], product, np.inf), axis=1)
    if own_column:
        nearest[pos] = np.arange(pos.shape[0])  # each sampled row is its own center
    return center_ids, nearest, dmin <= radius, radius


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def assert_same_cover(ids: np.ndarray, got: tuple, want: tuple) -> None:
    """A cover round (center positions, nearest, mask, radius) against the
    reference's (sampled center ids, nearest, mask, radius): the same center
    id for every covered row, the same centers, mask and radius."""
    pos, nearest, mask, radius = got
    center_ids, want_nearest, want_mask, want_radius = want
    assert pos.dtype == np.int64
    assert np.array_equal(ids[pos][nearest[mask]], center_ids[want_nearest[mask]])
    assert np.array_equal(ids[pos], center_ids)
    assert np.array_equal(mask, want_mask)
    assert repr(radius) == repr(want_radius)


def coordinates(
    n: int, dim: int, seed: int, scale: float = 1.0, shift: float = 0.0, gap: float = 0.0
):
    """Gaussian rows with every seventh row a twin of its predecessor: exact,
    or ``gap`` away in every coordinate."""
    x = np.random.default_rng(seed).normal(0.0, scale, size=(n, dim)) + shift
    x[1::7] = x[0:-1:7][: x[1::7].shape[0]] + gap
    return x


# (rows, columns, dim, scale, shift, gap): blocks past 4096 rows, three
# dimensions, far from the origin, coordinates whose products are subnormal,
# and twins far closer than the kernel's rounding error at their spread
SHAPES = [
    pytest.param(4096 + 37, 60, 5, 1.0, 0.0, 0.0, id="past-chunk-d5"),
    pytest.param(300, 45, 1, 3.0, 0.0, 0.0, id="d1"),
    pytest.param(4096 + 5, 24, 64, 1.0, 0.0, 0.0, id="past-chunk-d64"),
    pytest.param(400, 50, 5, 0.01, 1e6, 0.0, id="shift-1e6"),
    pytest.param(400, 50, 5, 1e-160, 0.0, 0.0, id="subnormal-products"),
    pytest.param(400, 50, 5, 1.0, 0.0, 1e-10, id="near-twins"),
]


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("n, c, dim, scale, shift, gap", SHAPES)
def test_matrix_between_matches_the_reference_bitwise(n, c, dim, scale, shift, gap, offset):
    x = coordinates(n, dim, seed=n + dim, scale=scale, shift=shift, gap=gap)
    rng = np.random.default_rng(dim)
    picked = np.sort(rng.choice(n, size=c, replace=False))
    new, old = DistanceOracle(offset), DistanceOracle(offset)
    got = distances(new, x, x[picked])
    want = _reference_matrix_between(old, x, x[picked])
    assert_same_bits(got, want)
    assert new.evals == old.evals == n * c


def test_matrix_between_does_not_depend_on_buffer_identity():
    x = coordinates(700, 6, seed=5, scale=4.0)
    oracle = DistanceOracle(0.1)
    same = distances(oracle, x, x)
    assert_same_bits(same, distances(oracle, x, x.copy()))
    # a view of the same memory is copied too
    assert_same_bits(distances(oracle, x, x[:50]), distances(oracle, x, x[:50].copy()))


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("n, c, dim, scale, shift, gap", SHAPES)
def test_cover_round_matches_the_reference(n, c, dim, scale, shift, gap, offset):
    x = coordinates(n, dim, seed=n - dim, scale=scale, shift=shift, gap=gap)
    ids = np.arange(3, 3 + 2 * n, 2)          # sorted, distinct, not positions
    # the same points as a non-contiguous ascending subset of the rows of a
    # larger matrix whose other rows are NaN, so a read of one fails
    store = np.full((2 * n + 3, dim), np.nan)
    rows = np.sort(np.random.default_rng(dim).choice(store.shape[0], n, replace=False))
    store[rows] = x
    changed, twins = False, False
    for phi, beta in ((c, 0.5), (7, 0.8)):
        params = DynamicParams(k=3, phi=phi, beta=beta)
        old_rng, old = np.random.default_rng(n), DistanceOracle(offset)
        want = _reference_cover_arrays(ids, x, params, old_rng, old)
        plain = _reference_cover_arrays(
            ids, x, params, np.random.default_rng(n), DistanceOracle(offset), own_column=False
        )
        changed |= not all(np.array_equal(w, u) for w, u in zip(want, plain))
        pos = (want[0] - 3) // 2  # rows 7i and 7i + 1 are twins
        twins |= bool(np.isin(pos[pos % 7 == 0] + 1, pos).any())
        for matrix, subset in ((x, None), (store, rows)):
            new_rng, new = np.random.default_rng(n), DistanceOracle(offset)
            got = cover_positions(matrix, params, new_rng, new, subset)
            assert_same_cover(ids, got, want)
            # the round leaves out the c x c pairs between centers
            assert new.evals == old.evals - want[0].shape[0] ** 2
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
    # only at offset 0 can a sampled twin's row be as near its earlier twin as itself
    assert changed == (twins and offset == 0.0)


def test_cover_round_with_a_sampler_and_twin_centers_matches_the_reference():
    # rows 0 and 1 are twins and both are sampled; a repeated sample
    # collapses to one center
    x = coordinates(50, 2, seed=8)
    ids = np.arange(50)
    params = DynamicParams(k=2, phi=4)
    draws = id_draws(ids, [1, 0, 0, 30])
    for offset in (0.0, 0.3):
        got = cover_positions(x, params, draws, DistanceOracle(offset))
        want = _reference_cover_arrays(ids, x, params, draws, DistanceOracle(offset))
        assert_same_cover(ids, got, want)
        # at offset 0 twin 1's own row is as near to twin 0, yet each twin
        # keeps a cluster whose center is its own row
        assert ids[got[0]].tolist() == [0, 1, 30]
        assert got[1][got[0]].tolist() == [0, 1, 2]


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("dim", [5, 8, 64])
def test_a_chunked_round_equals_the_one_call_round(monkeypatch, dim, offset):
    # 768-row chunks of the unsampled rows: three full ones and a ragged last
    # one, over a whole matrix and over a non-contiguous subset of the rows
    # of a larger one whose other rows are NaN
    n = 2700
    x = coordinates(n, dim, seed=dim)
    store = np.full((2 * n + 3, dim), np.nan)
    rows = np.sort(np.random.default_rng(dim).choice(store.shape[0], n, replace=False))
    store[rows] = x
    kernel, calls = DistanceOracle.matrix_between, []

    def spy(self, a, b, out=None):
        calls.append(a.shape[0])
        return kernel(self, a, b, out)

    monkeypatch.setattr(DistanceOracle, "matrix_between", spy)
    for matrix, subset in ((x, None), (store, rows)):
        rounds = []
        for entries in (1 << 40, 1):  # one call, then the smallest chunks
            monkeypatch.setattr(metric, "_CHUNK_ENTRIES", entries)
            calls.clear()
            oracle = DistanceOracle(offset)
            pos, nearest, mask, radius = cover_positions(
                matrix, DynamicParams(k=3, phi=40), np.random.default_rng(dim), oracle, subset)
            c = pos.shape[0]
            assert oracle.evals == (n - c) * c
            rounds.append((pos, nearest, mask, np.bincount(nearest[mask]), repr(radius), list(calls)))
        (*whole, one), (*chunked, parts) = rounds
        assert one == [n - c]
        assert len(parts) == 4 and parts[:3] == [768] * 3 and 0 < parts[3] < 768
        for got, want in zip(chunked, whole):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("dim", [5, 8, 64])
def test_a_prepared_block_applied_to_chunks_equals_one_call(dim, offset):
    # 768-row chunks of 2,700 rows, three full ones and a ragged last one,
    # against one prepared 60-row block: each returns the block it counted,
    # fresh or written into out, and together they give the one call's bits,
    # which finish into the distances of one call on the whole block
    x = coordinates(2700, dim, seed=dim + 2)
    b = x[::45]
    want = DistanceOracle(offset).matrix_between(x, DistanceOracle(offset).prepare(b))
    oracle = DistanceOracle(offset)
    block, into = oracle.prepare(b), np.empty_like(want)
    fresh = []
    for lo in range(0, x.shape[0], 768):
        fresh.append(oracle.matrix_between(x[lo : lo + 768], block))
        out = into[lo : lo + 768]
        assert oracle.matrix_between(x[lo : lo + 768], block, out=out) is out
    assert_same_bits(np.concatenate(fresh), want)
    assert_same_bits(into, want)
    assert_same_bits(oracle._root(into), distances(DistanceOracle(offset), x, b))
    assert oracle.evals == 2 * x.shape[0] * b.shape[0]


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("dim", [5, 64])
def test_a_chunked_live_set_cost_equals_the_one_call_cost(monkeypatch, dim, offset):
    # 2,000 rows in 768-row chunks: two full ones and a ragged last one
    pts = points_from_array(coordinates(2000, dim, seed=dim + 1))
    centers = pts[5::40]
    costs = []
    for entries in (1 << 40, 1):
        monkeypatch.setattr(metric, "_CHUNK_ENTRIES", entries)
        oracle = DistanceOracle(offset)
        costs.append([repr(cost_set(centers, pts, p, oracle)) for p in (1.0, 2.0)])
        assert oracle.evals == 2 * 2000 * len(centers)
    assert costs[0] == costs[1]


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("dim", [1, 5, 64])
def test_matrix_between_error_is_bounded_by_the_spread_about_the_mean(dim, offset):
    # the bound of a (dim + 2)-term dot product whose terms are at most 4 R^2
    # in size, with R the largest distance of a row from the center block's
    # mean: it does not grow with the distance of the blocks from the origin
    eps = np.finfo(np.float64).eps
    for shift in (0.0, 1e2, 1e4, 1e6, 1e8):
        x = np.random.default_rng(dim).normal(size=(260, dim)) + shift
        a, b = x[:200], x[200:]
        got = distances(DistanceOracle(offset), a, b) - offset
        diff = a[:, None, :] - b[None, :, :]
        want_sq = np.einsum("ijk,ijk->ij", diff, diff)
        spread = x - b.mean(axis=0)
        r_sq = np.einsum("ij,ij->i", spread, spread).max()
        assert np.abs(got**2 - want_sq).max() <= 4 * (dim + 2) * eps * r_sq, shift


# -- row-minimum reductions ----------------------------------------------------


def _reference_nearest(oracle: DistanceOracle, x: np.ndarray):
    """The distances ``_root`` finishes the kernel's product ``x`` into,
    the product's first argmin and the distances' row minimum, which is the
    distance of that column."""
    d = _reference_finish(oracle, x)
    cols, dmin = np.argmin(x, axis=1), d.min(axis=1)
    assert_same_bits(d[np.arange(d.shape[0]), cols], dmin)
    return d, cols, dmin


def assert_reductions_match(oracle: DistanceOracle, x: np.ndarray) -> np.ndarray:
    """``nearest`` and ``row_min`` of ``x`` equal the reference bit for bit
    and leave ``x`` as it was, and ``nearest`` and ``_nearest_two`` give the
    same on every layout of ``x``; returns the reference distances."""
    before = x.copy()
    d, want_cols, want_min = _reference_nearest(oracle, x)
    cols, dmin = oracle.nearest(x)
    assert_same_bits(x, before)
    assert np.array_equal(cols, want_cols)
    assert_same_bits(dmin, want_min)
    assert_same_bits(oracle.row_min(x), want_min)
    assert_same_bits(x, before)
    assert_layouts_match(oracle, x)
    return d


def assert_layouts_match(oracle: DistanceOracle, x: np.ndarray) -> None:
    """``nearest`` and ``_nearest_two`` of an F-ordered copy of ``x`` and of
    a strided view into a NaN-padded block return the columns and values,
    bit for bit, that they return on a C-ordered copy, and write nothing:
    neither the input nor the block around the view changes."""
    c_order = np.ascontiguousarray(x)
    want_nearest, want_two = oracle.nearest(c_order), _nearest_two(c_order)
    padded = np.full((2 * x.shape[0], 2 * x.shape[1] + 1), np.nan)
    strided = padded[::2, 1::2]
    strided[...] = x
    fortran = np.asfortranarray(x)
    for y, owner in ((fortran, fortran), (strided, padded)):
        before = owner.copy()
        cols, dmin = oracle.nearest(y)
        assert np.array_equal(cols, want_nearest[0])
        assert_same_bits(dmin, want_nearest[1])
        got_two = _nearest_two(y)
        assert np.array_equal(got_two[0], want_two[0])
        assert_same_bits(got_two[1], want_two[1])
        assert_same_bits(got_two[2], want_two[2])
        assert_same_bits(owner, before)


def assert_blocks_match(oracle, a, picked):
    """The reductions of the kernel's product of ``a`` against ``a[picked]``
    equal its distances plus their first argmin, with the same evaluation
    count; each picked row's pair with itself is as the kernel computed it."""
    plain = DistanceOracle(oracle.offset, oracle.base)
    x = oracle.matrix_between(a, oracle.prepare(a[picked]))
    want = distances(plain, a, a[picked])
    d = assert_reductions_match(oracle, x)
    assert_same_bits(d, want)
    assert oracle.evals == plain.evals == a.shape[0] * picked.shape[0]
    return x, d


@pytest.mark.parametrize("offset", [0.0, 1e-4, 0.25])
@pytest.mark.parametrize("n, c, dim, scale, shift, gap", SHAPES + [
    # one center: every row's second-smallest entry is inf
    pytest.param(300, 1, 5, 1.0, 0.0, 0.0, id="one-column"),
])
def test_reductions_match_the_distance_matrix(n, c, dim, scale, shift, gap, offset):
    x = coordinates(n, dim, seed=n * dim, scale=scale, shift=shift, gap=gap)
    picked = np.sort(np.random.default_rng(dim).choice(n, size=c, replace=False))
    oracle = DistanceOracle(offset)
    product, _ = assert_blocks_match(oracle, x, picked)
    product[:, ::5] = np.inf  # whole columns masked, as a caller may leave centers out
    assert_reductions_match(oracle, product)


def test_offset_dominated_rows_go_to_the_first_minimum_of_the_product():
    # spread 1e-17 under offset 1: distinct products, every distance 1.0,
    # and each row's column is its smallest entry's, rarely the first
    x = np.random.default_rng(0).normal(scale=1e-17, size=(500, 3))
    oracle = DistanceOracle(1.0)
    product, d = assert_blocks_match(oracle, x, np.arange(40))
    assert np.all(d == 1.0)
    cols, dmin = oracle.nearest(product)
    assert np.array_equal(cols, product.argmin(1)) and np.all(dmin == 1.0)
    assert np.count_nonzero(cols != 0) > 400


def test_nearest_takes_the_smaller_of_a_one_ulp_sqrt_merge_and_the_first_of_equal_entries():
    # entries one ulp apart whose square roots round to one value, the
    # larger in the earlier column, and a third column equal to the smaller
    rng = np.random.default_rng(4)
    hi = rng.uniform(1.0, 1e6, size=4000)
    lo = np.nextafter(hi, 0.0)
    merged = np.sqrt(hi) == np.sqrt(lo)
    assert merged.sum() > 1000
    x = np.stack([hi[merged], lo[merged], lo[merged], hi[merged] * 2.0], axis=1)
    for offset in (0.0, 0.5):
        oracle = DistanceOracle(offset)
        assert_reductions_match(oracle, x)
        assert np.all(oracle.nearest(x)[0] == 1)


def test_reductions_with_exact_twins_at_offset_0():
    # rows 0 and 1, 7 and 8, ... are exact twins; both twins are centers,
    # so a twin's own pair ties with its pair with its twin, both computed 0
    x = coordinates(300, 4, seed=11)
    picked = np.arange(0, 300, 7)
    picked = np.sort(np.concatenate([picked, picked[:-1] + 1]))
    oracle = DistanceOracle(0.0)
    _, d = assert_blocks_match(oracle, x, picked)
    assert np.count_nonzero(d == 0.0) > picked.shape[0]


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_reductions_far_from_the_origin(offset):
    x = np.random.default_rng(9).normal(size=(300, 3)) + 1e8
    assert_blocks_match(DistanceOracle(offset), x, np.arange(0, 300, 6))


def _rounded_l1(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.abs(np.round(u) - np.round(v)).sum())


def test_reductions_with_a_custom_metric():
    # an L1 metric over rounded coordinates: distinct points at distance 0,
    # so at either offset a row's first minimum may come before its own pair
    x = coordinates(60, 2, seed=3, scale=0.6)
    picked = np.arange(0, 60, 4)
    for offset in (0.0, 0.3):
        oracle = DistanceOracle(offset, base=_rounded_l1)
        _, d = assert_blocks_match(oracle, x, picked)
        own_first = np.argmin(d[picked], axis=1) == np.arange(picked.shape[0])
        assert 0 < np.count_nonzero(own_first) < picked.shape[0]


@pytest.mark.parametrize("offset", [0.0, 0.25, 1.0])
def test_cost_set_equals_the_minimum_of_the_distance_matrix(offset):
    def l1(u, v):
        return float(np.abs(u - v).sum())

    for shift, scale, base in ((0.0, 1.0, None), (1e8, 1.0, None), (0.0, 1e-17, None), (0.0, 1.0, l1)):
        pts = points_from_array(coordinates(150, 3, seed=7, scale=scale, shift=shift))
        centers = pts[3::29]
        coords = np.stack([q.coords for q in pts])
        ctr = np.stack([q.coords for q in centers])
        for p in (1.0, 2.0):
            oracle = DistanceOracle(offset, base)
            d = distances(oracle, coords, ctr)
            d[3::29, np.arange(len(centers))] = 0.0  # each center's own row
            want = float(np.sum(d.min(axis=1) ** p))
            got = cost_set(centers, pts, p, oracle)
            assert repr(got) == repr(want)
            assert oracle.evals == 2 * len(pts) * len(centers)


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cost_set_puts_every_universe_point_with_a_center_id_at_0(offset, p):
    # universe ids 5 and 8 each held by two points; center 5 at one copy's
    # coordinates, center 999 absent from the universe, and center 8 at
    # coordinates no universe point has: each copy of ids 5 and 8 is at 0
    x = coordinates(40, 3, seed=13)
    universe = [Point(i if i < 30 else (5, 8)[i % 2], x[i]) for i in range(32)]
    centers = [Point(5, x[5]), Point(999, x[31] + 2.0), Point(8, x[8] - 3.0)]
    oracle = DistanceOracle(offset)
    ordered = sorted(universe, key=lambda q: q.id)  # the order cost_set sums in
    want = float(np.sum(pairwise(oracle, ordered, centers, count=False).min(axis=1) ** p))
    got = cost_set(centers, universe, p, oracle)
    assert repr(got) == repr(want)
    assert oracle.evals == len(universe) * len(centers)
    copies = [q for q in universe if q.id in (5, 8)]
    assert len(copies) == 4 and cost_set(centers, copies, p, oracle) == 0.0


class UnmarkedReductions(DistanceOracle):
    """Fails when ``nearest`` or ``row_min`` is handed an entry marked ``-inf``;
    counts the rows each reads."""

    def __init__(self, offset: float, base=None) -> None:
        super().__init__(offset, base)
        self.rows = {"nearest": 0, "row_min": 0}

    def nearest(self, x: np.ndarray):
        assert not np.isneginf(x).any()
        self.rows["nearest"] += x.shape[0]
        return super().nearest(x)

    def row_min(self, x: np.ndarray) -> np.ndarray:
        assert not np.isneginf(x).any()
        self.rows["row_min"] += x.shape[0]
        return super().row_min(x)


@pytest.mark.parametrize("offset, base", [
    pytest.param(0.0, None, id="offset0"),
    pytest.param(0.1, None, id="offset0.1"),
    pytest.param(0.0, _rounded_l1, id="custom-l1"),
])
def test_no_package_caller_hands_the_reductions_a_marked_entry(offset, base):
    # a slide with queries over 16 grid points, so almost every point has
    # exact duplicates: cover rounds reduce with nearest, costs with row_min
    window, steps = (100, 60) if base else (300, 200)
    x = np.random.default_rng(5).integers(0, 4, size=(window + steps, 2)).astype(np.float64)
    pts = points_from_array(x)
    oracle = UnmarkedReductions(offset, base)
    state = preprocess(pts[:window], DynamicParams(k=3, phi=8, seed=1), oracle)
    for step in range(steps):
        state.insert(pts[window + step])
        state.delete(pts[step].id)
        if step % 20 == 0:
            for p in (1.0, 2.0):
                query(state, 3, p, seed=step)
    assert min(oracle.rows.values()) > 0


def test_evaluation_count_equals_the_pairs_the_kernels_return(monkeypatch):
    # what a tracer that wraps the block kernel attributes must add up to the
    # counter over preprocess, a slide and queries (the aligned-pair kernel
    # counts nothing)
    seen = []
    kernel = DistanceOracle.matrix_between

    def traced(*args, **kwargs):
        out = kernel(*args, **kwargs)
        seen.append(out.shape[0] * out.shape[1])
        return out

    monkeypatch.setattr(DistanceOracle, "matrix_between", traced)
    pts = synthetic_points(SyntheticSpec(5, 3, 700), 1)
    oracle = DistanceOracle(1.0 / 700)
    state = preprocess(pts[:400], DynamicParams(k=4, phi=25, seed=2), oracle)
    for i in range(400, 700):
        state.insert(pts[i])
        state.delete(pts[i - 400].id)
        if i % 60 == 0:
            query(state, 4, 1.0, seed=i)
    assert oracle.evals > 0 and sum(seen) == oracle.evals

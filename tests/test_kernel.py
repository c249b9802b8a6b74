"""The distance kernel and the cover round against plain-numpy references.

``_reference_matrix_between`` states the kernel's formula in plain numpy:
center both blocks on the mean of ``b``, multiply ``[u, 1, |u|^2]`` by
``[-2v, |v|^2, 1]`` transposed, clip at 0, take the sqrt, add the offset, and
zero same-id pairs through an n x c id mask. ``_reference_cover_arrays`` is
the package's earlier cover round, kept verbatim apart from taking the
oracle as an argument: it passed ids to the kernel and took the minimum in a
second reduction. The package works in place and in fewer passes over
memory; every matrix entry, covered flag and radius it returns must be
bit-identical to the reference, and so must each row's nearest center id.

The absorbed-center rule is written into the cover reference as a plain
loop: a sampled center whose own row's first minimum is another center has
its column masked before the assignment, so it keeps no members. The
package drops such a center instead, so its centers are the reference
centers that some row picks. Of the
pinned cases only ``near-twins-0.0`` has such a center (twins 1e-10 apart,
far below the kernel's rounding error at unit spread), so only its
expectation differs from an unmasked cover round; at offset 0.25 the
twins' distances round to ties, which the first minimum already breaks
toward the kept twin.

``nearest`` and ``row_min`` reduce the squared product that
``matrix_between(..., squared=True)`` returns. ``_reference_nearest``
finishes that product into distances as the kernel does and takes the first
argmin and the minimum; the reductions must match it bit for bit, and the
finished product must match ``matrix_between`` itself, on cases where
distinct products round to one distance.
"""
from __future__ import annotations

from typing import Optional, Sequence

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
from dynkmed.cover import _cover_arrays, _quantile_index
from dynkmed.metric import PointId


def _reference_matrix_between(
    self: DistanceOracle,
    a_coords: np.ndarray,
    a_ids: Optional[Sequence[PointId]],
    b_coords: np.ndarray,
    b_ids: Optional[Sequence[PointId]],
    count: bool = True,
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
        out = np.sqrt(np.maximum(left @ right.T, 0.0))
    else:
        out = np.empty((n, c), dtype=np.float64)
        for i in range(n):
            for j in range(c):
                out[i, j] = self.base(a[i], b[j])
    if self.offset:
        out += self.offset
    if a_ids is not None and b_ids is not None:
        ia = np.asarray(a_ids, dtype=np.int64)
        ib = np.asarray(b_ids, dtype=np.int64)
        same = ia[:, None] == ib[None, :]
        if same.any():
            out[same] = 0.0
    return out


def _reference_cover_arrays(
    ids: np.ndarray,
    coords: np.ndarray,
    params: DynamicParams,
    rng: np.random.Generator,
    oracle: DistanceOracle,
    mask_absorbed: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    n = ids.shape[0]
    if params.sampler is not None:
        sample = list(params.sampler(list(int(i) for i in ids), params.phi, rng))
        known = set(int(i) for i in ids)
        for s in sample:
            if s not in known:
                raise ValueError(f"sampler returned id {s} outside the working set")
    else:
        sample = ids[rng.integers(0, n, size=params.phi)].tolist()
    center_ids = np.array(sorted(set(int(s) for s in sample)), dtype=np.int64)
    pos = np.searchsorted(ids, center_ids)

    dist = _reference_matrix_between(oracle, coords, ids, coords[pos], center_ids)
    if mask_absorbed:
        absorbed = [j for j, row in enumerate(pos) if np.argmin(dist[row]) != j]
        dist[:, absorbed] = np.inf
    dmin = dist.min(axis=1)
    m = _quantile_index(params.beta, n)
    radius = float(np.partition(dmin, m - 1)[m - 1])
    nearest = np.argmin(dist, axis=1)  # first minimum: smallest center id wins
    return center_ids, nearest, dmin <= radius, radius


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def assert_same_cover(ids: np.ndarray, got: tuple, want: tuple) -> None:
    """A cover round (center positions, nearest, mask, radius) against the
    reference's (sampled center ids, nearest, mask, radius): the same center
    id for every row, the centers some row picks, mask and radius."""
    pos, nearest, mask, radius = got
    center_ids, want_nearest, want_mask, want_radius = want
    assert pos.dtype == np.int64
    assert np.array_equal(ids[pos][nearest], center_ids[want_nearest])
    assert np.array_equal(ids[pos], center_ids[np.unique(want_nearest)])
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
    ids = np.arange(1000, 1000 + n)
    b = x[picked]
    # same-id pairs: both blocks' own ids; overlapping ids with repeats on
    # both sides; and no ids at all
    repeated_a = ids % 97
    repeated_b = np.concatenate([ids[picked][: c // 2] % 97, ids[picked][c // 2 :]])
    id_cases = [(ids, ids[picked]), (repeated_a, repeated_b), (None, None)]
    for a_ids, b_ids in id_cases:
        new, old = DistanceOracle(offset), DistanceOracle(offset)
        got = new.matrix_between(x, a_ids, b, b_ids)
        want = _reference_matrix_between(old, x, a_ids, b, b_ids)
        assert_same_bits(got, want)
        assert new.evals == old.evals == n * c
        if a_ids is not None:
            assert np.count_nonzero(got == 0.0) >= c


def test_matrix_between_zeroes_every_repeated_same_id_pair():
    x = coordinates(9, 3, seed=2)
    oracle = DistanceOracle(0.5)
    a_ids, b_ids = [4, 4, 1, 7, 1, 9, 9, 9, 2], [1, 9, 4, 1, 8]
    got = oracle.matrix_between(x, a_ids, x[:5] + 1.0, b_ids)
    same = np.equal.outer(a_ids, b_ids)
    assert same.sum() == 9
    assert np.all(got[same] == 0.0) and np.all(got[~same] >= 0.5)


def test_matrix_between_does_not_depend_on_buffer_identity():
    x = coordinates(700, 6, seed=5, scale=4.0)
    oracle = DistanceOracle(0.1)
    same = oracle.matrix_between(x, None, x, None)
    assert_same_bits(same, oracle.matrix_between(x, None, x.copy(), None))
    # a view of the same memory is copied too
    assert_same_bits(
        oracle.matrix_between(x, None, x[:50], None),
        oracle.matrix_between(x, None, x[:50].copy(), None),
    )


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("n, c, dim, scale, shift, gap", SHAPES)
def test_cover_round_matches_the_reference(n, c, dim, scale, shift, gap, offset):
    x = coordinates(n, dim, seed=n - dim, scale=scale, shift=shift, gap=gap)
    ids = np.arange(3, 3 + 2 * n, 2)          # sorted, distinct, not positions
    changed = False
    for phi, beta in ((c, 0.5), (7, 0.8)):
        params = DynamicParams(k=3, phi=phi, beta=beta)
        new_rng, old_rng = np.random.default_rng(n), np.random.default_rng(n)
        new, old = DistanceOracle(offset), DistanceOracle(offset)
        got = _cover_arrays(ids, x, params, new_rng, new)
        want = _reference_cover_arrays(ids, x, params, old_rng, old)
        unmasked = _reference_cover_arrays(
            ids, x, params, np.random.default_rng(n), DistanceOracle(offset), mask_absorbed=False
        )
        changed |= not all(np.array_equal(w, u) for w, u in zip(want, unmasked))
        assert_same_cover(ids, got, want)
        assert new.evals == old.evals
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert changed == (gap > 0.0 and offset == 0.0)


def test_cover_round_with_a_sampler_and_twin_centers_matches_the_reference():
    # rows 0 and 1 are twins and both are sampled; a repeated sample
    # collapses to one center
    x = coordinates(50, 2, seed=8)
    ids = np.arange(50)
    params = DynamicParams(k=2, phi=4, sampler=lambda pool, count, rng: [1, 0, 0, 30])
    for offset in (0.0, 0.3):
        got = _cover_arrays(ids, x, params, None, DistanceOracle(offset))
        want = _reference_cover_arrays(ids, x, params, None, DistanceOracle(offset))
        assert_same_cover(ids, got, want)
        # at offset 0 twin 1's own row goes to twin 0, so it keeps no cluster
        assert ids[got[0]].tolist() == ([0, 30] if offset == 0.0 else [0, 1, 30])


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
        got = DistanceOracle(offset).matrix_between(a, None, b, None) - offset
        diff = a[:, None, :] - b[None, :, :]
        want_sq = np.einsum("ijk,ijk->ij", diff, diff)
        spread = x - b.mean(axis=0)
        r_sq = np.einsum("ij,ij->i", spread, spread).max()
        assert np.abs(got**2 - want_sq).max() <= 4 * (dim + 2) * eps * r_sq, shift


# -- row-minimum reductions ----------------------------------------------------


def _reference_nearest(oracle: DistanceOracle, x: np.ndarray):
    """The distances ``matrix_between`` finishes a squared product ``x``
    into (-inf marks a same-id pair), with their first argmin and minimum."""
    d = x.copy()
    if oracle.base is None:
        d = np.sqrt(np.maximum(x, 0.0))
        if oracle.offset:
            d += oracle.offset
    d[x == -np.inf] = 0.0
    cols = np.argmin(d, axis=1)
    return d, cols, d[np.arange(d.shape[0]), cols]


def assert_reductions_match(oracle: DistanceOracle, x: np.ndarray) -> np.ndarray:
    """``nearest`` and ``row_min`` of ``x`` equal the reference bit for bit
    and leave ``x`` as it was; returns the reference distances."""
    before = x.copy()
    d, want_cols, want_min = _reference_nearest(oracle, x)
    cols, dmin = oracle.nearest(x)
    assert_same_bits(x, before)
    assert np.array_equal(cols, want_cols)
    assert_same_bits(dmin, want_min)
    assert_same_bits(oracle.row_min(x), want_min)
    assert_same_bits(x, before)
    return d


def assert_blocks_match(oracle, a, a_ids, b, b_ids):
    """The reductions of the squared product equal ``matrix_between`` plus
    its first argmin, with the same evaluation count."""
    plain = DistanceOracle(oracle.offset, oracle.base)
    x = oracle.matrix_between(a, a_ids, b, b_ids, squared=True)
    d = assert_reductions_match(oracle, x)
    assert_same_bits(d, plain.matrix_between(a, a_ids, b, b_ids))
    assert oracle.evals == plain.evals == a.shape[0] * b.shape[0]
    return x, d


@pytest.mark.parametrize("offset", [0.0, 1e-4, 0.25])
@pytest.mark.parametrize("n, c, dim, scale, shift, gap", SHAPES)
def test_reductions_match_the_distance_matrix(n, c, dim, scale, shift, gap, offset):
    x = coordinates(n, dim, seed=n * dim, scale=scale, shift=shift, gap=gap)
    picked = np.sort(np.random.default_rng(dim).choice(n, size=c, replace=False))
    ids = np.arange(5, 5 + n)
    for a_ids, b_ids in ((ids, ids[picked]), (None, None)):
        assert_blocks_match(DistanceOracle(offset), x, a_ids, x[picked], b_ids)


def test_reductions_break_offset_dominated_ties_toward_the_first_column():
    # spread 1e-17 under offset 1: distinct products, every distance 1.0
    x = np.random.default_rng(0).normal(scale=1e-17, size=(500, 3))
    oracle = DistanceOracle(1.0)
    squared, d = assert_blocks_match(oracle, x, None, x[:40], None)
    assert np.all(d == 1.0)
    assert np.count_nonzero(np.argmin(squared, axis=1) != 0) > 400


def test_nearest_takes_the_first_column_of_a_one_ulp_sqrt_merge():
    # entries one ulp apart whose square roots round to one value, the
    # larger in the earlier column
    rng = np.random.default_rng(4)
    hi = rng.uniform(1.0, 1e6, size=4000)
    lo = np.nextafter(hi, 0.0)
    merged = np.sqrt(hi) == np.sqrt(lo)
    assert merged.sum() > 1000
    x = np.stack([hi[merged], lo[merged], hi[merged] * 2.0], axis=1)
    for offset in (0.0, 0.5):
        oracle = DistanceOracle(offset)
        assert_reductions_match(oracle, x)
        assert np.all(oracle.nearest(x)[0] == 0)


def test_reductions_with_exact_twins_at_offset_0():
    # rows 0 and 1, 7 and 8, ... are exact twins; both twins are centers,
    # so a twin's own pair (-inf) ties with its twin's computed 0
    x = coordinates(300, 4, seed=11)
    ids = np.arange(300)
    picked = np.arange(0, 300, 7)
    picked = np.sort(np.concatenate([picked, picked[:-1] + 1]))
    oracle = DistanceOracle(0.0)
    _, d = assert_blocks_match(oracle, x, ids, x[picked], ids[picked])
    assert np.count_nonzero(d == 0.0) > picked.shape[0]


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_reductions_after_masking_absorbed_centers(offset):
    # near twins 1e-10 apart, own pairs marked as the cover round marks them
    x = coordinates(400, 5, seed=2, gap=1e-10)
    pos = np.unique(np.concatenate([np.arange(0, 400, 7), np.arange(1, 400, 7), np.arange(3, 400, 11)]))
    columns = np.arange(pos.shape[0])
    oracle = DistanceOracle(offset)
    squared = oracle.matrix_between(x, None, x[pos], None, squared=True)
    squared[pos, columns] = -np.inf
    _, cols, _ = _reference_nearest(oracle, squared)
    absorbed = cols[pos] != columns
    assert absorbed.any() == (offset == 0.0)
    squared[:, absorbed | (columns % 5 == 0)] = np.inf
    assert_reductions_match(oracle, squared)


@pytest.mark.parametrize("offset", [0.0, 0.25])
def test_reductions_far_from_the_origin(offset):
    x = np.random.default_rng(9).normal(size=(300, 3)) + 1e8
    ids = np.arange(300)
    picked = np.arange(0, 300, 6)
    assert_blocks_match(DistanceOracle(offset), x, ids, x[picked], ids[picked])


def test_reductions_with_a_custom_metric():
    # an L1 metric over rounded coordinates: distinct points at distance 0,
    # so a row's first zero may come before its own pair
    def l1(u, v):
        return float(np.abs(np.round(u) - np.round(v)).sum())

    x = coordinates(60, 2, seed=3, scale=0.6)
    ids = np.arange(60)
    picked = np.arange(0, 60, 4)
    for offset in (0.0, 0.3):
        oracle = DistanceOracle(offset, base=l1)
        _, d = assert_blocks_match(oracle, x, ids, x[picked], ids[picked])
        own_first = np.argmin(d[picked], axis=1) == np.arange(picked.shape[0])
        assert own_first.all() == (offset > 0.0)


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
            d = oracle.matrix_between(coords, [q.id for q in pts], ctr, [q.id for q in centers])
            want = float(np.sum(d.min(axis=1) ** p))
            got = cost_set(centers, pts, p, oracle)
            assert repr(got) == repr(want)
            assert oracle.evals == 2 * len(pts) * len(centers)


def test_evaluation_count_equals_the_pairs_the_kernels_return(monkeypatch):
    # what a tracer that wraps the two kernels attributes must add up to the
    # counter over preprocess, a slide and queries
    seen = []

    def wrap(kernel, pairs):
        def traced(*args, **kwargs):
            out = kernel(*args, **kwargs)
            if kwargs.get("count", True):
                seen.append(pairs(out))
            return out

        return traced

    monkeypatch.setattr(
        DistanceOracle, "matrix_between",
        wrap(DistanceOracle.matrix_between, lambda out: out.shape[0] * out.shape[1]),
    )
    monkeypatch.setattr(DistanceOracle, "elementwise", wrap(DistanceOracle.elementwise, len))
    pts = synthetic_points(SyntheticSpec(5, 3, 700), 1)
    oracle = DistanceOracle(1.0 / 700)
    state = preprocess(pts[:400], DynamicParams(k=4, phi=25, seed=2), oracle)
    for i in range(400, 700):
        state.insert(pts[i])
        state.delete(pts[i - 400].id)
        if i % 60 == 0:
            query(state, 4, 1.0, seed=i)
    assert oracle.evals > 0 and sum(seen) == oracle.evals

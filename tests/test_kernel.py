"""The distance kernel and the cover round against plain-numpy references.

``_reference_matrix_between`` states the kernel's formula in plain numpy:
center both blocks on the mean of ``b``, multiply ``[u, 1, |u|^2]`` by
``[-2v, |v|^2, 1]`` transposed, clip at 0, take the sqrt, add the offset, and
zero same-id pairs through an n x c id mask. ``_reference_cover_arrays`` is
the package's earlier cover round, kept verbatim apart from taking the
oracle as an argument: it passed ids to the kernel and took the minimum in a
second reduction. The package works in place and in fewer passes over
memory; every matrix entry, nearest center, covered flag and radius it
returns must be bit-identical to the reference.

The absorbed-center rule is written into the cover reference as a plain
loop: a sampled center whose own row's first minimum is another center has
its column masked before the assignment, so it keeps no members. Of the
pinned cases only ``near-twins-0.0`` has such a center (twins 1e-10 apart,
far below the kernel's rounding error at unit spread), so only its
expectation differs from an unmasked cover round; at offset 0.25 the
twins' distances round to ties, which the first minimum already breaks
toward the kept twin.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest

from dynkmed import DistanceOracle, DynamicParams
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
        assert np.array_equal(got[0], want[0])
        assert got[0].dtype == want[0].dtype == np.int64
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert repr(got[3]) == repr(want[3])
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
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)
        assert repr(got[3]) == repr(want[3])
        assert got[0].tolist() == [0, 1, 30]


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

"""The update path against the code it replaced, kept verbatim as references.

Below are the cover round ``_cover_arrays``, the Euclidean kernel
``matrix_between`` with the helpers it called (``_check_custom`` and
``_same_id_pairs``), the reductions ``nearest`` and ``_nearest_two`` with
the oracle's ``_distances``, which read a ``-inf`` entry as 0, and
the rebuild loop of ``ClusteringState`` (``_cover_rounds``, ``_rebuild``,
``rebuild_from_layer``, ``insert``, ``delete`` and ``rebuild``) as they were
before the update path was cut to fewer numpy calls per cover round, per
rebuild and per update. Their bodies are unchanged, except that the cover
round reads no sampler from the params, a forced sample reaching both sides
through ``rng.integers`` as the draws of ``oracles.ForcedDraws``, that the
rounds stop at ``phi``, that the slots are the store's ``slot``, which the
store grows with its rows, so ``insert`` and ``reference_preprocess`` no
longer call the state's ``_track_rows``, and that the cover round states
the package's two rules for sampled rows in one line each: each sampled row
is its own center, so twin centers at offset 0 each keep a cluster, and a
sample that fills the beta-quantile is the whole covered set, so a center's
unsampled duplicates at offset 0 are left over. The reference kernel takes
ids and zeroes or marks same-id pairs itself; the package's kernel takes
coordinates only, so the tests mark those pairs in its result to compare
kernels. No package caller hands the package's reductions a marked entry,
so they are compared with the references on unmarked blocks.
``ReferenceOracle`` and ``ReferenceState`` carry the methods, so the cover
round and the rounds below resolve ``_cover_arrays``, ``_nearest_two`` and
the oracle's methods to the references.

The package must return the same bits: sample positions, nearest columns,
distances, covered masks, radii, rounds and the state of the sample stream,
and a slide driven by the references must match a slide driven by the
package after every update. The package peels its rounds inside
``_rebuild``, so rounds are compared through ``_rebuild`` on both sides, by
the layers, table and slots each installs. The package's round gathers its
rows from the store and returns the nearest center of the rows it covers
only, so nearest columns are compared on the covered rows, and the other
rows by being left over; its inputs include a non-contiguous subset of a
larger matrix's rows, and its rounds a slid state's U_2, whose rows are out
of id order, with every other row of the store NaN. The package's
evaluation count must be the reference's exactly, less the c * c pairs
between a round's c sampled centers and, in a round that evaluates nothing,
its other (n - c) * c pairs too.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import pytest

from dynkmed import DistanceOracle, DynamicParams, points_from_array, preprocess
from dynkmed import metric
from dynkmed.dynamic import _EPS, ClusteringState, Layer, _quantile_index
from dynkmed.metric import Point, PointId
from oracles import ForcedDraws, cover_positions

# -- references, verbatim ------------------------------------------------------


def _check_custom(
    values: np.ndarray,
    a_ids: Optional[Sequence[PointId]],
    b_ids: Optional[Sequence[PointId]],
) -> None:
    bad = ~(np.isfinite(values) & (values >= 0.0))
    if not bad.any():
        return
    where = np.argwhere(bad)[0]
    i, j = int(where[0]), int(where[-1])
    if a_ids is not None and b_ids is not None:
        pair = f"points {a_ids[i]} and {b_ids[j]}"
    else:
        pair = f"rows {i} and {j}"
    raise ValueError(f"custom metric returned {float(values[tuple(where)])!r} for {pair}")


def _same_id_pairs(
    a_ids: Sequence[PointId], b_ids: Sequence[PointId], n: int, c: int
) -> tuple[np.ndarray, np.ndarray]:
    ia = np.asarray(a_ids, dtype=np.int64)
    ib = np.asarray(b_ids, dtype=np.int64)
    if ia.shape != (n,) or ib.shape != (c,):
        raise ValueError("id sequences must match the coordinate blocks")
    order = np.argsort(ib, kind="stable")
    sorted_ids = ib[order]
    first = np.searchsorted(sorted_ids, ia, side="left")
    counts = np.searchsorted(sorted_ids, ia, side="right") - first
    rows = np.repeat(np.arange(n), counts)
    # the matches of row i are order[first[i] : first[i] + counts[i]]
    starts = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return rows, order[starts + np.arange(rows.shape[0])]


def _cover_arrays(
    ids: np.ndarray,
    coords: np.ndarray,
    params: DynamicParams,
    rng: np.random.Generator,
    oracle: DistanceOracle,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    n = ids.shape[0]
    mark = np.zeros(n, dtype=bool)
    mark[rng.integers(0, n, size=params.phi)] = True
    pos = np.flatnonzero(mark)

    # ids are distinct, so the only same-id pair of center j is (pos[j], j);
    # it is marked -inf, as matrix_between marks same-id pairs when squared
    dist = oracle.matrix_between(coords, None, coords[pos], None, squared=True)
    columns = np.arange(pos.shape[0])
    dist.reshape(-1)[pos * dist.shape[1] + columns] = -np.inf  # flat: dist is C-ordered
    nearest, dmin = oracle.nearest(dist)  # first minimum: smallest center id wins
    nearest[pos] = columns  # each sampled row is its own center
    m = _quantile_index(params.beta, n)
    radius = float(np.partition(dmin, m - 1)[m - 1])
    covered = dmin <= radius if pos.shape[0] < m else mark  # a filled quantile covers the sample alone
    return pos, nearest, covered, radius


def _nearest_two(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.ascontiguousarray(x)
    cols = np.argmin(x, axis=1)
    flat, at = x.reshape(-1), np.arange(0, x.size, x.shape[1]) + cols
    low = flat[at]
    flat[at] = np.inf
    second = flat[at + (np.argmin(x, axis=1) - cols)]  # argmin beats min(axis=1) on short rows
    flat[at] = low
    return cols, low, second


class ReferenceOracle(DistanceOracle):
    def matrix_between(
        self,
        a_coords: np.ndarray,
        a_ids: Optional[Sequence[PointId]],
        b_coords: np.ndarray,
        b_ids: Optional[Sequence[PointId]],
        squared: bool = False,
    ) -> np.ndarray:
        a = np.asarray(a_coords, dtype=np.float64)
        b = np.asarray(b_coords, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
            raise ValueError("coordinate blocks must be 2-D with equal dimension")
        n, c = a.shape[0], b.shape[0]
        self.evals += n * c
        out = np.empty((n, c), dtype=np.float64)
        if self.base is not None:
            for i in range(n):
                for j in range(c):
                    out[i, j] = self.base(a[i], b[j])
            _check_custom(out, a_ids, b_ids)
            if self.offset:
                out += self.offset
        elif n and c:
            d = a.shape[1]
            left, right = np.empty((n, d + 2)), np.empty((c, d + 2))
            with np.errstate(over="ignore", invalid="ignore"):
                mu = np.add.reduce(b, 0) / c
                u = np.subtract(a, mu, out=left[:, :d])
                v = np.subtract(b, mu, out=right[:, :d])
                left[:, d + 1] = np.einsum("ij,ij->i", u, u)
                right[:, d] = np.einsum("ij,ij->i", v, v)
                if not math.isfinite(2.0 * (left[:, d + 1].max() + right[:, d].max())):
                    raise ValueError("coordinates overflow float64 in the Euclidean kernel: "
                                     "2 * (max|a-mu|^2 + max|b-mu|^2) is not finite")
            v *= -2.0
            left[:, d] = 1.0
            right[:, d + 1] = 1.0
            np.matmul(left, right.T, out=out)
            if not squared:
                self._root(out, out=out)
        if a_ids is not None and b_ids is not None:
            rows, cols = _same_id_pairs(a_ids, b_ids, n, c)
            out[rows, cols] = -np.inf if squared else 0.0
        return out

    def nearest(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cols, low, second = _nearest_two(x)
        dmin, second = self._distances(np.concatenate((low, second))).reshape(2, -1)
        tied = np.flatnonzero(second <= dmin)
        if tied.shape[0]:
            cols[tied], dmin[tied] = _nearest_two(self._distances(x[tied]))[:2]
        return cols, dmin

    def _distances(self, x: np.ndarray) -> np.ndarray:
        """Distances of ``squared=True`` entries; -inf (a caller's mark) is 0."""
        d = self._root(x)
        d[x == -np.inf] = 0.0
        return d


def skips(beta: float, n: int, c: int) -> bool:
    """Whether the package's round of n points and c distinct sampled
    centers evaluates nothing: when c fills the beta-quantile."""
    return c >= _quantile_index(beta, n)


class RoundReference(ReferenceOracle):
    """The reference kernel for cover rounds at the rounds' ``beta``, also
    summing the pairs of each n-by-c block that the package's round leaves
    out: the c * c between the sampled centers, and the other (n - c) * c
    of a round that :func:`skips`. So the package evaluates
    ``package_evals``."""

    def __init__(self, offset: float, base, beta: float) -> None:
        super().__init__(offset, base)
        self.beta, self.left_out = beta, 0

    def matrix_between(self, a_coords, a_ids, b_coords, b_ids, squared=False):
        n, c = len(a_coords), len(b_coords)
        self.left_out += c * c + (n - c) * c * skips(self.beta, n, c)
        return super().matrix_between(a_coords, a_ids, b_coords, b_ids, squared)

    @property
    def package_evals(self) -> int:
        return self.evals - self.left_out


class ReferenceState(ClusteringState):
    def _cover_rounds(self, rows: np.ndarray, ids: np.ndarray) -> list:
        coords = self.store.matrix[rows]
        rounds: list = []
        while ids.shape[0] > self.params.phi:
            pos, nearest, mask, radius = _cover_arrays(
                ids, coords, self.params, self.rng, self.oracle)
            group = nearest[mask]
            rounds.append((ids.shape[0], radius, rows[mask], group, rows[pos], np.bincount(group)))
            keep = np.flatnonzero(~mask)
            rows, ids, coords = rows.take(keep), ids.take(keep), coords.take(keep, 0)
        rest = ids.shape[0]
        rounds.append((rest, 0.0, rows, np.arange(rest), rows, np.ones(rest, dtype=np.int64)))
        return rounds

    def _rebuild(self, index: int, rows: np.ndarray) -> None:
        ids = self.store.row_ids[rows]
        order = np.argsort(ids)
        stream = self.rng.bit_generator.state
        try:
            rounds = self._cover_rounds(rows[order], ids[order])
        except BaseException:
            self.rng.bit_generator.state = stream
            raise
        start, slack = self.layers[index - 1].start, self.params.slack
        del self.layers[index - 1 :], self.center[start:], self.size[start:]
        for base_size, radius, layer_rows, group, centers, sizes in rounds:
            start = len(self.center)
            self.layers.append(Layer(start, radius, base_size, due=slack * base_size - _EPS))
            self.store.slot[layer_rows] = start + group
            self.center += centers.tolist()
            self.size += sizes.tolist()

    def rebuild_from_layer(self, index: int) -> None:
        if not 1 <= index <= self.t:
            raise IndexError(f"layer index {index} out of range 1..{self.t}")
        slots = self.store.slot[: self.store.used]
        self._rebuild(index, np.flatnonzero(slots >= self.layers[index - 1].start))

    def insert(self, point: Point) -> None:
        row = self.store.add(point)  # raises on a duplicate id before any change
        for layer in self.layers:
            layer.updates += 1
        self.store.slot[row] = len(self.center)
        self.center.append(row)
        self.size.append(1)
        self.rebuild()

    def delete(self, pid: PointId) -> None:
        row = self.store.row(pid)  # KeyError for an unknown id
        s = int(self.store.slot[row])
        for layer in self.layers:
            if layer.start > s:
                break
            layer.updates += 1
        self.store.slot[row] = -1
        self.size[s] -= 1
        if self.center[s] == row and self.size[s]:
            rows = np.flatnonzero(self.store.slot[: self.store.used] == s)
            self.center[s] = int(rows[np.argmin(self.store.row_ids[rows])])
        self.store.remove(pid)
        self.rebuild()

    def rebuild(self) -> None:
        for i, layer in enumerate(self.layers, start=1):
            if layer.updates >= layer.due:
                self.rebuild_from_layer(i)
                return


def reference_preprocess(points, params: DynamicParams, oracle: ReferenceOracle) -> ReferenceState:
    state = ReferenceState(params, oracle)
    rows = state.store.add_many(list(points))
    state._rebuild(1, rows)
    return state


# -- cases ---------------------------------------------------------------------


def l1(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.abs(u - v).sum())


def blocks(case: str, seed: int, n: int = 180, dim: int = 4) -> np.ndarray:
    """Random rows: every third row an exact duplicate of its predecessor
    (``duplicates``), all rows shifted by 1e8 (``shift``), or Gaussian."""
    x = np.random.default_rng(seed).normal(size=(n, dim))
    if case == "duplicates":
        x[1::3] = x[0:-1:3][: x[1::3].shape[0]]
    if case == "shift":
        x += 1e8
    return x


def twin_positions(n, size):
    """Forced draws: positions 6j and 6j + 1 of the working set of n points
    (twins in ``blocks("duplicates")``), then repeats of two of them."""
    return sorted(list(range(0, n, 6)) + list(range(1, n, 6)))[:size] + [1, 0]


def stream(draws, seed):
    """The sample stream of a case: seeded, or forced to ``draws``."""
    return seed if draws is None else ForcedDraws(draws)


# (case, offset, metric, forced draws)
CASES = [
    pytest.param("duplicates", 0.0, None, None, id="offset0-duplicates"),
    pytest.param("shift", 0.25, None, None, id="shift-1e8"),
    pytest.param("gauss", 0.1, l1, None, id="custom-metric"),
    pytest.param("duplicates", 0.0, None, twin_positions, id="sampler"),
]


class BranchCounter(DistanceOracle):
    """Counts the tie branch of ``nearest``: its second ``_root`` call takes
    a 2-D block of tied rows, and a cover round calls ``_root`` nowhere else."""

    ties = 0

    def _root(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        BranchCounter.ties += x.ndim == 2
        return super()._root(x, out)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                          np.ascontiguousarray(want).view(np.uint8))


@pytest.mark.parametrize("case, offset, base, draws", CASES)
def test_cover_round_matches_its_reference(case, offset, base, draws):
    twins, skipped, BranchCounter.ties = 0, 0, 0
    for seed in range(16):
        # from seed 12 on the working set is little larger than the sample,
        # as in a rebuild's last rounds, where the sample can fill the quantile
        x = blocks(case, seed, n=(60 if base else 180) if seed < 12 else 30 + seed)
        ids = np.arange(7, 7 + 3 * x.shape[0], 3)
        params = DynamicParams(k=3, phi=25 + seed, beta=0.4 + 0.03 * (seed % 12))
        # the same points as a non-contiguous ascending subset of the rows of
        # a larger matrix whose other rows are NaN, so a read of one fails
        store = np.full((2 * x.shape[0] + 5, x.shape[1]), np.nan)
        rows = np.sort(np.random.default_rng(seed).choice(store.shape[0], x.shape[0], replace=False))
        store[rows] = x
        old_rng = np.random.default_rng(stream(draws, seed))
        old = RoundReference(offset, base, params.beta)
        want = _cover_arrays(ids, x, params, old_rng, old)
        for matrix, subset in ((x, None), (store, rows)):
            new_rng, new = np.random.default_rng(stream(draws, seed)), BranchCounter(offset, base)
            got = cover_positions(matrix, params, new_rng, new, subset)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[2], want[2])
            assert_same_bits(got[1][got[2]], want[1][want[2]])
            assert repr(got[3]) == repr(want[3])
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            assert new.evals == old.package_evals
        skipped += skips(params.beta, x.shape[0], got[0].shape[0])
        pos = got[0]  # a twin pair's rows are adjacent, so both sampled are adjacent centers
        twins += np.count_nonzero((x[pos[1:]] == x[pos[:-1]]).all(axis=1))
    # exact duplicates at offset 0 tie at distance 0, and twin centers in one
    # sample each keep a cluster
    assert (twins > 0 and BranchCounter.ties > 0) == (case == "duplicates")
    # from seed 12 on a seeded sample can fill the quantile; the twin draws number too few
    assert (skipped > 0) == (draws is None)


@pytest.mark.parametrize("case, offset, base, draws", CASES)
def test_kernel_and_reductions_match_their_references(case, offset, base, draws):
    for seed in range(6):
        x = blocks(case, 100 + seed, n=50 if base else 300)
        ids = np.arange(x.shape[0])
        picked = np.sort(np.random.default_rng(seed).choice(x.shape[0], 40, replace=False))
        for a_ids, b_ids in ((ids, ids[picked]), (None, None)):
            for squared in (False, True):  # the reductions below read the squared block
                new, old = DistanceOracle(offset, base), ReferenceOracle(offset, base)
                got = new.matrix_between(x, new.prepare(x[picked]))
                if not squared:  # the reference's distances are the product finished by _root
                    got = new._root(got, out=got)
                if a_ids is not None:  # each picked row's own pair, as a caller marks it
                    got[picked, np.arange(picked.shape[0])] = -np.inf if squared else 0.0
                want = old.matrix_between(x, a_ids, x[picked], b_ids, squared=squared)
                assert_same_bits(got, want)
                assert new.evals == old.evals
        # the reductions read the last block, squared and unmarked, as every
        # package caller hands them: the marked blocks compare kernels only
        for block in (got, np.asfortranarray(got), got[::2, 1::2]):
            before = block.copy()
            for g, w in zip(metric._nearest_two(block), _nearest_two(block)):
                assert_same_bits(g, w)
            for g, w in zip(new.nearest(block), old.nearest(block)):
                assert_same_bits(g, w)
            assert_same_bits(block, before)


def assert_same_rounds(new: ClusteringState, old: ReferenceState, index: int, rows: np.ndarray) -> None:
    """Both states' ``_rebuild`` of layers index..t from the given store rows
    peels more than one round and installs the same layers, table and slots,
    leaving the same sample stream and evaluation count."""
    for state in (new, old):
        state._rebuild(index, rows)
    assert new.t == old.t > index
    for g, w in zip(new.layers[index - 1 :], old.layers[index - 1 :]):
        assert (g.start, g.radius, g.base_size) == (w.start, w.radius, w.base_size)
    start = new.layers[index - 1].start
    assert (new.center[start:], new.size[start:]) == (old.center[start:], old.size[start:])
    assert np.array_equal(new.store.slot[rows], old.store.slot[rows])
    assert new.rng.bit_generator.state == old.rng.bit_generator.state
    assert new.oracle.evals == old.oracle.package_evals


@pytest.mark.parametrize("case, offset, base, draws", CASES)
def test_cover_rounds_match_their_reference(case, offset, base, draws):
    n = 120 if base else 700
    pts = points_from_array(blocks(case, 5, n=n + n // 4))
    params = DynamicParams(k=3, phi=12, seed=stream(draws, 9))
    new = preprocess(pts[:n], params, DistanceOracle(offset, base))
    old = reference_preprocess(pts[:n], params, RoundReference(offset, base, params.beta))
    assert_same_rounds(new, old, 1, np.flatnonzero(new.store.slot >= 0))
    # a slide: the points inserted reuse the rows of the deleted ones, out of id order
    for step in range(n // 4):
        for state in (new, old):
            state.insert(pts[n + step])
            state.delete(pts[step].id)
    rows = np.flatnonzero(new.store.slot >= new.layers[1].start)  # U_2
    assert np.any(np.diff(new.store.row_ids[rows]) < 0) and rows.shape[0] < len(new.store)
    for state in (new, old):  # a round that reads a row outside U_2 fails
        outside = np.ones(state.store.matrix.shape[0], dtype=bool)
        outside[rows] = False
        state.store.matrix[outside] = np.nan
    assert_same_rounds(new, old, 2, rows)


def assert_same_state(new: ClusteringState, old: ClusteringState) -> None:
    assert new.assignment() == old.assignment()
    assert (new.center, new.size) == (old.center, old.size)
    assert np.array_equal(new.store.slot, old.store.slot)
    assert [(l.start, l.radius, l.base_size, l.updates) for l in new.layers] == [
        (l.start, l.radius, l.base_size, l.updates) for l in old.layers
    ]
    assert [l.due for l in new.layers] == [math.ceil(l.due) for l in old.layers]
    assert new.rng.bit_generator.state == old.rng.bit_generator.state


@pytest.mark.parametrize("case, offset, base, draws", CASES)
def test_a_slide_matches_its_reference_after_every_update(case, offset, base, draws):
    window, steps = (80, 60) if base else (400, 300)
    pts = points_from_array(blocks(case, 11, n=window + steps, dim=3))
    params = DynamicParams(k=3, phi=8, seed=stream(draws, 4))
    new = preprocess(pts[:window], params, DistanceOracle(offset, base))
    old = reference_preprocess(pts[:window], params, RoundReference(offset, base, params.beta))
    assert_same_state(new, old)
    rebuilds = 0
    for step in range(steps):
        for op, arg in (("insert", pts[window + step]), ("delete", pts[step].id)):
            marks = new.oracle.evals, old.oracle.package_evals
            getattr(new, op)(arg)
            getattr(old, op)(arg)
            assert new.oracle.evals - marks[0] == old.oracle.package_evals - marks[1]
            rebuilds += new.oracle.evals > marks[0]
            assert_same_state(new, old)
    assert rebuilds > steps // 10

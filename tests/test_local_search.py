"""The incremental local search against the full-recompute version it replaced.

``_reference_solution_stats`` and ``_reference_local_search`` are the
solver's earlier code, kept verbatim: after every accepted swap they rebuild
each row's nearest center, nearest distance and second-nearest distance from
scratch. The solver keeps those three per row and recomputes only the rows a
swap can change; every swap it makes, and the cost it returns, must be
bit-identical to the reference.

The screen takes its entries from one of two sources, chosen by the sampled
density of the Gram below the largest second-nearest distance: a dense read
of each block, or a list of the near Gram entries built once per search.
The tests force each source by setting ``solver._LIST_DENSITY`` (any sampled
density is at most 1 and at least 0) and hold both to the same reference.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkmed import DistanceOracle, points_from_array, solver, weighted_solve
from dynkmed.solver import (
    LOCAL_SEARCH_DELTA,
    _exact_swap,
    _local_search,
    _nearest_two,
    _seed_indices,
)
from oracles import entries, instance_gram, instance_of, pairwise


SOURCES = {"dense": -1.0, "list": 1.0}


def _force_source(monkeypatch, source: str) -> None:
    """Make the search read its screen's entries from ``source``."""
    monkeypatch.setattr(solver, "_LIST_DENSITY", SOURCES[source])


def _seed(powered, weights, k, seed):
    """The seeding's picks over the finished Gram ``powered`` from ``seed``'s stream."""
    return _seed_indices(powered, weights, k, np.random.default_rng(seed), solver._FINISHED)[0]


def _search(powered, weights, chosen, cutoff, finish=solver._FINISHED):
    """The search from ``chosen`` (changed in place) over ``powered``, read
    through ``finish``, starting from the centers' columns ``powered[:, chosen]``."""
    near = finish(powered[:, chosen], (chosen, np.arange(len(chosen))))
    return _local_search(powered, weights, chosen, cutoff, finish, near)


def _reference_solution_stats(
    powered: np.ndarray, weights: np.ndarray, chosen: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    cols = powered[:, chosen]
    if cols.shape[1] == 1:
        d1 = cols[:, 0]
        c1 = np.zeros(cols.shape[0], dtype=np.int64)
        d2 = np.full(cols.shape[0], np.inf)
    else:
        order = np.argpartition(cols, 1, axis=1)
        rows = np.arange(cols.shape[0])
        c1 = order[:, 0]
        d1 = cols[rows, c1]
        d2 = cols[rows, order[:, 1]]
        # argpartition does not promise the first-minimum tie rule; it is not
        # needed here, c1 only groups points by their current center
    cost = float(np.sum(weights * d1))
    return cost, d1, c1, d2


def _reference_local_search(
    powered: np.ndarray,
    weights: np.ndarray,
    chosen: list[int],
    cutoff: float,
) -> float:
    n, k = powered.shape[0], len(chosen)
    cost, d1, c1, d2 = _reference_solution_stats(powered, weights, chosen)
    in_solution = np.zeros(n, dtype=bool)
    in_solution[chosen] = True
    improved = True
    while improved and cost > 0.0:
        improved = False
        for j in range(n):
            if in_solution[j]:
                continue
            column = powered[:, j]
            gain_keep = np.minimum(column, d1)
            gain_keep -= d1
            gain_keep *= weights                      # <= 0 everywhere
            shared = gain_keep.sum()
            lose = np.minimum(column, d2)
            lose -= d1
            lose *= weights
            lose -= gain_keep                         # extra cost if center lost
            per_center = np.bincount(c1, weights=lose, minlength=k)
            c_pos = int(np.argmin(per_center))
            new_cost = cost + shared + per_center[c_pos]
            if new_cost <= cutoff * cost:
                in_solution[chosen[c_pos]] = False
                in_solution[j] = True
                chosen[c_pos] = j
                cost, d1, c1, d2 = _reference_solution_stats(powered, weights, chosen)
                improved = True
                if cost <= 0.0:
                    return cost
    return cost


def _instance(seed: int, n: int, offset: float):
    """Integer grid points (even seeds) or Gaussian ones (odd seeds), a fifth
    of them exact copies of others, with integer weights: many rows sit at
    equal distance from two centers."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        coords = rng.normal(0.0, 3.0, size=(n, 2))
    else:
        coords = rng.integers(0, 6, size=(n, 2)).astype(np.float64)
    twins = rng.choice(n, size=n // 5, replace=False)
    coords[twins] = coords[rng.integers(0, n, size=twins.shape[0])]
    weights = rng.integers(1, 5, size=n)
    pts = points_from_array(coords)
    return instance_of([(q, int(w)) for q, w in zip(pts, weights)]), DistanceOracle(offset)


def _l1_oracle(offset: float) -> DistanceOracle:
    """An oracle whose custom base metric, L1, is called once per pair."""
    return DistanceOracle(offset, base=lambda a, b: float(np.abs(a - b).sum()))


def test_a_per_pair_metric_is_called_once_per_counted_evaluation():
    # 500 points make three Gram panels; the search reads only their product
    inst, _ = _instance(7, 500, 0.05)
    calls = []
    l1 = _l1_oracle(0.05).base

    def counted(a, b):
        calls.append(None)
        return l1(a, b)

    oracle = DistanceOracle(0.05, base=counted)
    weighted_solve(inst, 5, 1.0, 3, oracle)
    assert len(calls) == oracle.evals == 192 * 500 + 192 * 308 + 116 * 116


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 5, 20])
@pytest.mark.parametrize("offset", [0.0, 0.05])
def test_local_search_matches_full_recompute(p, k, offset, monkeypatch):
    # duplicates and ties through either source; at k = 1 the screen is off.
    # weighted_solve, which finishes only the Gram entries it reads, also
    # runs with a custom L1 metric and with p = 1.5
    ties = 0
    for seed in range(8):
        inst, oracle = _instance(100 * k + seed, 60, offset)
        pairs = entries(inst)
        points = [q for q, _ in pairs]
        weights = np.array([w for _, w in pairs], dtype=np.float64)
        powered = pairwise(oracle, points, points).T ** p
        cutoff = 1.0 - LOCAL_SEARCH_DELTA / k
        start = _seed(powered, weights, k, seed)
        if k > 1:
            _, d1, d2 = _nearest_two(powered[:, start])
            ties += int(np.sum(d1 == d2))

        expected = list(start)
        expected_cost = _reference_local_search(powered, weights, expected, cutoff)
        solves = []
        for other, q in ((_l1_oracle(offset), p), (oracle, 1.5)):
            other_powered = pairwise(other, points, points).T ** q
            want = _seed(other_powered, weights, k, seed)
            solves.append((other, q, want, _reference_local_search(other_powered, weights, want, cutoff)))
        for source in SOURCES:
            with monkeypatch.context() as patch:
                _force_source(patch, source)
                got = list(start)
                got_cost = _search(powered, weights, got, cutoff)
                assert got == expected
                assert repr(got_cost) == repr(expected_cost)

                solution = weighted_solve(inst, k, p, seed, oracle)
                assert solution.centers == frozenset(points[i].id for i in expected)
                assert repr(solution.cost) == repr(expected_cost)
                for other, q, want, want_cost in solves:
                    solution = weighted_solve(inst, k, q, seed, other)
                    assert solution.centers == frozenset(points[i].id for i in want)
                    assert repr(solution.cost) == repr(want_cost)
    if k > 1:
        assert ties > 0  # the instances exercise the d1 == d2 case


def test_center_retired_ahead_of_the_scan_is_rescanned_in_the_same_pass(monkeypatch):
    # Centers at 15 and 18 (indices 4, 5). Pass one: candidate 0 retires
    # index 5 (cost 66 -> 57), candidate 1 retires index 0 (-> 55), and
    # index 5, retired earlier in this pass, comes back for index 4 (-> 52).
    # Skipping index 5 until the next pass ends at [3, 7], cost 51 instead.
    x = np.array([3.0, 9.0, 10.0, 14.0, 15.0, 18.0, 23.0, 28.0])
    weights = np.array([2.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 2.0])
    powered = np.abs(x[:, None] - x[None, :])
    expected, got = [4, 5], [4, 5]
    expected_cost = _reference_local_search(powered, weights, expected, 0.99)
    assert _search(powered, weights, got, 0.99) == expected_cost == 52.0
    assert got == expected == [5, 1]
    # the swaps bring in columns 0, 1 and then 5, retired by the first one
    assert _check_cyclic_scan(powered, weights, [4, 5], 0.99, monkeypatch) == [0, 1, 5]


def test_nearest_two_takes_the_first_minimum():
    cols = np.array([
        [3.0, 1.0, 1.0, 2.0],
        [0.5, 4.0, 0.5, 0.5],
        [2.0, 3.0, 5.0, 1.5],
        [7.0, 7.0, 7.0, 7.0],
    ])
    c1, d1, d2 = _nearest_two(cols)
    assert c1.tolist() == [1, 0, 3, 0]
    assert d1.tolist() == [1.0, 0.5, 1.5, 7.0]
    assert d2.tolist() == [1.0, 0.5, 2.0, 7.0]

    c1, d1, d2 = _nearest_two(cols[:, :1])
    assert c1.tolist() == [0, 0, 0, 0]
    assert d1.tolist() == cols[:, 0].tolist()
    assert np.all(np.isinf(d2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_one_compare_finds_every_row_a_swap_can_change(data):
    # A row's state can change only if the retired center was its nearest,
    # or its second-nearest (at d2), or the new column comes within d2. On
    # small integer values full of ties, and columns that repeat others,
    # min(near[:, c_pos], column) <= d2 is that set: a center other than the
    # nearest closer than d2 would contradict d2. k = 1 (d2 = inf) included.
    m, k = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 5))
    values = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    columns = [data.draw(values) for _ in range(k + 1)]
    for c in range(k + 1):                        # some columns repeat an earlier one
        if c and data.draw(st.booleans()):
            columns[c] = columns[data.draw(st.integers(0, c - 1))]
    near, column = np.array(columns[:k], dtype=np.float64).T.copy(), np.array(columns[k], dtype=np.float64)
    c1, _, d2 = _nearest_two(near)
    for c_pos in range(k):
        three = (c1 == c_pos) | (column <= d2) | (near[:, c_pos] == d2)
        assert np.array_equal(np.minimum(near[:, c_pos], column) <= d2, three)


# -- the candidate screen ------------------------------------------------------


def _instance_arrays(seed: int, n: int, p: float, offset: float = 0.0):
    inst, oracle = _instance(seed, n, offset)
    pairs = entries(inst)
    points = [q for q, _ in pairs]
    weights = np.array([w for _, w in pairs], dtype=np.float64)
    return pairwise(oracle, points, points).T ** p, weights


def _exact_new_costs(powered, weights, chosen):
    """Each column's new cost under the best single swap, computed with the
    search's exact formula from the search's own per-row state; ``inf`` for
    the centers."""
    n, k = powered.shape[0], len(chosen)
    c1, d1, d2 = _nearest_two(powered[:, chosen])
    cost = float(np.sum(weights * d1))
    new_costs = np.full(n, np.inf)
    for j in sorted(set(range(n)) - set(chosen)):
        new_costs[j] = _exact_swap(powered[:, j], weights, c1, d1, d2, k, cost)[1]
    return cost, new_costs


def _record_blocks(monkeypatch, powered):
    """Record the columns ``(first, end)`` of every block the screen reads.
    A block is a view of columns of ``powered``, so its first column is its
    offset from ``powered``'s data over the column stride."""
    blocks: list[tuple[int, int]] = []
    screen = solver._screen_estimate

    def recording(slab, *args):
        first = (slab.ctypes.data - powered.ctypes.data) // powered.strides[1]
        blocks.append((first, first + slab.shape[0]))
        return screen(slab, *args)

    monkeypatch.setattr(solver, "_screen_estimate", recording)
    return blocks


def _record_exact(monkeypatch, powered):
    """Record the column of every candidate that reaches the exact code."""
    columns: list[int] = []
    exact = solver._exact_swap

    def recording(column, *args):
        columns.append((column.ctypes.data - powered.ctypes.data) // powered.strides[1])
        return exact(column, *args)

    monkeypatch.setattr(solver, "_exact_swap", recording)
    return columns


def _record_calls(monkeypatch, name):
    """Record the arguments of every call to ``solver.<name>``."""
    calls: list[tuple] = []
    function = getattr(solver, name)

    def recording(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(solver, name, recording)
    return calls


def _reference_swaps(powered, weights, chosen, cutoff, monkeypatch):
    """Run the reference search on ``chosen``; return its cost and the column
    each of its swaps brought in, in order."""
    snapshots: list[list[int]] = []               # the start, then after each swap
    stats = _reference_solution_stats

    def recording(powered, weights, chosen):
        snapshots.append(list(chosen))
        return stats(powered, weights, chosen)

    with monkeypatch.context() as patch:
        patch.setitem(globals(), "_reference_solution_stats", recording)
        cost = _reference_local_search(powered, weights, chosen, cutoff)
    swaps = [
        next(c for c in after if c not in before)
        for before, after in zip(snapshots, snapshots[1:])
    ]
    return cost, swaps


def _check_cyclic_scan(powered, weights, start, cutoff, monkeypatch):
    """Check, with each source of screen entries, that the search makes the
    reference's swaps and that, after the last one at column j, it screens
    every other column once, from j + 1 round to j - 1, and stops there;
    returns the swapped-in columns."""
    n = powered.shape[0]
    expected = list(start)
    expected_cost, swaps = _reference_swaps(powered, weights, expected, cutoff, monkeypatch)
    assert swaps
    last = swaps[-1]
    for source in SOURCES:
        got = list(start)
        with monkeypatch.context() as patch:
            _force_source(patch, source)
            blocks = _record_blocks(patch, powered)
            got_cost = _search(powered, weights, got, cutoff)
        assert got == expected
        assert repr(got_cost) == repr(expected_cost)
        screened = [j for first, end in blocks for j in range(first, end)]
        assert screened[-(n - 1):] == [(last + 1 + i) % n for i in range(n - 1)]
        assert blocks[-1][1] % n == last
    return swaps


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_scan_stops_when_it_comes_back_to_the_last_swap(p, monkeypatch):
    # The reference rescans from column 0 until a pass makes no swap, so its
    # last pass rereads the columns after the last swap, which were already
    # rejected against the same state; the search stops short of them.
    for seed in range(12):
        powered, weights = _instance_arrays(2 * seed + 1, 70, p, 0.05 * (seed % 2))
        k = 2 + seed % 5
        start = _seed(powered, weights, k, seed)
        _check_cyclic_scan(powered, weights, start, 1.0 - LOCAL_SEARCH_DELTA / k, monkeypatch)


def test_scan_after_a_swap_at_the_last_column_wraps_to_column_zero(monkeypatch):
    # The far point x = 100 is the last column; bringing it in for x = 0 is
    # the only swap that halves the cost, and the scan after it reads
    # columns 0, 1 and 2 once.
    x = np.array([0.0, 1.0, 2.0, 100.0])
    weights = np.array([1.0, 5.0, 1.0, 10.0])
    powered = np.abs(x[:, None] - x[None, :])
    assert _check_cyclic_scan(powered, weights, [1, 0], 0.5, monkeypatch) == [3]


def test_screen_keeps_a_candidate_whose_new_cost_equals_the_cutoff(monkeypatch):
    # The cutoff is set so that cutoff * cost is exactly the smallest new
    # cost any candidate reaches: the first swap is accepted at equality, so
    # a screen that skipped on a rounded estimate alone would drop it.
    hit = 0
    for seed in range(60):
        p = (1.0, 2.0)[seed % 2]
        powered, weights = _instance_arrays(2 * seed + 1, 90, p, 0.05 * (seed % 3))
        k = 2 + seed % 6
        start = _seed(powered, weights, k, seed)
        cost, new_costs = _exact_new_costs(powered, weights, start)
        target = float(new_costs.min())
        ratio = target / cost
        cutoffs = [c for c in (ratio, np.nextafter(ratio, 0.0), np.nextafter(ratio, 2.0))
                   if c * cost == target]
        if not cutoffs:
            continue
        hit += 1
        expected = list(start)
        expected_cost = _reference_local_search(powered, weights, expected, cutoffs[0])
        for source in SOURCES:
            _force_source(monkeypatch, source)
            got = list(start)
            got_cost = _search(powered, weights, got, cutoffs[0])
            assert got == expected, (seed, source)
            assert repr(got_cost) == repr(expected_cost)
            assert got != start
    assert hit >= 40


def test_a_candidate_just_above_the_cutoff_goes_to_the_exact_code(monkeypatch):
    # cutoff * cost is the largest product below the smallest new cost: the
    # best candidate passes the screen, but its bound cannot prove the swap,
    # and the exact code rejects it, so the search stops where it started.
    hit = 0
    for seed in range(30):
        p = (1.0, 2.0)[seed % 2]
        powered, weights = _instance_arrays(2 * seed + 1, 90, p, 0.05 * (seed % 3))
        k = 2 + seed % 6
        start = _seed(powered, weights, k, seed)
        cost, new_costs = _exact_new_costs(powered, weights, start)
        target = float(new_costs.min())
        if not target < cost:
            continue
        cutoff = target / cost
        while cutoff * cost >= target:
            cutoff = np.nextafter(cutoff, 0.0)
        hit += 1
        expected = list(start)
        expected_cost = _reference_local_search(powered, weights, expected, cutoff)
        for source in SOURCES:
            got = list(start)
            with monkeypatch.context() as patch:
                _force_source(patch, source)
                exact = _record_exact(patch, powered)
                got_cost = _search(powered, weights, got, cutoff)
            assert got == expected == start, (seed, source)
            assert repr(got_cost) == repr(expected_cost)
            assert int(new_costs.argmin()) in exact
    assert hit >= 20


def _mixture(p: float, m: int = 760, components: int = 25, spread: float = 8.0):
    """A Gaussian mixture of the size a query solves: unit components in 5-d
    with means drawn at scale ``spread``, weights 1 to 8, offset 1/m;
    returns its powered Gram and weights."""
    rng = np.random.default_rng(int(p))
    means = rng.normal(0.0, spread, size=(components, 5))
    coords = means[rng.integers(0, components, size=m)] + rng.normal(size=(m, 5))
    weights = rng.integers(1, 9, size=m).astype(np.float64)
    points = points_from_array(coords)
    return pairwise(DistanceOracle(1.0 / m), points, points).T ** p, weights


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_screen_at_benchmark_scale_matches_full_recompute(p, monkeypatch):
    # The blocks grow to their largest size in swap-free stretches and start
    # small again after swaps. The scan after the last swap reads m - 1
    # columns: blocks of 16, 32, 64 and 128, then 256s, one of which may be
    # cut short at column m. With m - 1 >= 240 + 255 + 256, that stretch
    # holds a whole 256-block wherever the last swap falls. Both sources of
    # screen entries give the same blocks, swaps and cost.
    powered, weights = _mixture(p)
    k, cutoff = 50, 1.0 - LOCAL_SEARCH_DELTA / 50
    start = _seed(powered, weights, k, 3)
    expected = list(start)
    expected_cost = _reference_local_search(powered, weights, expected, cutoff)
    for source in SOURCES:
        with monkeypatch.context() as patch:
            _force_source(patch, source)
            lists = _record_calls(patch, "_near_list")
            blocks = _record_blocks(patch, powered)
            exact = _record_exact(patch, powered)
            got = list(start)
            got_cost = _search(powered, weights, got, cutoff)
        assert len(lists) == (source == "list")
        assert got == expected
        assert repr(got_cost) == repr(expected_cost)
        assert got != start
        assert exact == []  # the screen's bound proves every swap and its retired center
        sizes = [end - first for first, end in blocks]
        assert max(sizes) == solver._BLOCK_MAX
        assert sizes.count(solver._BLOCK_MIN) > 1  # the first block and restarts after swaps


def test_a_tie_between_two_centers_goes_to_the_exact_code(monkeypatch):
    # Mirror-symmetric about x = 0, the first column: bringing 0 in saves
    # the same whichever of the centers at -10 and 10 leaves, so the
    # screen's per-center values cannot tell which center to retire. The
    # exact code decides, and its first minimum retires -10 (position 0).
    x = np.array([0.0, -1.0, 1.0, -9.0, 9.0, -10.0, 10.0])
    weights = np.array([10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0])
    powered = np.abs(x[:, None] - x[None, :])
    expected = [5, 6]
    expected_cost = _reference_local_search(powered, weights, expected, 0.99)
    for source in SOURCES:
        got = [5, 6]
        with monkeypatch.context() as patch:
            _force_source(patch, source)
            blocks = _record_blocks(patch, powered)
            exact = _record_exact(patch, powered)
            assert repr(_search(powered, weights, got, 0.99)) == repr(expected_cost)
        assert got == expected == [0, 6]
        assert blocks[0] == (0, 7) and exact[0] == 0


def test_screen_is_off_for_a_single_center(monkeypatch):
    powered, weights = _instance_arrays(7, 60, 1.0)
    expected = [3]
    expected_cost = _reference_local_search(powered, weights, expected, 0.99)
    for source in SOURCES:
        got = [3]
        with monkeypatch.context() as patch:
            _force_source(patch, source)
            blocks = _record_blocks(patch, powered)
            assert repr(_search(powered, weights, got, 0.99)) == repr(expected_cost)
        assert got == expected != [3]
        assert blocks == []  # d2 is inf for every row, so the bound is not finite


def test_screen_is_off_while_its_bound_overflows(monkeypatch):
    # Scaled so that the cost stays finite but cost + sum(w*d2) does not:
    # every candidate goes to the exact code, which still finds the swaps.
    powered, weights = _instance_arrays(9, 60, 2.0)
    start = _seed(powered, weights, 4, 9)
    _, d1, _ = _nearest_two(powered[:, start])
    powered *= 0.6 * np.finfo(np.float64).max / float(np.sum(weights * d1))
    _, d1, d2 = _nearest_two(powered[:, start])
    assert np.isfinite(np.sum(weights * d1))
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(weights * d1) + np.sum(weights * d2))
    expected = list(start)
    with np.errstate(over="ignore"):
        expected_cost = _reference_local_search(powered, weights, expected, 0.99)
    for source in SOURCES:
        got = list(start)
        with monkeypatch.context() as patch, np.errstate(over="ignore"):
            _force_source(patch, source)
            blocks = _record_blocks(patch, powered)
            got_cost = _search(powered, weights, got, 0.99)
        assert got == expected != start
        assert repr(got_cost) == repr(expected_cost)
        assert blocks == []


@pytest.mark.parametrize("p, offset", [(1.0, 0.0), (2.0, 0.05)])
def test_a_search_with_its_screen_off_samples_and_lists_nothing(p, offset, monkeypatch):
    # At k = 1 every d2 is inf, so the screen is off for the whole search:
    # the source rule never runs, so T(theta) is never computed and nothing
    # is listed; the product is finished whole and every candidate is
    # evaluated exactly, making the reference's swaps.
    rng = np.random.default_rng(11)
    coords = rng.normal(0.0, 4.0, size=(12, 5))[rng.integers(0, 12, size=600)] + rng.normal(size=(600, 5))
    weights = rng.integers(1, 9, size=600).astype(np.float64)
    points = points_from_array(coords)
    inst, oracle = instance_of((q, int(w)) for q, w in zip(points, weights)), DistanceOracle(offset)
    powered = pairwise(oracle, points, points).T ** p
    expected = _seed(powered, weights, 1, 5)
    start = list(expected)
    expected_cost = _reference_local_search(powered, weights, expected, 0.99)
    assert expected != start
    bounds = []
    bound = solver._Finish.bound
    monkeypatch.setattr(solver._Finish, "bound", lambda self, theta: bounds.append(theta) or bound(self, theta))
    lists = _record_calls(monkeypatch, "_near_list")
    solution = weighted_solve(inst, 1, p, 5, oracle)
    assert solution.centers == frozenset(points[i].id for i in expected)
    assert repr(solution.cost) == repr(expected_cost)
    assert bounds == [] and lists == []


# -- the list of near Gram entries ----------------------------------------------


def _sampled_density(powered, start):
    """The share of the entries of every ``_SAMPLE_STEP``-th column below the
    largest second-nearest distance of the centers ``start``."""
    _, _, d2 = _nearest_two(powered[:, start])
    sample = powered.T[::solver._SAMPLE_STEP]
    return np.count_nonzero(sample < d2.max()) / sample.size


def test_near_list_holds_the_entries_below_theta_in_column_order():
    powered, _ = _instance_arrays(5, 90, 1.0)
    theta = float(np.median(powered))
    offsets, columns, rows, values = solver._near_list(powered.T, theta, solver._FINISHED)
    expected_columns, expected_rows = np.nonzero(powered.T < theta)
    assert offsets == np.searchsorted(expected_columns, np.arange(91)).tolist()
    assert columns.dtype == np.int32 and columns.tolist() == expected_columns.tolist()
    assert rows.tolist() == expected_rows.tolist()
    assert values.tolist() == powered.T[expected_columns, expected_rows].tolist()


def test_screen_source_follows_the_sampled_density(monkeypatch):
    # Five centers in each of ten well-separated components leave about a
    # tenth of the Gram below the largest d2, so the search lists those
    # entries; with 5 centers over 25 components most entries lie below
    # it, and the search reads each block densely.
    lists = _record_calls(monkeypatch, "_near_list")
    for components, spread, k, listed in ((10, 20.0, 50, True), (25, 8.0, 5, False)):
        powered, weights = _mixture(1.0, components=components, spread=spread)
        start = _seed(powered, weights, k, 3)
        assert (_sampled_density(powered, start) <= solver._LIST_DENSITY) == listed
        lists.clear()
        expected, got = list(start), list(start)
        expected_cost = _reference_local_search(powered, weights, expected, 0.99)
        assert repr(_search(powered, weights, got, 0.99)) == repr(expected_cost)
        assert got == expected != start
        assert len(lists) == listed


def test_a_search_that_starts_dense_lists_once_its_largest_d2_has_halved(monkeypatch):
    # Fifty centers in one of twelve components: most of the Gram lies below
    # the largest d2, so the search starts dense. As swaps spread the
    # centers over the components the largest d2 falls; the sample is tested
    # again each time it has halved, and once it passes the search lists the
    # entries below that d2, the new theta, and makes the reference's swaps
    # from there. Each block's estimates are checked against the dense
    # screen's of the same state, as in the test below: some rows' d2 rise
    # above the new theta after the switch.
    powered, weights = _mixture(2.0, components=12, spread=15.0)
    k, cutoff = 50, 1.0 - LOCAL_SEARCH_DELTA / 50
    start = np.argsort(powered[:, 0], kind="stable")[:k].tolist()
    assert _sampled_density(powered, start) > solver._LIST_DENSITY
    theta = _nearest_two(powered[:, start])[2].max()
    expected = list(start)
    expected_cost = _reference_local_search(powered, weights, expected, cutoff)
    dense_entries, estimate = solver._screen_entries, solver._screen_estimate
    lists = _record_calls(monkeypatch, "_near_list")
    blocks = {"dense": 0, "exact": 0, "within the bound": 0}

    def checking(slab, entries, weights, c1, d1, d2, base):
        got = estimate(slab, entries, weights, c1, d1, d2, base)
        below = np.empty(slab.size, dtype=bool)
        want = estimate(slab, dense_entries(slab, below, d2), weights, c1, d1, d2, base)
        cost = float(np.add.reduce(weights * d1))
        if lists and np.any(d2 > lists[0][1]):
            err = 64.0 * (slab.shape[1] + 8) * np.finfo(np.float64).eps * (cost + np.sum(weights * d2))
            assert all(np.allclose(g, w, rtol=0.0, atol=err) for g, w in zip(got, want))
            blocks["within the bound"] += 1
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            blocks["exact" if lists else "dense"] += 1
        return got

    monkeypatch.setattr(solver, "_screen_estimate", checking)
    got = list(start)
    got_cost = _search(powered, weights, got, cutoff)
    assert got == expected != start
    assert repr(got_cost) == repr(expected_cost)
    (gram_t, top, _), = lists
    assert gram_t.base is powered and 0.0 < top <= theta / 2
    assert all(blocks.values())
    with monkeypatch.context() as patch:               # forced dense, it never lists
        _force_source(patch, "dense")
        got = list(start)
        assert repr(_search(powered, weights, got, cutoff)) == repr(expected_cost)
    assert got == expected and len(lists) == 1


def test_listed_screen_reads_rows_whose_d2_rose_above_theta_densely(monkeypatch):
    # A swap that retires a row's nearest or second-nearest center can lift
    # its d2 above theta, the bound of the list, which then lacks that row's
    # entries in [theta, d2): blocks read those rows densely. Each block's
    # estimates are checked against the dense screen's of the same state:
    # bit for bit while no row is above theta, and otherwise within the
    # rounding bound of the search, since only the order of the sums differs.
    powered, weights = _mixture(1.0)
    k, cutoff = 50, 1.0 - LOCAL_SEARCH_DELTA / 50
    start = _seed(powered, weights, k, 3)
    theta = _nearest_two(powered[:, start])[2].max()
    expected = list(start)
    expected_cost = _reference_local_search(powered, weights, expected, cutoff)
    dense_entries, estimate = solver._screen_entries, solver._screen_estimate
    blocks = {"exact": 0, "within the bound": 0}

    def checking(slab, entries, weights, c1, d1, d2, base):
        got = estimate(slab, entries, weights, c1, d1, d2, base)
        below = np.empty(slab.size, dtype=bool)
        want = estimate(slab, dense_entries(slab, below, d2), weights, c1, d1, d2, base)
        cost = float(np.add.reduce(weights * d1))
        if np.any(d2 > theta):
            err = 64.0 * (slab.shape[1] + 8) * np.finfo(np.float64).eps * (cost + np.sum(weights * d2))
            assert all(np.allclose(g, w, rtol=0.0, atol=err) for g, w in zip(got, want))
            blocks["within the bound"] += 1
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            blocks["exact"] += 1
        return got

    _force_source(monkeypatch, "list")
    reads = _record_calls(monkeypatch, "_screen_entries")
    monkeypatch.setattr(solver, "_screen_estimate", checking)
    got = list(start)
    got_cost = _search(powered, weights, got, cutoff)
    assert got == expected
    assert repr(got_cost) == repr(expected_cost)
    assert reads  # the branch ran, on the rows above theta alone
    assert all(slab.shape[1] < powered.shape[0] and np.all(d2 > theta) for slab, _, d2 in reads)
    assert all(blocks.values())


def test_listed_screen_stops_at_cost_zero(monkeypatch):
    # Three points at 0 and three at 5: from two centers at 0 the first swap
    # brings a point at 5 in and the cost falls to 0, where the search stops.
    # From a start at cost 0 the search builds no list.
    _force_source(monkeypatch, "list")
    lists = _record_calls(monkeypatch, "_near_list")
    x = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    powered = np.abs(x[:, None] - x[None, :])
    weights = np.ones(6)
    expected, got = [0, 1], [0, 1]
    expected_cost = _reference_local_search(powered, weights, expected, 0.99)
    assert repr(_search(powered, weights, got, 0.99)) == repr(expected_cost) == "0.0"
    assert got == expected == [3, 1] and len(lists) == 1
    got = [0, 4]
    assert _search(powered, weights, got, 0.99) == 0.0
    assert got == [0, 4] and len(lists) == 1


# -- entries finished from the kernel's product ----------------------------------


def _product_and_gram(p: float, offset: float, metric: str, n: int = 70, seed: int = 11):
    """Coordinates with exact duplicates, the finish of ``p`` and an oracle
    (Euclidean or per-pair L1) at ``offset``, the kernel's product with its
    diagonal marked ``-inf``, and the Gram finished whole as the reference."""
    rng = np.random.default_rng(seed)
    coords = rng.normal(0.0, 3.0, size=(n, 3))
    coords[rng.choice(n, n // 5, replace=False)] = coords[rng.integers(0, n, n // 5)]
    oracle = DistanceOracle(offset) if metric == "l2" else _l1_oracle(offset)
    product = oracle.matrix_between(coords, oracle.prepare(coords))
    np.fill_diagonal(product, -np.inf)
    return solver._Finish(oracle, p), product, instance_gram(coords, p, oracle)


FINISHES = [(p, offset, metric) for p in (1.0, 2.0, 1.5) for offset in (0.0, 0.05)
            for metric in ("l2", "l1")]


@pytest.mark.parametrize("p, offset, metric", FINISHES)
def test_finished_pieces_equal_the_whole_gram_bit_for_bit(p, offset, metric):
    finish, product, gram = _product_and_gram(p, offset, metric)
    n = gram.shape[0]
    # seeding picks and the columns swapped in or evaluated exactly
    for j in range(n):
        assert finish(product.T[:, j], j).tobytes() == gram[:, j].tobytes()
    chosen = [3, 17, 40, 41]
    assert finish(product.T[:, chosen], (chosen, np.arange(4))).tobytes() == gram[:, chosen].tobytes()
    # rows above theta in a list-screened block: candidates 16..47 as rows, in place
    high = np.array([0, 5, 16, 30, 47, 69])
    part = product[16:48].take(high, axis=1)
    assert finish(part, part == -np.inf, part) is part
    assert part.tobytes() == gram.T[16:48].take(high, axis=1).tobytes()
    # the overflow probe's 1x1 block, with no diagonal entry
    top = np.maximum.reduce(product, axis=None, keepdims=True)
    assert finish(top, []).tobytes() == np.maximum.reduce(gram, axis=None, keepdims=True).tobytes()
    # the list's values
    theta = float(np.median(gram))
    _, columns, rows, values = solver._near_list(product, finish.bound(theta), finish)
    assert values.tobytes() == gram.T[columns, rows].tobytes()
    # the dense screen's finish, whole and in place
    assert finish(product, np.diag_indices(n), product) is product
    assert product.T.tobytes() == gram.tobytes()


def _block_entries(listed, cut, n, step=16):
    return [tuple(a.tolist() for a in solver._listed_entries(listed, lo, min(lo + step, n), cut))
            for lo in range(0, n, step)]


@pytest.mark.parametrize("p, offset, metric", FINISHES)
def test_list_from_the_product_gives_each_block_the_entries_of_the_gram(p, offset, metric):
    # The list built from the product against T(theta) holds every entry of
    # the list built from the finished Gram against theta, plus extras that
    # finish at or above theta; the block filter, against cuts of at most
    # theta, drops exactly those, so every block sees the same entries.
    finish, product, gram = _product_and_gram(p, offset, metric)
    n = gram.shape[0]
    values = np.unique(gram[gram > 0.0])
    rng = np.random.default_rng(int(p * 10 + offset * 100))
    thetas = [float(values[len(values) // 10]), float(values[len(values) // 3]),
              float(np.nextafter(values[len(values) // 5], 0.0)),
              float(np.nextafter(values[len(values) // 5], np.inf)),
              offset ** p, 0.5 * offset ** p, float(values[0])]
    for theta in thetas:
        from_gram = solver._near_list(gram.T, theta, solver._FINISHED)
        from_product = solver._near_list(product, finish.bound(theta), finish)
        assert set(zip(from_gram[1].tolist(), from_gram[2].tolist())) <= set(
            zip(from_product[1].tolist(), from_product[2].tolist()))
        extras = from_product[3][~np.isin(from_product[1] * n + from_product[2],
                                          from_gram[1] * n + from_gram[2])]
        assert np.all(extras >= theta)
        cuts = [np.full(n, theta), np.minimum(rng.choice(gram.reshape(-1), n), theta)]
        cuts[1][rng.choice(n, n // 4, replace=False)] = -np.inf
        for cut in cuts:
            assert _block_entries(from_product, cut, n) == _block_entries(from_gram, cut, n)


def test_an_overflow_of_d_to_the_p_still_raises_on_the_list_path(monkeypatch):
    # d^400 of the two far points, 8 apart, overflows; no entry of the
    # centers' columns does, so the list path's check of the largest entry
    # is what raises, before the search starts
    _force_source(monkeypatch, "list")
    x = np.concatenate([np.linspace(-0.5, 0.5, 30), [-4.0, 4.0]])[:, None]
    oracle = DistanceOracle()
    product = oracle.matrix_between(x, oracle.prepare(x))
    np.fill_diagonal(product, -np.inf)
    finish = solver._Finish(oracle, 400.0)
    assert np.isfinite(finish(product.T[:, [0, 29]], ([0, 29], [0, 1]))).all()
    lists = _record_calls(monkeypatch, "_near_list")
    with pytest.raises(ValueError, match="^distances to the power 400.0 overflow float64$"):
        _search(product.T, np.ones(32), [0, 29], 0.99, finish)
    assert lists == []
    with pytest.raises(ValueError, match="overflow"):
        weighted_solve(instance_of([(q, 1) for q in points_from_array(x)]), 2, 400.0, 0, oracle)


def test_a_search_whose_seeding_costs_0_leaves_the_product_as_it_was():
    # Each point is a center or shares a center's coordinates, so the seeded
    # cost is 0: the search scans nothing, so it finishes nothing either.
    x = np.array([0.0, 0.0, 5.0, 5.0])[:, None]
    product = DistanceOracle().matrix_between(x, DistanceOracle().prepare(x))
    np.fill_diagonal(product, -np.inf)
    before = product.tobytes()
    chosen = [0, 2]
    finish = solver._Finish(DistanceOracle(), 1.0)
    assert repr(_search(product.T, np.ones(4), chosen, 0.99, finish)) == "0.0"
    assert chosen == [0, 2] and product.tobytes() == before
    assert np.all(np.diagonal(product) == -np.inf)


@pytest.mark.parametrize("source", SOURCES)
def test_a_swap_that_does_not_lower_the_cost_raises(source, monkeypatch):
    # A screen that "proves" every candidate's swap for center position 0:
    # the centers 0 and 10 are already a best pair, so the first swap it
    # accepts, column 1 for column 0, raises the cost from 2 to 4; the
    # search raises instead of making it and scanning on.
    _force_source(monkeypatch, source)

    def proving(slab, *args):
        b = slab.shape[0]
        return np.full(b, -np.inf), np.tile([0.0, np.inf], (b, 1))

    monkeypatch.setattr(solver, "_screen_estimate", proving)
    x = np.array([0.0, 1.0, 10.0, 11.0])
    powered = np.abs(x[:, None] - x[None, :])
    with pytest.raises(RuntimeError, match=r"^swapping in column 1 did not lower the cost: 2.0 -> 4.0$"):
        _search(powered, np.array([3.0, 1.0, 1.0, 1.0]), [0, 2], 0.99)

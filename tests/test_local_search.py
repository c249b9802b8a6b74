"""The incremental local search against the full-recompute version it replaced.

``_reference_solution_stats`` and ``_reference_local_search`` are the
solver's earlier code, kept verbatim: after every accepted swap they rebuild
each row's nearest center, nearest distance and second-nearest distance from
scratch. The solver keeps those three per row and recomputes only the rows a
swap can change; every swap it makes, and the cost it returns, must be
bit-identical to the reference.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from dynkmed import DistanceOracle, WeightedInstance, points_from_array, weighted_solve
from dynkmed.solver import (
    LOCAL_SEARCH_DELTA,
    _local_search,
    _nearest_two,
    _seed_indices,
)


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
    return WeightedInstance([(q, int(w)) for q, w in zip(pts, weights)]), DistanceOracle(offset)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 5, 20])
@pytest.mark.parametrize("offset", [0.0, 0.05])
def test_local_search_matches_full_recompute(p, k, offset):
    ties = 0
    for seed in range(8):
        inst, oracle = _instance(100 * k + seed, 60, offset)
        entries = inst.sorted_entries()
        points = [q for q, _ in entries]
        weights = np.array([w for _, w in entries], dtype=np.float64)
        powered = oracle.pairwise(points, points).T ** p
        cutoff = 1.0 - LOCAL_SEARCH_DELTA / k
        start = _seed_indices(powered, weights, k, np.random.default_rng(seed))
        if k > 1:
            _, d1, d2 = _nearest_two(powered[:, start])
            ties += int(np.sum(d1 == d2))

        expected, got = list(start), list(start)
        expected_cost = _reference_local_search(powered, weights, expected, cutoff)
        got_cost = _local_search(powered, weights, got, cutoff)
        assert got == expected
        assert repr(got_cost) == repr(expected_cost)

        solution = weighted_solve(inst, k, p, seed, oracle)
        assert solution.centers == frozenset(points[i].id for i in expected)
        assert repr(solution.cost) == repr(expected_cost)
    if k > 1:
        assert ties > 0  # the instances exercise the d1 == d2 case


def test_center_retired_ahead_of_the_scan_is_rescanned_in_the_same_pass():
    # Centers at 15 and 18 (indices 4, 5). Pass one: candidate 0 retires
    # index 5 (cost 66 -> 57), candidate 1 retires index 0 (-> 55), and
    # index 5, retired earlier in this pass, comes back for index 4 (-> 52).
    # Skipping index 5 until the next pass ends at [3, 7], cost 51 instead.
    x = np.array([3.0, 9.0, 10.0, 14.0, 15.0, 18.0, 23.0, 28.0])
    weights = np.array([2.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 2.0])
    powered = np.abs(x[:, None] - x[None, :])
    expected, got = [4, 5], [4, 5]
    expected_cost = _reference_local_search(powered, weights, expected, 0.99)
    assert _local_search(powered, weights, got, 0.99) == expected_cost == 52.0
    assert got == expected == [5, 1]


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

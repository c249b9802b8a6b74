"""Successive-sampling cover rounds.

One round samples ``phi`` points uniformly with replacement, finds the
smallest radius whose balls around the sample capture a ``beta`` fraction of
the set, and assigns every captured point to its nearest sampled center; a
center whose own row goes to another center keeps no cluster.
:func:`_cover_arrays` runs one round over coordinate rows in id order;
the layered state in :mod:`dynkmed.dynamic` peels rounds with it until at
most ``phi`` points remain, and its
:class:`~dynkmed.dynamic.DynamicParams` carries the round's knobs.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .metric import DistanceOracle

if TYPE_CHECKING:
    from .dynamic import DynamicParams

# Absolute slop for comparing integer counts against fractional thresholds.
_EPS = 1e-9


def _quantile_index(fraction: float, n: int) -> int:
    # ceil(fraction * n) with a guard against one-ulp overshoot at integers
    return max(1, math.ceil(fraction * n - _EPS))


def _cover_arrays(
    coords: np.ndarray,
    params: DynamicParams,
    rng: np.random.Generator,
    oracle: DistanceOracle,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Cover round over the coordinate rows of distinct points in ascending
    id order.

    Returns the ascending positions of the centers that keep a cluster, each
    point's nearest center as an index into them (ties toward the smallest
    id), the boolean covered mask aligned with the rows, and the radius.
    Each returned center is its own nearest; a sampled center whose own row
    went to another center is dropped before the assignment.
    """
    n = coords.shape[0]
    mark = np.zeros(n, dtype=bool)
    mark[rng.integers(0, n, params.phi)] = True
    pos = mark.nonzero()[0]

    # points are distinct, so center j's only pair with itself is (pos[j], j);
    # the round, not the kernel, marks it -inf, which nearest reads as 0
    dist = oracle.matrix_between(coords, coords.take(pos, 0), squared=True)
    columns = np.arange(pos.shape[0])
    dist[pos, columns] = -np.inf
    nearest, dmin = oracle.nearest(dist)  # first minimum: smallest center id wins
    # own pairs are at 0 and other pairs at least the offset: only offset 0 drops centers
    if not oracle.offset:
        kept = nearest[pos] == columns
        if np.count_nonzero(kept) < kept.shape[0]:
            pos = pos[kept]
            nearest, dmin = oracle.nearest(dist[:, kept])
    m = _quantile_index(params.beta, n)
    radius = float(np.partition(dmin, m - 1)[m - 1])
    return pos, nearest, dmin <= radius, radius

"""Successive-sampling cover rounds.

One round samples ``phi`` points uniformly with replacement, finds the
smallest radius whose balls around the sample capture a ``beta`` fraction of
the set, and assigns every captured point to its nearest sampled center.
:func:`_cover_arrays` runs one round over sorted id and coordinate arrays;
the layered state in :mod:`dynkmed.dynamic` peels rounds with it until the
remainder fits under the last-layer threshold, and its
:class:`~dynkmed.dynamic.DynamicParams` carries the round's knobs.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .metric import DistanceOracle, PointId

if TYPE_CHECKING:
    from .dynamic import DynamicParams

Sampler = Callable[[Sequence[PointId], int, np.random.Generator], Sequence[PointId]]


def _quantile_index(fraction: float, n: int) -> int:
    # ceil(fraction * n) with a guard against one-ulp overshoot at integers
    return max(1, math.ceil(fraction * n - 1e-9))


def _cover_arrays(
    ids: np.ndarray,
    coords: np.ndarray,
    params: DynamicParams,
    rng: np.random.Generator,
    oracle: DistanceOracle,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Cover round over (sorted ids, matching coords).

    Returns the sorted distinct sampled center ids, each point's nearest
    center as an index into them (ties toward the smallest id), the boolean
    covered mask aligned with ``ids``, and the radius. Every center that is
    some point's nearest is its own nearest.
    """
    n = ids.shape[0]
    if params.sampler is not None:
        sample = list(params.sampler(list(int(i) for i in ids), params.phi, rng))
        known = set(int(i) for i in ids)
        for s in sample:
            if s not in known:
                raise ValueError(f"sampler returned id {s} outside the working set")
    else:
        sample = ids[rng.integers(0, n, size=params.phi)]
    center_ids = np.unique(np.asarray(sample, dtype=np.int64))
    pos = np.searchsorted(ids, center_ids)

    # ids are distinct, so the only same-id pair of center j is (pos[j], j);
    # it is marked -inf, as matrix_between marks same-id pairs when squared
    dist = oracle.matrix_between(coords, None, coords[pos], None, squared=True)
    columns = np.arange(pos.shape[0])
    dist[pos, columns] = -np.inf
    nearest, dmin = oracle.nearest(dist)  # first minimum: smallest center id wins
    # a center whose own row went to another center (a computed 0 between
    # points far closer than their spread) must keep no members; an exact
    # twin's column equals the kept twin's, so no row picked it
    absorbed = nearest[pos] != columns
    if absorbed.any():
        dist[:, absorbed] = np.inf
        nearest, dmin = oracle.nearest(dist)
    m = _quantile_index(params.beta, n)
    radius = float(np.partition(dmin, m - 1)[m - 1])
    return center_ids, nearest, dmin <= radius, radius

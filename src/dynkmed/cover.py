"""Successive-sampling cover rounds.

One round samples ``phi`` points uniformly with replacement, finds the
smallest radius whose balls around the sample capture a ``beta`` fraction of
the set, and assigns every captured point to its nearest sampled center.
:func:`_cover_arrays` runs one round over sorted id and coordinate arrays;
the layered state peels rounds with it until the remainder fits under the
last-layer threshold. :func:`almost_cover` is the one-round public form over
points, returning sets and an assignment map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .metric import DistanceOracle, Point, PointId

Sampler = Callable[[Sequence[PointId], int, np.random.Generator], Sequence[PointId]]


@dataclass
class CoverParams:
    """Knobs for the sampling cover.

    ``phi`` is the per-round sample size; ``last_layer_threshold`` (default
    ``phi``) is the residual size at which peeling stops. ``sampler`` lets
    tests inject a deterministic sample in place of uniform-with-replacement
    draws.
    """

    k: int
    phi: int
    beta: float = 0.5
    last_layer_threshold: Optional[int] = None
    seed: int | np.random.SeedSequence = 0
    sampler: Optional[Sampler] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.phi < 1:
            raise ValueError("phi must be at least 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        if self.last_layer_threshold is not None and self.last_layer_threshold < self.phi:
            raise ValueError("last_layer_threshold must be at least phi")

    @property
    def threshold(self) -> int:
        return self.phi if self.last_layer_threshold is None else self.last_layer_threshold


@dataclass
class CoverResult:
    """Output of one cover round over a working set U'.

    ``centers`` is the deduplicated sample, ``covered`` the points within
    ``radius`` of it, and ``assignment`` maps each covered point to its
    nearest center (ties toward the smallest id).
    """

    centers: set[PointId]
    covered: set[PointId]
    assignment: dict[PointId, PointId]
    radius: float


def _quantile_index(fraction: float, n: int) -> int:
    # ceil(fraction * n) with a guard against one-ulp overshoot at integers
    return max(1, math.ceil(fraction * n - 1e-9))


def coverage_radius(
    centers: Sequence[Point],
    universe: Sequence[Point],
    fraction: float,
    oracle: DistanceOracle,
) -> float:
    """Smallest r such that balls of radius r around ``centers`` capture at
    least ``fraction`` of ``universe``; computed by exact selection of the
    ceil(fraction*|U|)-th smallest distance-to-set."""
    if not centers or not universe:
        raise ValueError("centers and universe must be nonempty")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    dmin = oracle.pairwise(list(universe), sorted(centers, key=lambda p: p.id)).min(axis=1)
    m = _quantile_index(fraction, len(dmin))
    return float(np.partition(dmin, m - 1)[m - 1])


def _cover_arrays(
    ids: np.ndarray,
    coords: np.ndarray,
    params: CoverParams,
    rng: np.random.Generator,
    oracle: DistanceOracle,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Cover round over (sorted ids, matching coords).

    Returns the sorted distinct sampled center ids, each point's nearest
    center as an index into them (ties toward the smallest id), the boolean
    covered mask aligned with ``ids``, and the radius.
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

    # ids are distinct, so the only same-id pair of center j is (pos[j], j)
    dist = oracle.matrix_between(coords, None, coords[pos], None)
    dist[pos, np.arange(pos.shape[0])] = 0.0
    nearest = np.argmin(dist, axis=1)  # first minimum: smallest center id wins
    dmin = dist[np.arange(n), nearest]
    m = _quantile_index(params.beta, n)
    radius = float(np.partition(dmin, m - 1)[m - 1])
    return center_ids, nearest, dmin <= radius, radius


def almost_cover(
    universe: Sequence[Point],
    params: CoverParams,
    oracle: Optional[DistanceOracle] = None,
    rng: Optional[np.random.Generator] = None,
) -> CoverResult:
    """One sampling-cover round over ``universe``."""
    if not universe:
        raise ValueError("universe must be nonempty")
    oracle = oracle or DistanceOracle()
    rng = rng if rng is not None else np.random.default_rng(params.seed)
    pts = sorted(universe, key=lambda p: p.id)
    ids = np.array([p.id for p in pts], dtype=np.int64)
    coords = np.stack([p.coords for p in pts])
    center_ids, nearest, mask, radius = _cover_arrays(ids, coords, params, rng, oracle)
    assignment = {
        int(u): int(center_ids[j]) for u, j in zip(ids[mask], nearest[mask])
    }
    return CoverResult(
        centers=set(center_ids.tolist()),
        covered=set(assignment),
        assignment=assignment,
        radius=radius,
    )

"""Twin states fed one stream through an exact relation.

Two states take the same slide: a 120-point window preprocessed, then 200
steps that each insert the next of 400 points and delete the oldest, with
phi 20, k 5 and queries after steps 50, 100, 150 and 200. The twin's input
is the first's under one of two relations, each of which changes no
decision the engine takes:

- **Scale.** Every coordinate, and the offset with it, times 2^j. After
  every update the evaluation count, each layer's ``start``, ``base_size``
  and ``updates``, the center rows and the sizes are identical, and every
  radius is exactly 2^j times the first state's. At every query the
  centers and the evaluations are identical and the cost is exactly
  2^(j*p) times the first's. Any absolute epsilon that enters a distance
  decision breaks this. The exponents stay out of the subnormal and
  overflow ranges, where the relation does not hold exactly.
- **Ids.** Ids mapped by ``2 * id + c``, a strictly increasing affine map.
  Counters, radii and costs are identical, and the centers are mapped the
  same way. Any use of ids beyond their order breaks this.

Both run on a 3-d Gaussian mixture and on a 2-d grid of exact duplicates,
at p = 1 and p = 2; ``stats()`` must be equal at the end.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from dynkmed import DistanceOracle, DynamicParams, Point, SyntheticSpec, preprocess, query, synthetic_points

WINDOW, STEPS, PHI, K, QUERIES = 120, 200, 20, 5, (50, 100, 150, 200)


def _coords(data: str) -> np.ndarray:
    if data == "gaussian":
        return np.stack([q.coords for q in synthetic_points(SyntheticSpec(4, 3, 400), 11)])
    i = np.arange(400)
    return np.stack([i % 7, (i * 3) % 5], axis=1).astype(np.float64)  # 35 sites, 11 or 12 points each


CASES = [
    *[pytest.param(data, p, "scale", j, 0.0, id=f"{data}-p{p:g}-scale-2^{j}")
      for data in ("gaussian", "grid") for p in (1.0, 2.0) for j in (-300, -60, 60, 300, 480)],
    *[pytest.param("gaussian", p, "scale", j, 0.01, id=f"gaussian-p{p:g}-scale-2^{j}-offset")
      for p in (1.0, 2.0) for j in (-200, 200)],
    *[pytest.param(data, p, "ids", c, offset, id=f"{data}-p{p:g}-ids-2id{c:+d}-offset{offset:g}")
      for data in ("gaussian", "grid") for p in (1.0, 2.0) for c in (-10**15, 7) for offset in (0.0, 0.01)],
]


@pytest.mark.parametrize("data, p, relation, value, offset", CASES)
def test_twin_states_keep_the_scale_and_id_relations(data, p, relation, value, offset):
    x, ids = _coords(data), np.arange(400)
    j, twin_ids = (value, ids) if relation == "scale" else (0, 2 * ids + value)
    mapped = dict(zip(ids.tolist(), twin_ids.tolist()))
    sides = [(ids, x, offset), (twin_ids, np.ldexp(x, j), math.ldexp(offset, j))]
    points = [[Point(i, row) for i, row in zip(side_ids.tolist(), coords)] for side_ids, coords, _ in sides]
    first, twin = (preprocess(pts[:WINDOW], DynamicParams(K, PHI, seed=5), DistanceOracle(off))
                   for pts, (_, _, off) in zip(points, sides))

    def assert_related() -> None:
        assert first.oracle.evals == twin.oracle.evals
        assert ([(layer.start, layer.base_size, layer.updates) for layer in first.layers]
                == [(layer.start, layer.base_size, layer.updates) for layer in twin.layers])
        assert [math.ldexp(layer.radius, j) for layer in first.layers] == [layer.radius for layer in twin.layers]
        assert first.center == twin.center and first.size == twin.size

    assert_related()
    for step in range(1, STEPS + 1):
        for state, pts in zip((first, twin), points):
            state.insert(pts[WINDOW + step - 1])
        assert_related()
        for state, pts in zip((first, twin), points):
            state.delete(pts[step - 1].id)
        assert_related()
        if step in QUERIES:
            got, want = query(twin, K, p, seed=step), query(first, K, p, seed=step)
            assert got.centers == {mapped[c] for c in want.centers}
            assert first.oracle.evals == twin.oracle.evals
            assert got.cost == math.ldexp(want.cost, int(j * p)) > 0.0
    assert first.stats() == twin.stats()
    assert sum(depth["rebuilds"] for depth in first.stats().values()) > 1  # the slide rebuilt

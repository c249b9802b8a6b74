"""Stateful property test of the dynamic state.

Hypothesis drives one state through inserts, deletes, deletes of all but
at most three live points in one step, queries and rebuilds from a drawn
layer. Coordinates lie on a small grid, so exact duplicates are common, and
are shifted up to 1e6 from the origin; the offset is 0 or 1/n and the power
p is 1 or 2. A cover round takes the same path at either offset, so at 0
twin centers in one sample each keep a cluster, and a sample that fills
the beta-quantile leaves its centers' twins to the next round. After every
step the state must pass its own integrity check and its weighted instance
must pass ``checked_instance`` (the centers' store rows in id order,
weighing the live count); every query must return live centers at the cost
that ``cost_set`` gives on a separate oracle. The run is derandomized, so it
is the same on every run.

A second machine runs the same rules and checks on an oracle with a custom
per-pair metric (L1), plus a rebuild that the metric makes fail: it raises
on a poisoned coordinate row, and the failed rebuild must leave the layers,
the cluster table, the slots and the sample stream as they were. Only a
layer whose U_i has more than phi / beta points is poisoned: a cover round
whose sample fills the beta-quantile evaluates nothing, at offset 0 as at
1/n, so it would never call the metric.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from dynkmed import DistanceOracle, DynamicParams, Point, cost_set, preprocess, query
from oracles import ForcedDraws, checked_instance, live_ids, members

grid_point = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


class DynamicStateMachine(RuleBasedStateMachine):
    @initialize(
        points=st.lists(grid_point, min_size=1, max_size=40),
        shift=st.floats(0.0, 1e6),
        inv_n_offset=st.booleans(),
        p=st.sampled_from([1.0, 2.0]),
        phi=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def build(self, points, shift, inv_n_offset, p, phi, seed):
        self.shift, self.p = shift, p
        self.offset = 1.0 / len(points) if inv_n_offset else 0.0
        self.next_id = 0
        initial = [self.point(xy) for xy in points]
        self.state = preprocess(initial, DynamicParams(k=1, phi=phi, seed=seed), self.oracle())

    def oracle(self) -> DistanceOracle:
        """A fresh oracle at the run's offset: the state's own, and the
        separate one each query's cost is checked on."""
        return DistanceOracle(self.offset)

    def point(self, xy) -> Point:
        self.next_id += 1
        return Point(self.next_id, np.array(xy, dtype=np.float64) + self.shift)

    @rule(xy=grid_point)
    def insert(self, xy):
        self.state.insert(self.point(xy))

    @precondition(lambda self: self.state.live_count > 0)
    @rule(index=st.integers(0, 10**6))
    def delete(self, index):
        live = live_ids(self.state.store)
        self.state.delete(live[index % len(live)])

    @precondition(lambda self: self.state.live_count > 3)
    @rule(keep=st.lists(st.integers(0, 10**6), max_size=3))
    def delete_all_but_a_few(self, keep):
        # a mass delete between two checks: at most three points stay, or none
        live = live_ids(self.state.store)
        stay = {live[index % len(live)] for index in keep}
        for pid in live:
            if pid not in stay:
                self.state.delete(pid)

    @rule(index=st.integers(0, 10**6))
    def rebuild_from_layer(self, index):
        self.state.rebuild_from_layer(1 + index % self.state.t)

    @precondition(lambda self: self.state.live_count > 0)
    @rule(k=st.integers(1, 5), seed=st.integers(0, 2**16))
    def query(self, k, seed):
        answer = query(self.state, k, self.p, seed)
        assert all(c in self.state.store for c in answer.centers)
        centers = [self.state.store.get(c) for c in sorted(answer.centers)]
        live = self.state.live_points()
        assert answer.cost == cost_set(centers, live, self.p, self.oracle())

    @invariant()
    def structure_holds(self):
        assert self.state.integrity_check() == []
        if self.state.live_count > 0:
            checked_instance(self.state)


DynamicStateMachine.TestCase.settings = settings(
    derandomize=True, max_examples=120, stateful_step_count=40, deadline=None
)
TestDynamicState = DynamicStateMachine.TestCase


class PoisonedL1:
    """The L1 distance between two coordinate rows, called once per pair;
    it raises ``RuntimeError`` on a row equal to ``poison`` unless that is
    None."""

    def __init__(self) -> None:
        self.poison = None

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        if self.poison is not None and (np.array_equal(a, self.poison) or np.array_equal(b, self.poison)):
            raise RuntimeError("poisoned coordinate")
        return float(np.abs(a - b).sum())


class CustomMetricStateMachine(DynamicStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.metric = PoisonedL1()

    def oracle(self) -> DistanceOracle:
        return DistanceOracle(self.offset, base=self.metric)

    def table(self):
        """Everything a rebuild may change: the layers, the cluster table,
        the slots and the sample stream."""
        state = self.state
        return ([dataclasses.astuple(layer) for layer in state.layers], list(state.center),
                state.store.slot.tolist(), state.rng.bit_generator.state)

    def evaluating(self, size: int) -> bool:
        """Whether the first cover round over U_i of ``size`` points must
        evaluate: above phi / beta points its at most phi centers cannot
        fill the beta-quantile, so it reads every point of U_i."""
        return size > self.state.params.phi / self.state.params.beta

    @precondition(lambda self: self.evaluating(self.state.live_count))
    @rule(index=st.integers(0, 10**6), layer=st.integers(0, 10**6))
    def failed_rebuild(self, index, layer):
        # so the poisoned point's row is read; a round whose sample fills the
        # quantile evaluates nothing and would not call the metric
        deep = [i for i in range(1, self.state.t + 1) if self.evaluating(len(members(self.state, i)))]
        i = deep[layer % len(deep)]
        covered = sorted(members(self.state, i))
        self.metric.poison = self.state.store.get(covered[index % len(covered)]).coords
        before = self.table(), self.state.stats()
        try:
            with pytest.raises(RuntimeError, match="poisoned coordinate"):
                self.state.rebuild_from_layer(i)
        finally:
            self.metric.poison = None
        assert (self.table(), self.state.stats()) == before


CustomMetricStateMachine.TestCase.settings = settings(
    derandomize=True, max_examples=100, stateful_step_count=40, deadline=None
)
TestCustomMetricState = CustomMetricStateMachine.TestCase


@pytest.mark.parametrize("offset", [0.0, 0.1])
def test_a_round_whose_sample_fills_the_quantile_never_calls_a_poisoned_metric(offset):
    # ten points, the first five sampled: the layer is the sample at radius
    # 0 and the five left are at most phi, so neither the bulk load nor a
    # rebuild calls the metric, on any row; a sample of the first four does
    # not fill the quantile, so its round reads every row
    metric = PoisonedL1()
    points = [Point(i, np.array([i, i % 3], dtype=np.float64)) for i in range(10)]
    params = DynamicParams(k=1, phi=5, seed=ForcedDraws(lambda n, size: range(size)))
    for row in (0, 9):
        metric.poison = points[row].coords
        state = preprocess(points, params, DistanceOracle(offset, metric))
        state.rebuild_from_layer(1)
        assert state.oracle.evals == 0 and state.t == 2 and state.layers[0].radius == 0.0
        with pytest.raises(RuntimeError, match="poisoned coordinate"):
            preprocess(points, dataclasses.replace(params, phi=4), DistanceOracle(offset, metric))

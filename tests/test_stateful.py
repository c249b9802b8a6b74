"""Stateful property test of the dynamic state.

Hypothesis drives one state through inserts, deletes, queries and rebuilds
from a drawn layer. Coordinates lie on a small grid, so exact duplicates are
common, and are shifted up to 1e6 from the origin; the offset is 0 or 1/n and
the power p is 1 or 2. After every step the state must pass its own
integrity check and its weighted instance must pass ``checked_instance``
(the centers' store rows in id order, weighing the live count); every
query must return live centers at the cost that ``cost_set`` gives on a
separate oracle. The run is derandomized, so it is the same on every run.
"""
from __future__ import annotations

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from dynkmed import DistanceOracle, DynamicParams, Point, cost_set, preprocess, query
from oracles import checked_instance, live_ids

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
        self.state = preprocess(initial, DynamicParams(k=1, phi=phi, seed=seed), DistanceOracle(self.offset))

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
        assert answer.cost == cost_set(centers, live, self.p, DistanceOracle(self.offset))

    @invariant()
    def structure_holds(self):
        assert self.state.integrity_check() == []
        if self.state.live_count > 0:
            checked_instance(self.state)


DynamicStateMachine.TestCase.settings = settings(
    derandomize=True, max_examples=120, stateful_step_count=40, deadline=None
)
TestDynamicState = DynamicStateMachine.TestCase

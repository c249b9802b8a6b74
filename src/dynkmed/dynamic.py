"""Fully dynamic layered clustering structure.

The state keeps a stack of layers, each one round of the static sampling
cover, over one cluster table of center rows and sizes ordered layer by
layer: layer i owns the slots from its ``start`` up to the next layer's, so a
cluster's depth is its position in the table. Each live point stores only
its slot, indexed by its store row; ids are read through ``store.row_ids``
only where the API returns them. U_i, the points covered at depth i or
deeper, is the rows with slot >= ``start_i``, so the U_i nest by construction.

Updates touch the counters, one slot and one table entry, and evaluate no
distances: an insert appends a singleton slot to the last layer, a delete
decrements a size (an emptied cluster keeps size 0 until its layer is
rebuilt), and deleting a center promotes the smallest-id surviving member,
which keeps all members within twice the layer radius of their center. Once
a layer has absorbed updates a ``tau`` fraction of its size at build time,
layers i..t are rebuilt from U_i and the table is truncated at ``start_i``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .cover import _EPS, _cover_arrays
from .metric import DistanceOracle, Point, PointId, PointStore
from .solver import WeightedInstance, _check_int

# One layer to append: working-set size, radius, its points' rows with each
# one's cluster index in the layer, and the clusters' center rows and sizes.
_Round = tuple[int, float, np.ndarray, np.ndarray, list, list]


@dataclass
class DynamicParams:
    """Knobs of the cover rounds and the rebuild slack.

    ``phi`` is the per-round sample size and ``beta`` the fraction of the
    working set each round covers; peeling stops once at most ``phi`` points
    remain. ``epsilon`` sets the rebuild slack tau = ``epsilon * beta``.
    ``seed`` is anything that ``np.random.default_rng`` accepts; a Generator
    is used as is. ``k``, the center count of later queries, is validated
    here but not read by the state.
    """

    k: int
    phi: int
    beta: float = 0.5
    seed: int | np.random.SeedSequence | np.random.Generator = 0
    epsilon: float = 0.2

    def __post_init__(self) -> None:
        _check_int("k", self.k)
        _check_int("phi", self.phi)
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if not self.shrink_factor < 1.0:
            raise ValueError(f"beta {self.beta!r} and epsilon {self.epsilon!r} round the shrink factor to 1.0")

    @property
    def slack(self) -> float:
        return self.epsilon * self.beta

    @property
    def shrink_factor(self) -> float:
        """Per-layer size decay guaranteed between consecutive layers."""
        return 1.0 - self.beta * (1.0 - self.epsilon)


@dataclass
class Layer:
    start: int                          # first slot of the layer in the table
    radius: float = 0.0
    base_size: int = 0                  # |U_i| when the layer was last built
    updates: int = 0                    # updates absorbed since that build
    due: int = 0                        # updates that exhaust the slack: ceil(slack*base_size - _EPS)


class ClusteringState:
    """Single-writer dynamic clustering instance.

    Mutating calls (:meth:`insert`, :meth:`delete`) must be serialized by the
    caller; read-only calls may interleave with each other freely.
    """

    def __init__(
        self, params: DynamicParams, oracle: Optional[DistanceOracle] = None
    ) -> None:
        self.params = params
        self.oracle = oracle or DistanceOracle()
        self.store = PointStore()
        self.rng = np.random.default_rng(params.seed)
        # the cluster table (center rows, sizes) and each row's slot (-1: no point)
        self.center: list[int] = []
        self.size: list[int] = []
        self.slot = np.empty(0, dtype=np.int64)
        self.layers: list[Layer] = [Layer(0)]  # empty: one terminal layer

    # -- basic views ---------------------------------------------------------

    @property
    def t(self) -> int:
        return len(self.layers)

    @property
    def live_count(self) -> int:
        return len(self.store)

    def live_points(self) -> list[Point]:
        """The live points in id order, built from one gathered copy of their rows."""
        rows = self.store.rows_by_id()
        block = self.store.matrix[rows]
        return [Point(pid, row) for pid, row in zip(self.store.row_ids[rows].tolist(), block)]

    # -- construction --------------------------------------------------------

    def _track_rows(self) -> None:
        """Give every row the store has grown by an empty slot."""
        grow = self.store.row_ids.shape[0] - self.slot.shape[0]
        if grow > 0:
            self.slot = np.concatenate([self.slot, np.full(grow, -1, dtype=np.int64)])

    def _cover_rounds(self, rows: np.ndarray) -> list[_Round]:
        """Peel cover rounds off the points (store rows in ascending id
        order) until at most ``phi`` remain; touches nothing but the
        sample stream.

        Returns one round per layer, the last being the remainder as
        singletons. A round's clusters are in center id order.
        """
        coords = self.store.matrix.take(rows, 0)
        rounds: list[_Round] = []
        while rows.shape[0] > self.params.phi:
            pos, nearest, mask, radius = _cover_arrays(coords, self.params, self.rng, self.oracle)
            group = nearest[mask]
            rounds.append((rows.shape[0], radius, rows[mask], group, rows[pos].tolist(),
                           np.bincount(group).tolist()))
            keep = (~mask).nonzero()[0]
            rows, coords = rows.take(keep), coords.take(keep, 0)
        rest = rows.shape[0]
        rounds.append((rest, 0.0, rows, np.arange(rest), rows.tolist(), [1] * rest))
        return rounds

    def _rebuild(self, index: int, rows: np.ndarray) -> None:
        """Replace layers index..t by the cover rounds of the given rows.

        Atomic: every round runs before any layer changes, so if one raises
        (say, a custom metric fails) the layers, the table, the slots and
        the sample stream, saved only when a round will draw from it, are
        left as they were.
        """
        ids = self.store.row_ids.take(rows)
        order = ids.argsort(kind="stable")  # ids are distinct: the one ascending order
        stream = self.rng.bit_generator.state if rows.shape[0] > self.params.phi else None
        try:
            rounds = self._cover_rounds(rows.take(order))
        except BaseException:
            if stream is not None:
                self.rng.bit_generator.state = stream
            raise
        start, slack = self.layers[index - 1].start, self.params.slack
        del self.layers[index - 1 :], self.center[start:], self.size[start:]
        for base_size, radius, layer_rows, group, centers, sizes in rounds:
            start = len(self.center)
            self.layers.append(Layer(start, radius, base_size, due=math.ceil(slack * base_size - _EPS)))
            self.slot[layer_rows] = np.add(group, start, out=group)
            self.center += centers
            self.size += sizes

    def rebuild_from_layer(self, index: int) -> None:
        """Discard layers index..t and rebuild them from the current U_index.

        ``index`` is 1-based. Rebuilding from layer 1 is exactly a fresh
        preprocess of the current point set on the same sample stream. The
        rebuild is atomic (see :meth:`_rebuild`).
        """
        if not 1 <= index <= self.t:
            raise IndexError(f"layer index {index} out of range 1..{self.t}")
        start = self.layers[index - 1].start
        self._rebuild(index, (self.slot[: self.store.used] >= start).nonzero()[0])

    # -- updates -------------------------------------------------------------

    def insert(self, point: Point) -> None:
        """Add a new point: counts as an update in every layer, becomes its
        own center in the last one, then the slack check runs."""
        row = self.store.add(point)  # raises on a duplicate id before any change
        if row >= self.slot.shape[0]:  # a fresh row past the slots; a reused one is below
            self._track_rows()
        for layer in self.layers:
            layer.updates += 1
        self.slot[row] = len(self.center)
        self.center.append(row)
        self.size.append(1)
        self.rebuild()

    def delete(self, pid: PointId) -> None:
        """Remove a live point; counts as an update in layers 1..depth.

        If it centered a cluster with surviving members, the smallest-id
        member takes over as center.
        """
        row = self.store.remove(pid)  # KeyError for an unknown id, before any change
        s = self.slot.item(row)
        for layer in self.layers:
            if layer.start > s:
                break
            layer.updates += 1
        self.slot[row] = -1
        self.size[s] -= 1
        if self.center[s] == row and self.size[s]:
            rows = (self.slot[: self.store.used] == s).nonzero()[0]
            self.center[s] = rows.item(self.store.row_ids.take(rows).argmin())
        self.rebuild()

    def rebuild(self) -> None:
        """Rebuild from the shallowest layer whose slack budget is exhausted.

        No-op when every layer is within budget. At most one rebuild per
        update; rebuilding layer i resets the counters of all deeper layers,
        so a single pass restores the slack invariant everywhere. If the
        rebuild raises, the update that triggered it stays applied and the
        layer stays due, so the next update retries the rebuild.
        """
        for layer in self.layers:
            if layer.updates >= layer.due:  # its index by identity: layers compare by field
                self.rebuild_from_layer(1 + next(i for i, l in enumerate(self.layers) if l is layer))
                return

    # -- queries over the maintained assignment ------------------------------

    def assignment(self) -> dict[PointId, PointId]:
        """Full point -> center map across all layers."""
        ids = self.store.row_ids
        rows = np.flatnonzero(self.slot >= 0)
        centers = ids[np.array(self.center, dtype=np.int64)[self.slot[rows]]]
        return dict(zip(ids[rows].tolist(), centers.tolist()))

    def weighted_instance(self) -> WeightedInstance:
        """The centers of the nonempty clusters in id order, weighted by their
        cluster sizes.

        Weights sum to the live point count; last-layer points carry weight 1.
        """
        if len(self.store) == 0:
            raise ValueError("state is empty")
        sizes = np.array(self.size, dtype=np.int64)
        nonempty = sizes > 0
        rows, weights = np.array(self.center, dtype=np.int64)[nonempty], sizes[nonempty]
        order = self.store.row_ids[rows].argsort(kind="stable")  # ids are distinct
        rows = rows[order]
        return WeightedInstance(self.store.row_ids[rows], self.store.matrix[rows], weights[order])

    # -- diagnostics ---------------------------------------------------------

    def integrity_check(self) -> list[str]:
        """Verify the structural invariants; returns violations (empty = ok).

        Checks each size against the points holding its slot and each center
        row against its own slot, then the slack invariant, the per-layer shrink
        bound, the 2*radius cluster bound, and the layer-count bound. Nesting
        and depths hold by construction. Distance work here is uncounted so
        diagnostics never distort evaluation-cost measurements.
        """
        violations: list[str] = []
        params = self.params
        n = len(self.store)
        slack = params.slack

        rows = np.flatnonzero(self.slot >= 0)
        slots = self.slot[rows]
        held = np.bincount(slots, minlength=len(self.size))[: len(self.size)]
        for s in np.flatnonzero(held != np.array(self.size, dtype=np.int64))[:5]:
            violations.append(f"cluster slot {s}: size {self.size[s]}, but {held[s]} points hold it")
        totals = [sum(self.size[layer.start :]) for layer in self.layers]  # |U_i|
        if totals[0] != n:
            violations.append("cluster sizes do not add up to the live point count")
        # each center row is in range and holds its own slot (a freed row holds -1)
        center = np.array(self.center, dtype=np.int64)
        member = (center >= 0) & (center < self.slot.shape[0])
        member[member] = self.slot[center[member]] == np.flatnonzero(member)
        ends = [layer.start for layer in self.layers[1:]] + [len(self.center)]
        for i, (layer, end) in enumerate(zip(self.layers, ends), start=1):
            if i > 1:
                bound = params.shrink_factor * totals[i - 2]
                if totals[i - 1] > bound + _EPS:
                    violations.append(
                        f"layer {i}: size {totals[i - 1]} exceeds shrink bound "
                        f"{bound:.3f} from layer {i-1}"
                    )
            if layer.updates > slack * layer.base_size + _EPS:
                violations.append(
                    f"layer {i}: slack invariant broken "
                    f"({layer.updates} updates > {slack} * {layer.base_size})"
                )
            for s in range(layer.start, end):
                if self.size[s] and not member[s]:
                    violations.append(
                        f"layer {i}: cluster slot {s}: center row {self.center[s]} is not a member"
                    )
        rows, slots = rows[slots < len(center)], slots[slots < len(center)]
        keep = member[slots] & (rows != center[slots])
        violations.extend(self._check_radii(rows[keep], slots[keep], center[slots[keep]]))

        if n > 0:
            # The next-to-last layer was bigger than phi when built and may
            # have shrunk by a `slack` fraction since, hence the (1 - slack)
            # correction on phi.
            ratio = n / ((1.0 - slack) * params.phi)
            if ratio <= 1.0 + _EPS:
                allowed = 1
            else:
                allowed = math.ceil(
                    math.log(ratio) / math.log(1.0 / params.shrink_factor) - _EPS
                ) + 1
            if self.t > max(1, allowed):
                violations.append(
                    f"layer count {self.t} exceeds bound {max(1, allowed)} for n={n}"
                )
        return violations

    def _check_radii(
        self, rows: np.ndarray, slots: np.ndarray, centers: np.ndarray
    ) -> list[str]:
        """Each given point lies within twice its layer's radius of its
        cluster's center row. Distances come from the oracle's aligned-pair
        kernel, uncounted; a custom metric that fails its check there is
        reported, not raised."""
        if not rows.size:
            return []
        pids, cids = self.store.row_ids[rows], self.store.row_ids[centers]
        try:
            d = self.oracle.elementwise(self.store.matrix[rows], self.store.matrix[centers])
        except ValueError as exc:
            return [f"2*radius check: {exc}"]
        depths = np.searchsorted([layer.start for layer in self.layers], slots, side="right")
        limit = 2.0 * np.array([layer.radius for layer in self.layers])[depths - 1]
        tol = 1e-6 + 1e-9 * np.maximum(1.0, limit)
        bad = np.nonzero(d > limit + tol)[0]
        return [
            f"layer {depths[j]}: point {pids[j]} at distance {d[j]:.6g} from center "
            f"{cids[j]} exceeds 2*radius={limit[j]:.6g}"
            for j in bad[:5]
        ]


def preprocess(
    points: Iterable[Point],
    params: DynamicParams,
    oracle: Optional[DistanceOracle] = None,
) -> ClusteringState:
    """Build a fresh dynamic state over a nonempty initial point set."""
    pts = list(points)
    if not pts:
        raise ValueError("initial point set must be nonempty")
    state = ClusteringState(params, oracle)
    rows = state.store.add_many(pts)
    state._track_rows()
    state._rebuild(1, rows)
    return state

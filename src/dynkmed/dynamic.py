"""Fully dynamic layered clustering structure.

The state keeps a stack of layers, each one round of the static sampling
cover, and one map from every live point id to its cluster record. A record
holds its current center, its members and the depth of its layer; a layer
holds its records, its radius and two counters. Centers and covered sets are
read off the records, and U_i, the points covered at depth i or deeper, is
the union of the records of layers i..t, so the U_i nest by construction.

Updates touch only the map, the counters and one record, and evaluate no
distances. Each layer counts the updates it absorbed since it was built; once
that reaches a ``tau`` fraction of its size at build time, layers i..t are
rebuilt, which keeps them close to what a fresh static run would produce.
Deleting a center promotes the smallest-id surviving member, which keeps all
members within twice the layer radius of their center.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Optional

import numpy as np

from .cover import Sampler, _cover_arrays
from .metric import DistanceOracle, Point, PointId, PointStore
from .solver import WeightedInstance

# Absolute slop for comparing integer counters against fractional thresholds.
_EPS = 1e-9

# One cover round: working-set size, radius, clusters as (center, members).
_Round = tuple[int, float, list[tuple[PointId, list[PointId]]]]


@dataclass
class DynamicParams:
    """Knobs of the cover rounds and the rebuild slack.

    ``phi`` is the per-round sample size and ``beta`` the fraction of the
    working set each round covers; ``last_layer_threshold`` (default
    ``phi``) is the residual size at which peeling stops. ``epsilon`` sets
    the rebuild slack tau = ``epsilon * beta``. ``sampler`` lets tests
    inject a deterministic sample in place of uniform-with-replacement
    draws. ``k``, the center count of later queries, is validated here but
    not read by the state.
    """

    k: int
    phi: int
    beta: float = 0.5
    last_layer_threshold: Optional[int] = None
    seed: int | np.random.SeedSequence = 0
    sampler: Optional[Sampler] = None
    epsilon: float = 0.2

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.phi < 1:
            raise ValueError("phi must be at least 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        if self.last_layer_threshold is not None and self.last_layer_threshold < self.phi:
            raise ValueError("last_layer_threshold must be at least phi")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")

    @property
    def threshold(self) -> int:
        return self.phi if self.last_layer_threshold is None else self.last_layer_threshold

    @property
    def slack(self) -> float:
        return self.epsilon * self.beta

    @property
    def shrink_factor(self) -> float:
        """Per-layer size decay guaranteed between consecutive layers."""
        return 1.0 - self.beta * (1.0 - self.epsilon)


@dataclass(eq=False)
class ClusterRecord:
    """One cluster: current center, member ids, and the 1-based depth of the
    layer that holds it. Records compare and hash by identity."""

    center: PointId
    members: set[PointId]
    depth: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class Layer:
    # insertion-ordered set of the layer's records (values unused)
    clusters: dict[ClusterRecord, None] = field(default_factory=dict)
    radius: float = 0.0
    base_size: int = 0                  # |U_i| when the layer was last built
    updates: int = 0                    # updates absorbed since that build

    @property
    def centers(self) -> set[PointId]:
        """S_i: the current cluster centers."""
        return {record.center for record in self.clusters}

    @property
    def covered(self) -> set[PointId]:
        """C_i: the union of the cluster members."""
        return set(chain.from_iterable(record.members for record in self.clusters))


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
        self.cluster_of: dict[PointId, ClusterRecord] = {}
        self.layers: list[Layer] = [Layer()]  # empty: one terminal layer

    # -- basic views ---------------------------------------------------------

    @property
    def t(self) -> int:
        return len(self.layers)

    @property
    def live_count(self) -> int:
        return len(self.store)

    def live_points(self) -> list[Point]:
        return self.store.points_sorted()

    def members(self, index: int) -> set[PointId]:
        """U_index (1-based): the points covered at depth index or deeper."""
        return set(self._member_ids(index))

    def _member_ids(self, index: int) -> Iterator[PointId]:
        """The ids of U_index, each once, read off the records of layers
        index..t."""
        records = chain.from_iterable(layer.clusters for layer in self.layers[index - 1 :])
        return chain.from_iterable(record.members for record in records)

    # -- construction --------------------------------------------------------

    def _cover_rounds(self, ids: np.ndarray) -> tuple[list[_Round], list[PointId]]:
        """Peel cover rounds off the sorted ids until at most ``threshold``
        remain; touches nothing but the sample stream.

        Returns one round per layer, each with the size of its working set,
        its radius and its clusters as (center, members) in center order,
        plus the remainder, which becomes a last layer of singletons.
        """
        coords = self.store.coords_for(ids)
        rounds: list[_Round] = []
        while ids.shape[0] > self.params.threshold:
            center_ids, nearest, mask, radius = _cover_arrays(
                ids, coords, self.params, self.rng, self.oracle
            )
            # group the covered points by nearest center, in center order; a
            # sampled center whose same-coord twin with a smaller id absorbed
            # it gets no members and no cluster
            order = np.argsort(nearest[mask], kind="stable")
            near = nearest[mask][order]
            pids = ids[mask][order].tolist()
            bounds = [0, *(np.flatnonzero(np.diff(near)) + 1).tolist(), len(pids)]
            centers = center_ids[near[bounds[:-1]]].tolist()
            groups = [
                (center, pids[lo:hi])
                for center, lo, hi in zip(centers, bounds, bounds[1:])
            ]
            rounds.append((ids.shape[0], radius, groups))
            keep = ~mask
            ids = ids[keep]
            coords = coords[keep]
        return rounds, ids.tolist()

    def _append_layers(self, rounds: list[_Round], rest: list[PointId]) -> None:
        """Append the layers of :meth:`_cover_rounds` and map their points."""
        for base_size, radius, groups in rounds:
            layer = Layer(radius=radius, base_size=base_size)
            self.layers.append(layer)
            depth = self.t
            for center, group in groups:
                record = ClusterRecord(center, set(group), depth)
                layer.clusters[record] = None
                self.cluster_of.update(zip(group, repeat(record)))
        depth = self.t + 1
        records = [ClusterRecord(pid, {pid}, depth) for pid in rest]
        self.layers.append(Layer(dict.fromkeys(records), base_size=len(rest)))
        self.cluster_of.update(zip(rest, records))

    def rebuild_from_layer(self, index: int) -> None:
        """Discard layers index..t and rebuild them from the current U_index.

        ``index`` is 1-based. Rebuilding from layer 1 is exactly a fresh
        preprocess of the current point set on the same sample stream. The
        rebuild is atomic: every cover round runs before any layer changes,
        so if one raises (say, a custom metric fails) the layers, the point
        map and the sample stream are left as they were.
        """
        if not 1 <= index <= self.t:
            raise IndexError(f"layer index {index} out of range 1..{self.t}")
        ids = np.fromiter(self._member_ids(index), dtype=np.int64)
        ids.sort()
        stream = self.rng.bit_generator.state
        try:
            rounds, rest = self._cover_rounds(ids)
        except BaseException:
            self.rng.bit_generator.state = stream
            raise
        del self.layers[index - 1 :]
        self._append_layers(rounds, rest)

    # -- updates -------------------------------------------------------------

    def insert(self, point: Point) -> None:
        """Add a new point: counts as an update in every layer, becomes its
        own center in the last one, then the slack check runs."""
        self.store.add(point)  # raises on a duplicate id before any change
        for layer in self.layers:
            layer.updates += 1
        record = ClusterRecord(point.id, {point.id}, self.t)
        self.layers[-1].clusters[record] = None
        self.cluster_of[point.id] = record
        self.rebuild()

    def delete(self, pid: PointId) -> None:
        """Remove a live point; counts as an update in layers 1..depth.

        If it centered a cluster with surviving members, the smallest-id
        member takes over as center; an emptied cluster is dropped.
        """
        record = self.cluster_of.pop(pid)  # KeyError for an unknown id
        for layer in self.layers[: record.depth]:
            layer.updates += 1
        record.members.discard(pid)
        if record.center == pid:
            if record.members:
                record.center = min(record.members)
            else:
                del self.layers[record.depth - 1].clusters[record]
        self.store.remove(pid)
        self.rebuild()

    def rebuild(self) -> None:
        """Rebuild from the shallowest layer whose slack budget is exhausted.

        No-op when every layer is within budget. At most one rebuild per
        update; rebuilding layer i resets the counters of all deeper layers,
        so a single pass restores the slack invariant everywhere. If the
        rebuild raises, the update that triggered it stays applied and the
        layer stays due, so the next update retries the rebuild.
        """
        slack = self.params.slack
        for i, layer in enumerate(self.layers, start=1):
            if layer.updates >= slack * layer.base_size - _EPS:
                self.rebuild_from_layer(i)
                return

    # -- queries over the maintained assignment ------------------------------

    def assignment_of(self, pid: PointId) -> PointId:
        """Current center of the unique cluster containing ``pid``."""
        return self.cluster_of[pid].center

    def assignment(self) -> dict[PointId, PointId]:
        """Full point -> center map across all layers."""
        return {pid: record.center for pid, record in self.cluster_of.items()}

    def weighted_instance(self) -> WeightedInstance:
        """All current centers, weighted by their cluster sizes.

        Weights sum to the live point count; last-layer points carry weight 1.
        """
        if len(self.store) == 0:
            raise ValueError("state is empty")
        entries: list[tuple[Point, int]] = []
        for layer in self.layers:
            for record in sorted(layer.clusters, key=lambda r: r.center):
                entries.append((self.store.get(record.center), record.size))
        return WeightedInstance(entries)

    # -- diagnostics ---------------------------------------------------------

    def _sizes(self) -> list[int]:
        """|U_i| for i = 1..t, summed from the covered counts of layers i..t."""
        counts = [sum(r.size for r in layer.clusters) for layer in reversed(self.layers)]
        return list(accumulate(counts))[::-1]

    def integrity_check(self) -> list[str]:
        """Verify the structural invariants; returns violations (empty = ok).

        Checks the point map against the live set and the cluster records,
        the records themselves, the slack invariant, the per-layer shrink
        bound, the 2*radius cluster bound, and the layer-count bound. Nesting
        of the U_i holds by construction. Distance work here is uncounted so
        diagnostics never distort evaluation-cost measurements.
        """
        violations: list[str] = []
        params = self.params
        n = len(self.store)
        slack = params.slack

        if self.cluster_of.keys() != set(self.store.ids_sorted()):
            violations.append("point map keys differ from the live point set")
        for pid, record in self.cluster_of.items():
            if pid not in record.members:
                violations.append(f"point {pid} is not a member of its cluster")
            if not (
                1 <= record.depth <= self.t
                and record in self.layers[record.depth - 1].clusters
            ):
                violations.append(f"point {pid}: cluster not in layer {record.depth}")

        sizes = self._sizes()
        if sizes[0] != n:
            # with every point in its own record, an excess means a point
            # sits in two records or a record holds a dead point
            violations.append("cluster members do not partition the live point set")
        for i, layer in enumerate(self.layers, start=1):
            if i > 1:
                bound = params.shrink_factor * sizes[i - 2]
                if sizes[i - 1] > bound + _EPS:
                    violations.append(
                        f"layer {i}: size {sizes[i - 1]} exceeds shrink bound "
                        f"{bound:.3f} from layer {i-1}"
                    )
            if layer.updates > slack * layer.base_size + _EPS:
                violations.append(
                    f"layer {i}: slack invariant broken "
                    f"({layer.updates} updates > {slack} * {layer.base_size})"
                )
            for record in layer.clusters:
                if record.center not in record.members:
                    violations.append(
                        f"layer {i}: cluster center {record.center} is not a member"
                    )
        violations.extend(self._check_radii())

        if n > 0:
            # The next-to-last layer was bigger than the threshold when built
            # and may have shrunk by a `slack` fraction since, hence the
            # (1 - slack) correction on the threshold.
            ratio = n / ((1.0 - slack) * params.threshold)
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

    def _check_radii(self) -> list[str]:
        """Every live point lies within twice its layer's radius of its
        cluster's center (singletons are at distance zero by identity).
        Distances come from the oracle's aligned-pair kernel, uncounted; a
        custom metric that fails its check there is reported, not raised."""
        pairs = [
            (pid, record.center, record.depth)
            for pid, record in self.cluster_of.items()
            if pid != record.center and 1 <= record.depth <= self.t
            and pid in self.store and record.center in self.store
        ]
        if not pairs:
            return []
        pids, centers, depths = (list(column) for column in zip(*pairs))
        a = self.store.coords_for(pids)
        b = self.store.coords_for(centers)
        try:
            d = self.oracle.elementwise(a, pids, b, centers, count=False)
        except ValueError as exc:
            return [f"2*radius check: {exc}"]
        limit = 2.0 * np.array([self.layers[i - 1].radius for i in depths])
        tol = 1e-6 + 1e-9 * np.maximum(1.0, limit)
        bad = np.nonzero(d > limit + tol)[0]
        return [
            f"layer {depths[j]}: point {pids[j]} at distance {d[j]:.6g} from center "
            f"{centers[j]} exceeds 2*radius={limit[j]:.6g}"
            for j in bad[:5]
        ]

    def snapshot(self) -> str:
        """Tab-separated debug dump: one line per layer with
        i, |U_i|, |S_i|, |C_i|, radius, base size, update counter."""
        sizes = self._sizes() + [0]
        lines = []
        for i, layer in enumerate(self.layers, start=1):
            lines.append(
                f"{i}\t{sizes[i - 1]}\t{len(layer.clusters)}\t{sizes[i - 1] - sizes[i]}\t"
                f"{layer.radius!r}\t{layer.base_size}\t{layer.updates}"
            )
        return "\n".join(lines) + "\n"


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
    for p in pts:
        state.store.add(p)
    rounds, rest = state._cover_rounds(np.array(state.store.ids_sorted(), dtype=np.int64))
    del state.layers[:]
    state._append_layers(rounds, rest)
    return state


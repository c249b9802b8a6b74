"""Sliding-window benchmark of the dynkmed engine.

    python3 benchmark/run.py --workload slide-query [--seed 2024] [--seconds S] [--trace 0]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

One process runs one workload. Points come from ``dynkmed.synthetic_points``
with the workload seed; ``dynkmed.preprocess`` bulk-loads the first
``window`` of them, then the steady part of ``sliding_window_stream`` runs:
each step inserts the next point and deletes the oldest live one. Queries
are evenly spaced over the steps, each with its own seed spawned the way
``run_experiment`` spawns them. That bulk load plus slide is one *pass*. A
run makes as many passes as ``--seconds`` holds at the workload's nominal
pass time (at least two), so the work of a run depends only on its
arguments: the updates are the same in every pass, and the queries of each
pass get the next block of spawned seeds, so pooled query latencies are of
distinct queries. The run pools the per-operation latencies and reports the
median of the per-pass figures, so one slow pass does not move the result.

Every time is wall time scaled to a fixed machine speed (see
:class:`SpeedClock`): the speed of the shared machine drifts by up to 40%
within seconds, for the engine and a fixed reference mix of work alike.

After every query an untimed gate checks the state and the answer (see
:func:`check_query`). Each pass also hashes its per-update evaluation counts
and every query's centers and cost into a digest. Every pass must make the
same evaluations in its updates, and a block of query seeds gives the same
digest in every run with the same seed, traced or not.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes on the same queries whose calls into the
engine's layers are wrapped in spans (``spans.py``), and prints the
per-layer metrics, among them the tracing overhead. The line before the
last is a JSON record of the run: the digests, sample counts and the
environment. The last line is the result.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
ENGINE_SRC = REPO / "src"
if not (ENGINE_SRC / "dynkmed" / "__init__.py").is_file():
    raise SystemExit(f"engine sources not found under {ENGINE_SRC}")
sys.path.insert(0, str(ENGINE_SRC))
# One BLAS thread: on 2 cores a second OpenBLAS thread made no workload faster,
# but it spun on the other core between the engine's small BLAS calls.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import dynkmed as dk  # noqa: E402
from dynkmed import solver as dk_solver  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

DEFAULT_SEED = 2024     # seed of the recorded numbers; 7919 is held out for checking gains
SETUP_REPEATS = 15      # bulk loads timed before the passes, for setup_s
MIN_PASSES = 2
RUN_SECONDS = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]


@dataclass(frozen=True)
class Workload:
    name: str
    components: int
    dim: int
    count: int          # points generated; a pass uses the first window + steps
    window: int
    k: int
    phi: int
    p: float
    steps: int          # slide steps per pass: one insert and one delete each
    queries: int        # queries per pass
    pass_s: float       # nominal wall time of a pass; sets the passes in a run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slide-query",
            components=10, dim=5, count=10000, window=2000, k=50, phi=500, p=1.0,
            steps=1200, queries=20, pass_s=6.0,
        ),
        Workload(
            "slide-update",
            components=20, dim=8, count=40000, window=10000, k=20, phi=100, p=1.0,
            steps=4000, queries=20, pass_s=6.0,
        ),
        Workload(
            "wide-kmeans",
            components=16, dim=64, count=30000, window=5000, k=20, phi=250, p=2.0,
            steps=2000, queries=25, pass_s=7.5,
        ),
    )
}

# name -> unit, in output order
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "updates_per_s": "1/s",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "update_p999_us": "us",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "evals_per_update": "count",
    "evals_per_query": "count",
    "query_cost_mean": "cost",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}

DEPTHS = ("d1", "d2", "d3", "deep")
PER_LAYER_UNITS = {
    "metric.kernel_calls": "count",
    "metric.kernel_pairs": "count",
    "metric.kernel_bytes": "bytes",
    "metric.kernel_s.rebuild": "s",
    "metric.kernel_s.gram": "s",
    "metric.kernel_s.cost": "s",
    "metric.kernel_mpairs_per_s": "Mpairs/s",
    **{f"dynamic.rebuilds.{d}": "count" for d in DEPTHS},
    **{f"dynamic.rebuild_evals.{d}": "count" for d in DEPTHS},
    **{f"dynamic.rebuild_s.{d}": "s" for d in DEPTHS},
    **{f"dynamic.rebuild_size.{d}": "points" for d in DEPTHS},
    "dynamic.rebuild_self_s": "s",
    "dynamic.rebuild_frac": "ratio",
    "dynamic.update_self_s": "s",
    "dynamic.extract_s": "s",
    "dynamic.layers_t": "count",
    "dynamic.instance_m_over_n": "ratio",
    "solver.query_self_s": "s",
    "solver.solve_s": "s",
    "solver.search_self_s": "s",
    "solver.cost_s": "s",
    "trace.overhead_frac": "ratio",
}


# -- machine speed -------------------------------------------------------------

REFERENCE_NS = 1_000_000            # scaled times are as on a machine where reference() takes 1 ms
CHECKPOINT_EVERY_NS = 100_000_000
_rng = np.random.default_rng(0)
_SMALL = _rng.random((48, 16))
_ROWS = _rng.random((150, 64))
_COLS = _rng.random((400, 64))
_MEMORY = _rng.random(1 << 19)      # 4 MB, more than the L2 cache


def reference() -> int:
    """Wall time (ns) of a fixed mix of the work the engine does: dict and set
    updates in the interpreter, small BLAS calls, a 64-dim block of squared
    distances and a pass over 4 MB of memory.

    An earlier reference of interpreter work and small BLAS calls only sped
    up and slowed down more than the engine's kernels; scaled by it, ten
    runs of ``wide-kmeans`` spread by up to 0.10, against 0.05 with this mix.
    """
    start = time.perf_counter_ns()
    table = {}
    for i in range(2000):
        table[i] = i * i % 7
    live = set(table)
    for i in range(0, 2000, 2):
        live.discard(i)
    for _ in range(13):
        (_SMALL @ _SMALL.T).min(axis=1)
    block = (_ROWS * _ROWS).sum(1)[:, None] + (_COLS * _COLS).sum(1)[None, :] - 2 * _ROWS @ _COLS.T
    block.min(axis=1)
    _MEMORY.sum()
    return time.perf_counter_ns() - start


class SpeedClock:
    """Scales wall times to the speed at which ``reference()`` takes 1 ms.

    The shared machine's speed drifts by up to 40% within seconds, and the
    engine and the reference slow down together: scaled, ten runs of a
    workload spread by at most 0.07, where raw wall times had spread by up
    to 0.33. The clock runs the reference (best of three) at checkpoints:
    around every query and bulk load, and at least every 100 ms between
    updates. The operations between two checkpoints form a segment; their
    wall times are scaled by ``REFERENCE_NS`` over the mean reference time
    at the segment's two ends.
    """

    def __init__(self) -> None:
        self.times: list[int] = []
        self.refs: list[int] = []
        self.checkpoint()

    def checkpoint(self) -> None:
        self.refs.append(min(reference() for _ in range(3)))
        self.times.append(time.perf_counter_ns())

    def maybe_checkpoint(self) -> None:
        if time.perf_counter_ns() - self.times[-1] >= CHECKPOINT_EVERY_NS:
            self.checkpoint()

    def finish(self) -> Callable[[int], float]:
        """Last checkpoint; returns the scale factor of an operation that
        started at a given ``perf_counter_ns``."""
        self.checkpoint()
        factors = [2 * REFERENCE_NS / (a + b) for a, b in zip(self.refs, self.refs[1:])]
        return lambda start: factors[bisect.bisect_right(self.times, start) - 1]


@dataclass
class Inputs:
    """Everything a pass needs, made once per run from the workload seed."""

    workload: Workload
    points: list
    offset: float
    state_seed: np.random.SeedSequence
    query_root: np.random.SeedSequence
    query_blocks: list = field(default_factory=list)

    @classmethod
    def make(cls, w: Workload, seed: int) -> "Inputs":
        if w.window + w.steps > w.count:
            raise ValueError(f"{w.name}: window + steps exceeds the point count")
        spec = dk.SyntheticSpec(w.components, w.dim, w.count)
        used = dk.synthetic_points(spec, seed)[: w.window + w.steps]
        # copy the used rows, so the unused rest of the generated array is freed
        points = dk.points_from_array(np.stack([q.coords for q in used]))
        state_ss, query_ss, _ = np.random.SeedSequence(seed).spawn(3)
        return cls(w, points, 1.0 / w.count, state_ss, query_ss)

    def query_seeds(self, block: int) -> list:
        """Seeds of one pass's queries: the block-th block spawned from the
        query root, so block 0 holds the seeds ``run_experiment`` uses."""
        while len(self.query_blocks) <= block:
            self.query_blocks.append(self.query_root.spawn(self.workload.queries))
        return self.query_blocks[block]

    def params(self) -> dk.DynamicParams:
        w = self.workload
        return dk.DynamicParams(k=w.k, phi=w.phi, beta=0.5, epsilon=0.2, seed=self.state_seed)

    def bulk_load(self):
        """Fresh state over the first window; returns it with its scaled time in s."""
        oracle = dk.DistanceOracle(offset=self.offset)
        speed = SpeedClock()
        start = time.perf_counter_ns()
        state = dk.preprocess(self.points[: self.workload.window], self.params(), oracle)
        seconds = (time.perf_counter_ns() - start) / 1e9
        return state, seconds * speed.finish()(start)


@dataclass
class PassResult:
    block: int          # index of the pass's block of query seeds
    setup_s: float
    update_ns: list = field(default_factory=list)   # ns, scaled when the pass ends
    update_evals: list = field(default_factory=list)
    query_ns: list = field(default_factory=list)
    query_evals: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed: int = 0
    digest: str = ""
    speed_refs: list = field(default_factory=list)
    raw_run_s: float = 0.0      # unscaled, for the record
    layers: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.update_ns) + len(self.query_ns)

    @property
    def run_s(self) -> float:
        return (sum(self.update_ns) + sum(self.query_ns)) / 1e9


def query_points(steps: int, queries: int) -> dict[int, list[int]]:
    """Query j (1-based) runs after step floor(j*steps/queries)."""
    due: dict[int, list[int]] = {}
    for j in range(1, queries + 1):
        due.setdefault((j * steps) // queries, []).append(j)
    return due


def check_query(state, answer, w: Workload, offset: float) -> list[str]:
    """Untimed correctness gate after a query; returns the problems found.

    The cost is recomputed on a separate oracle, so the state's evaluation
    counter is untouched.
    """
    evals = state.oracle.evals
    problems = [f"integrity: {v}" for v in state.integrity_check()]
    n = state.live_count
    weight = state.weighted_instance().total_weight
    if weight != n:
        problems.append(f"instance weight {weight} != live count {n}")
    if len(answer.centers) != min(w.k, n):
        problems.append(f"{len(answer.centers)} centers, expected {min(w.k, n)}")
    dead = sorted(c for c in answer.centers if c not in state.store)
    if dead:
        problems.append(f"centers not live: {dead[:5]}")
    elif not math.isfinite(answer.cost):
        problems.append(f"cost {answer.cost!r} is not finite")
    else:
        centers = [state.store.get(c) for c in sorted(answer.centers)]
        recomputed = dk.cost_set(centers, state.live_points(), w.p, dk.DistanceOracle(offset=offset))
        if not math.isclose(answer.cost, recomputed, rel_tol=1e-9):
            problems.append(f"cost {answer.cost!r} != recomputed {recomputed!r}")
    if state.oracle.evals != evals:
        problems.append("gate changed the evaluation counter")
    return problems


def run_pass(inputs: Inputs, block: int, tracer: Tracer | None = None) -> PassResult:
    w = inputs.workload
    query_seeds = inputs.query_seeds(block)
    gc.collect()
    state, setup_s = inputs.bulk_load()
    result = PassResult(block, setup_s)
    speed = SpeedClock()
    update_starts: list[int] = []
    query_starts: list[int] = []
    oracle = state.oracle
    points = inputs.points
    digest = hashlib.sha256()
    due = query_points(w.steps, w.queries)
    clock = time.perf_counter_ns

    def record_failure(what: str) -> None:
        result.failed += 1
        if len(result.failures) < 5:
            result.failures.append(what)
        digest.update(f"fail {what}\n".encode())

    def slide() -> None:
        for step in range(1, w.steps + 1):
            speed.maybe_checkpoint()
            for op, arg in (
                (state.insert, points[w.window + step - 1]),
                (state.delete, points[step - 1].id),
            ):
                mark = oracle.evals
                start = clock()
                try:
                    op(arg)
                except Exception as exc:  # counted, the stream goes on
                    record_failure(f"step {step} {op.__name__}: {exc!r}")
                result.update_ns.append(clock() - start)
                update_starts.append(start)
                result.update_evals.append(oracle.evals - mark)
                digest.update(b"u%d\n" % result.update_evals[-1])
            for j in due.get(step, ()):
                speed.checkpoint()      # a query is a segment of its own
                mark = oracle.evals
                start = clock()
                try:
                    answer, error = dk_solver.query(state, w.k, w.p, query_seeds[j - 1]), None
                except Exception as exc:
                    answer, error = None, exc
                result.query_ns.append(clock() - start)
                query_starts.append(start)
                speed.checkpoint()
                if error is not None:
                    record_failure(f"query {j}: {error!r}")
                    continue
                result.query_evals.append(oracle.evals - mark)
                result.costs.append(answer.cost)
                digest.update(f"q{sorted(answer.centers)} {answer.cost!r}\n".encode())
                if tracer is None:
                    problems = check_query(state, answer, w, inputs.offset)
                else:
                    with tracer.paused():
                        problems = check_query(state, answer, w, inputs.offset)
                if problems:
                    record_failure(f"query {j}: {problems[0]}")

    if tracer is None:
        slide()
    else:
        with instrument(tracer, trace_targets()):
            slide()
    scale = speed.finish()
    result.raw_run_s = (sum(result.update_ns) + sum(result.query_ns)) / 1e9
    result.update_ns = [ns * scale(t) for ns, t in zip(result.update_ns, update_starts)]
    result.query_ns = [ns * scale(t) for ns, t in zip(result.query_ns, query_starts)]
    result.speed_refs = speed.refs
    if tracer is not None:
        result.layers = layer_figures(tracer, result, scale)
    result.digest = digest.hexdigest()
    return result


# -- tracing -----------------------------------------------------------------

REBUILD, SOLVE, COST = "dynamic.rebuild", "solver.solve", "solver.cost"
KERNEL_PARENTS = frozenset({REBUILD, SOLVE, COST})


def _rebuild_enter(args, kwargs, attrs) -> None:
    state, index = args[0], args[1]
    attrs["depth"] = index
    attrs["evals"] = state.oracle.evals


def _rebuild_exit(args, kwargs, result, attrs) -> None:
    state = args[0]
    attrs["evals"] = state.oracle.evals - attrs["evals"]
    attrs["size"] = state.layers[attrs["depth"] - 1].base_size


def _kernel_exit(args, kwargs, result, attrs) -> None:
    rows, cols = result.shape
    dim = np.shape(args[1])[1]
    attrs["pairs"] = rows * cols
    attrs["bytes"] = 8 * (rows * dim + cols * dim + rows * cols)


def _extract_exit(args, kwargs, result, attrs) -> None:
    state = args[0]
    attrs["m"] = len(result)
    attrs["n"] = state.live_count
    attrs["t"] = state.t


def trace_targets() -> list:
    """(owner, attribute, span name, enter hook, exit hook) per layer call."""
    state_cls = dk.ClusteringState
    return [
        (dk.DistanceOracle, "matrix_between", "metric.kernel", None, _kernel_exit),
        (state_cls, "insert", "dynamic.insert", None, None),
        (state_cls, "delete", "dynamic.delete", None, None),
        (state_cls, "rebuild_from_layer", REBUILD, _rebuild_enter, _rebuild_exit),
        (state_cls, "weighted_instance", "dynamic.extract", None, _extract_exit),
        (dk_solver, "query", "solver.query", None, None),
        (dk_solver, "weighted_solve", SOLVE, None, None),
        (dk_solver, "cost_set", COST, None, None),
    ]


def _depth_bucket(depth: int) -> str:
    return f"d{depth}" if depth <= 3 else "deep"


def layer_figures(tracer: Tracer, result: PassResult, scale: Callable[[int], float]) -> dict[str, float]:
    """Per-layer figures of one traced pass (all but the tracing overhead).

    Span times are scaled like the operations: no checkpoint falls inside a
    span, so each span is scaled by the factor at its start. Exit hooks run
    only when a call returns, so a call that raised adds its time but no
    attributes.
    """
    own = tracer.self_seconds()
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    kernel_s = {REBUILD: 0.0, SOLVE: 0.0, COST: 0.0}
    kernel_calls = kernel_pairs = kernel_bytes = 0
    rebuilds = {d: [0, 0, 0.0, 0] for d in DEPTHS}   # count, evals, seconds, sizes
    extracts = []
    for index, span in enumerate(tracer.spans):
        factor = scale(span.start)
        seconds = span.seconds * factor
        total[span.name] = total.get(span.name, 0.0) + seconds
        self_s[span.name] = self_s.get(span.name, 0.0) + own[index] * factor
        if span.name == "metric.kernel":
            kernel_calls += 1
            kernel_pairs += span.attrs.get("pairs", 0)
            kernel_bytes += span.attrs.get("bytes", 0)
            parent = tracer.ancestor(index, KERNEL_PARENTS)
            if parent is not None:
                kernel_s[parent.name] += seconds
        elif span.name == REBUILD and "size" in span.attrs:
            bucket = rebuilds[_depth_bucket(span.attrs["depth"])]
            bucket[0] += 1
            bucket[1] += span.attrs["evals"]
            bucket[2] += seconds
            bucket[3] += span.attrs["size"]
        elif span.name == "dynamic.extract" and span.attrs:
            extracts.append(span.attrs)
    figures = {
        "metric.kernel_calls": kernel_calls,
        "metric.kernel_pairs": kernel_pairs,
        "metric.kernel_bytes": kernel_bytes,
        "metric.kernel_s.rebuild": kernel_s[REBUILD],
        "metric.kernel_s.gram": kernel_s[SOLVE],
        "metric.kernel_s.cost": kernel_s[COST],
        "metric.kernel_mpairs_per_s": kernel_pairs / 1e6 / max(total.get("metric.kernel", 0.0), 1e-12),
    }
    for d, (count, evals, seconds, sizes) in rebuilds.items():
        figures[f"dynamic.rebuilds.{d}"] = count
        figures[f"dynamic.rebuild_evals.{d}"] = evals
        figures[f"dynamic.rebuild_s.{d}"] = seconds
        figures[f"dynamic.rebuild_size.{d}"] = sizes / count if count else 0.0
    updates = len(result.update_ns)
    figures.update({
        "dynamic.rebuild_self_s": self_s.get(REBUILD, 0.0),
        "dynamic.rebuild_frac": sum(b[0] for b in rebuilds.values()) / max(updates, 1),
        "dynamic.update_self_s": self_s.get("dynamic.insert", 0.0) + self_s.get("dynamic.delete", 0.0),
        "dynamic.extract_s": total.get("dynamic.extract", 0.0),
        "dynamic.layers_t": statistics.fmean(e["t"] for e in extracts) if extracts else 0.0,
        "dynamic.instance_m_over_n": (
            statistics.fmean(e["m"] / e["n"] for e in extracts) if extracts else 0.0
        ),
        "solver.query_self_s": self_s.get("solver.query", 0.0),
        "solver.solve_s": total.get(SOLVE, 0.0),
        "solver.search_self_s": self_s.get(SOLVE, 0.0),
        "solver.cost_s": total.get(COST, 0.0),
    })
    return figures


# -- a run -------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics. Update
    latencies fall into classes (one per rebuild depth) whose shares are
    fixed multiples of 1/window, and a tail percentile can sit exactly on the
    edge between two classes, where the plain order statistic is the maximum
    of one class and jumps with any single slow operation. The weighted mean
    changes smoothly there.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    q /= 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    sub = max(1, 65536 // n)    # integration points per order statistic
    grid = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(passes: list[PassResult], setups: list[float], peak_rss_mb: float) -> dict[str, float]:
    first = passes[0]
    query_evals = [e for p in passes for e in p.query_evals]
    costs = [c for p in passes for c in p.costs]
    update_us = [ns / 1e3 for p in passes for ns in p.update_ns]
    query_ms = [ns / 1e6 for p in passes for ns in p.query_ns]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.run_s for p in passes),
        "updates_per_s": statistics.median(
            len(p.update_ns) / (sum(p.update_ns) / 1e9) for p in passes
        ),
        "update_p50_us": percentile(update_us, 50),
        "update_p99_us": percentile(update_us, 99),
        "update_p999_us": percentile(update_us, 99.9),
        "query_p50_ms": percentile(query_ms, 50),
        "query_p90_ms": percentile(query_ms, 90),
        "evals_per_update": sum(first.update_evals) / len(first.update_evals),
        "evals_per_query": sum(query_evals) / max(len(query_evals), 1),
        "query_cost_mean": statistics.fmean(costs or [0.0]),
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def per_layer(plain: list[PassResult], traced: list[PassResult]) -> dict[str, float]:
    """Medians over the traced passes; the overhead compares each traced
    pass with the untraced pass run just before it on the same queries."""
    figures = {
        name: statistics.median(p.layers[name] for p in traced)
        for name in traced[0].layers
    }
    figures["trace.overhead_frac"] = statistics.median(
        t.run_s / u.run_s for u, t in zip(plain, traced)
    ) - 1.0
    return figures


def pass_count(w: Workload, seconds: float) -> int:
    """Passes in a run: as many as ``seconds`` holds at the nominal pass time."""
    return max(MIN_PASSES, round(seconds / w.pass_s))


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of ``pass_count`` passes; returns (record, result line)."""
    load_start = os.getloadavg()
    inputs = Inputs.make(w, seed)
    setups = [inputs.bulk_load()[1] for _ in range(SETUP_REPEATS)]
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    if trace:
        # each untraced pass is followed by a traced one on the same queries
        for block in range(pass_count(w, seconds) // 2):
            plain.append(run_pass(inputs, block))
            traced.append(run_pass(inputs, block, Tracer()))
    else:
        plain = [run_pass(inputs, block) for block in range(pass_count(w, seconds))]
    setups += [p.setup_s for p in plain + traced]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = plain + traced
    digests: dict[int, set] = {}
    for p in passes:
        digests.setdefault(p.block, set()).add(p.digest)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    same_updates = all(p.update_evals == passes[0].update_evals for p in passes)
    correct = failed == 0 and same_updates and all(len(d) == 1 for d in digests.values())
    if trace:
        metrics = per_layer(plain, traced)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(plain, setups, peak_rss_mb)
        units = END_TO_END_UNITS
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "pass_run_s": {"plain": [p.run_s for p in plain], "traced": [p.run_s for p in traced]},
        "pass_raw_run_s": {
            "plain": [p.raw_run_s for p in plain], "traced": [p.raw_run_s for p in traced],
        },
        # reference() wall time at the checkpoints, over the whole run
        "reference_us": reference_summary([r for p in passes for r in p.speed_refs]),
        "per_pass": {
            "updates": len(passes[0].update_ns),
            "queries": len(passes[0].query_ns),
            "update_evals": sum(passes[0].update_evals),
            "query_evals": sum(passes[0].query_evals),
        },
        "samples": {
            "setup": len(setups),
            "update": sum(len(p.update_ns) for p in plain),
            "query": sum(len(p.query_ns) for p in plain),
        },
        # one digest per block of query seeds; two in one block (space-separated)
        # mean that tracing changed the behaviour
        "digests": [" ".join(sorted(digests[b])) for b in sorted(digests)],
        "failures": [f for p in passes for f in p.failures][:5],
        "environment": {
            **environment(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, result


def reference_summary(refs: list[int]) -> dict:
    q1, median, q3 = statistics.quantiles(refs, n=4)
    return {"checkpoints": len(refs), "min": min(refs) / 1e3, "q1": q1 / 1e3,
            "median": median / 1e3, "q3": q3 / 1e3, "max": max(refs) / 1e3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

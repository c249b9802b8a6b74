"""Fully dynamic k-median / (k,p)-clustering over general metric spaces.

A layered successive-sampling structure absorbs point insertions and
deletions in amortized near-constant distance evaluations per update; queries
extract a small weighted instance and solve it statically. A benchmark
harness replays sliding-window streams and emits per-update metrics.
"""
from .metric import (
    DistanceOracle,
    Point,
    PointId,
    PointStore,
    points_from_array,
    relaxed_triangle_ok,
)
from .cover import (
    CoverParams,
    CoverResult,
    almost_cover,
    coverage_radius,
)
from .dynamic import (
    ClusterRecord,
    ClusteringState,
    DynamicParams,
    Layer,
    empty_state,
    preprocess,
)
from .solver import (
    Solution,
    WeightedInstance,
    brute_force_coverage_radius,
    brute_force_opt,
    brute_force_opt_weighted,
    cost_assignment,
    cost_set,
    cost_weighted,
    query,
    weighted_solve,
)
from .bench import (
    ConfigError,
    DatasetError,
    ExperimentConfig,
    ExperimentResult,
    MetricsRow,
    SyntheticSpec,
    emit_metrics,
    load_dataset,
    run_experiment,
    sliding_window_stream,
    synthetic_points,
)

__all__ = [
    "ClusterRecord",
    "ClusteringState",
    "ConfigError",
    "CoverParams",
    "CoverResult",
    "DatasetError",
    "DistanceOracle",
    "DynamicParams",
    "ExperimentConfig",
    "ExperimentResult",
    "Layer",
    "MetricsRow",
    "Point",
    "PointId",
    "PointStore",
    "Solution",
    "SyntheticSpec",
    "WeightedInstance",
    "almost_cover",
    "brute_force_coverage_radius",
    "brute_force_opt",
    "brute_force_opt_weighted",
    "cost_assignment",
    "cost_set",
    "cost_weighted",
    "coverage_radius",
    "emit_metrics",
    "empty_state",
    "load_dataset",
    "points_from_array",
    "preprocess",
    "query",
    "relaxed_triangle_ok",
    "run_experiment",
    "sliding_window_stream",
    "synthetic_points",
    "weighted_solve",
]

__version__ = "0.1.0"

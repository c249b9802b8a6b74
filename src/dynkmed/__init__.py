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
    PowerOverflowError,
    points_from_array,
)
from .dynamic import (
    ClusteringState,
    DynamicParams,
    Layer,
    preprocess,
)
from .solver import (
    Solution,
    WeightedInstance,
    cost_set,
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
    "ClusteringState",
    "ConfigError",
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
    "PowerOverflowError",
    "Solution",
    "SyntheticSpec",
    "WeightedInstance",
    "cost_set",
    "emit_metrics",
    "load_dataset",
    "points_from_array",
    "preprocess",
    "query",
    "run_experiment",
    "sliding_window_stream",
    "synthetic_points",
    "weighted_solve",
]

__version__ = "0.1.0"

import argparse
import csv
import dataclasses
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dynkmed import (
    ClusteringState,
    ConfigError,
    DatasetError,
    DistanceOracle,
    DynamicParams,
    ExperimentConfig,
    MetricsRow,
    PowerOverflowError,
    SyntheticSpec,
    WeightedInstance,
    emit_metrics,
    load_dataset,
    points_from_array,
    query,
    run_experiment,
    sliding_window_stream,
    synthetic_points,
    weighted_solve,
)
from dynkmed import bench, cli, solver
from dynkmed.bench import CSV_HEADER
from dynkmed.cli import build_parser, main as cli_main


def small_config(tmp_path, **overrides):
    base = dict(
        window=40,
        k=3,
        phi=10,
        synthetic=SyntheticSpec(components=3, dim=2, count=120),
        queries=8,
        seed=5,
        offset_mode="inv-n",
        out=str(tmp_path / "metrics.csv"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- dataset ingestion --------------------------------------------------------


def test_load_dataset_comma_and_limit(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("0,0\n1,0\n0,1\n")
    pts = load_dataset(path, limit=2)
    assert len(pts) == 2
    assert [p.id for p in pts] == [0, 1]
    assert pts[0].dim == 2


@pytest.mark.parametrize("limit", [0, -3])
def test_load_dataset_rejects_a_limit_below_one(tmp_path, limit):
    path = tmp_path / "points.csv"
    path.write_text("0,0\n1,0\n0,1\n")
    with pytest.raises(ConfigError, match=f"limit must be at least 1, got {limit}"):
        load_dataset(path, limit)
    assert len(load_dataset(path, 1)) == 1


def test_load_dataset_whitespace_and_full_read(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("0 0 0\n1 2 3\n\n4 5 6\n")
    pts = load_dataset(path, limit=99)
    assert len(pts) == 3
    assert pts[2].coords.tolist() == [4.0, 5.0, 6.0]


@pytest.mark.parametrize("text, line", [("1,2\n3,oops\n", "line 2"), (",\n, ,\n", "line 1")])
def test_load_dataset_malformed_row_reports_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DatasetError, match=line):
        load_dataset(path)


def test_load_dataset_dimension_drift_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_load_dataset_non_finite_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nnan,3\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(DatasetError):
        load_dataset(path)


# -- stream generation --------------------------------------------------------


def test_sliding_window_stream_unrolled_example():
    assert sliding_window_stream(3, 2) == [
        ("insert", 0),
        ("insert", 1),
        ("insert", 2),
        ("delete", 0),
        ("delete", 1),
        ("delete", 2),
    ]


def test_sliding_window_stream_wide_window():
    updates = sliding_window_stream(4, 10)
    assert updates[:4] == [("insert", i) for i in range(4)]
    assert updates[4:] == [("delete", i) for i in range(4)]


def test_sliding_window_stream_counts_and_live_bound():
    n, window = 50, 7
    updates = sliding_window_stream(n, window)
    assert len(updates) == 2 * n
    inserted = [i for op, i in updates if op == "insert"]
    deleted = [i for op, i in updates if op == "delete"]
    assert sorted(inserted) == list(range(n)) == sorted(deleted)
    live = set()
    step_sizes = []
    position = 0
    for step in range(n + window):
        if step < n:
            live.add(step)
        gone = step - window
        if 0 <= gone < n:
            live.discard(gone)
        step_sizes.append(len(live))
    assert max(step_sizes) <= window


def _stream_by_every_step(n, window):
    """Reference stream: a walk over all n + window steps."""
    updates = []
    for step in range(n + window):
        if step < n:
            updates.append(("insert", step))
        gone = step - window
        if 0 <= gone < n:
            updates.append(("delete", gone))
    return updates


def test_sliding_window_stream_matches_the_walk_over_every_step():
    for n in range(13):
        for window in range(1, 16):
            assert sliding_window_stream(n, window) == _stream_by_every_step(n, window), (n, window)


def test_sliding_window_stream_a_window_far_above_n_finishes():
    assert sliding_window_stream(3, 10**21) == sliding_window_stream(3, 3)


def test_synthetic_points_deterministic():
    spec = SyntheticSpec(components=4, dim=3, count=25)
    a = synthetic_points(spec, 7)
    b = synthetic_points(spec, 7)
    assert all(np.array_equal(x.coords, y.coords) for x, y in zip(a, b))
    c = synthetic_points(spec, 8)
    assert not all(np.array_equal(x.coords, y.coords) for x, y in zip(a, c))


# -- metrics emission ---------------------------------------------------------


def test_emit_metrics_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_metrics([], path)
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"


def test_emit_metrics_insert_row_blank_cost(tmp_path):
    path = tmp_path / "one.csv"
    emit_metrics([MetricsRow(1, "insert", 123, 0, 2, 10)], path)
    lines = path.read_text().splitlines()
    assert lines[1] == "1,insert,123,0,2,10,,"


# -- experiment runs ----------------------------------------------------------


def test_run_experiment_no_queries(tmp_path):
    config = small_config(tmp_path, queries=0)
    result = run_experiment(config)
    assert all(r.op in ("insert", "delete") for r in result.rows)
    assert len(result.rows) == 240
    assert result.violations == []
    assert result.summary["per_op"]["query"]["rows"] == 0


def test_run_experiment_with_queries_and_baseline(tmp_path):
    config = small_config(tmp_path, baseline_every=1)
    result = run_experiment(config)
    ops = [r.op for r in result.rows]
    n_queries = ops.count("query")
    assert n_queries == ops.count("baseline")
    # final query lands after the last delete, on an empty set: skipped
    assert n_queries + result.summary["queries_skipped_empty"] == config.queries
    assert result.violations == []
    for row in result.rows:
        if row.op in ("query", "baseline"):
            assert row.solution_cost is not None and row.solution_cost >= 0.0
            assert row.centers <= config.k or row.op == "baseline"
        else:
            assert row.solution_cost is None
    csv_path = Path(config.out)
    assert csv_path.exists()
    with open(csv_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + len(result.rows)
    summary_path = csv_path.with_suffix(".summary.json")
    summary = json.loads(summary_path.read_text())
    assert summary["total_updates"] == 240
    assert summary["config"]["window"] == 40


def test_run_experiment_live_size_tracks_window(tmp_path):
    config = small_config(tmp_path, queries=0)
    result = run_experiment(config)
    for row in result.rows:
        assert row.n <= config.window + 1  # insert lands before the paired delete
    # after the stream drains every point is gone
    assert result.rows[-1].n == 0


def test_run_experiment_update_rows_count_distance_work(tmp_path):
    config = small_config(tmp_path, queries=4)
    result = run_experiment(config)
    total = sum(r.distance_evals_delta for r in result.rows)
    assert total == result.summary["total_distance_evals"]
    assert any(
        r.distance_evals_delta == 0 for r in result.rows if r.op in ("insert", "delete")
    )


def test_run_experiment_determinism_modulo_wall(tmp_path):
    config_a = small_config(tmp_path, out=str(tmp_path / "a.csv"), baseline_every=1)
    config_b = small_config(tmp_path, out=str(tmp_path / "b.csv"), baseline_every=1)
    run_experiment(config_a)
    run_experiment(config_b)

    def masked(path):
        with open(path) as handle:
            rows = list(csv.reader(handle))
        for row in rows[1:]:
            row[2] = "WALL"
        return rows

    assert masked(config_a.out) == masked(config_b.out)


def test_run_experiment_checks_integrity_once_per_update_index(tmp_path, monkeypatch):
    # with check_every=1 every update index is checked once, a query
    # point's under the "query point" prefix; each check reports one line
    checks = []
    check = bench.ClusteringState.integrity_check

    def counting(state):
        checks.append(state)
        return check(state) + ["counted"]

    monkeypatch.setattr(bench.ClusteringState, "integrity_check", counting)
    result = run_experiment(small_config(tmp_path, check_every=1))
    assert len(checks) == result.summary["total_updates"] == 240
    prefixes = [line.split(":")[0].rsplit(" ", 1)[0] for line in result.violations]
    assert len(result.violations) == 240
    assert prefixes.count("query point") == 8 and prefixes.count("update") == 232


def test_run_experiment_rejects_more_queries_than_updates(tmp_path):
    # 3 points through a window of 1 make 6 updates; 50 queries cannot all land
    config = small_config(
        tmp_path, window=1, synthetic=SyntheticSpec(2, 2, 3), queries=50
    )
    with pytest.raises(ConfigError, match="50 queries"):
        run_experiment(config)
    result = run_experiment(
        small_config(tmp_path, window=1, synthetic=SyntheticSpec(2, 2, 3), queries=6)
    )
    ran = result.summary["per_op"]["query"]["rows"]
    assert ran + result.summary["queries_skipped_empty"] == 6


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(window=0, k=1, phi=1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(window=1, k=1, phi=1).validate()  # no data source
    cfg = ExperimentConfig(
        window=10,
        k=1,
        phi=1,
        synthetic=SyntheticSpec(1, 1, 20),
        limit=5,
    )
    with pytest.raises(ConfigError):
        cfg.validate()  # limit below window
    bad_offset = ExperimentConfig(
        window=2, k=1, phi=1, synthetic=SyntheticSpec(1, 1, 4), offset_mode="zzz"
    )
    with pytest.raises(ConfigError):
        bad_offset.validate()


def test_sizes_must_be_integers(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("0,0\n1,0\n0,1\n1,1\n")
    base = dict(window=2, k=1, phi=1, dataset=str(path), queries=1)
    for field, value, message in (
        ("window", 2.5, "window must be an integer, got 2.5"),
        ("window", True, "window must be an integer, got True"),
        ("queries", 1.5, "query count must be an integer, got 1.5"),
        ("queries", -1, "query count must be at least 0"),
        ("check_every", 1.5, "check_every must be an integer, got 1.5"),
        ("check_every", -1, "check_every must be at least 0"),
        ("baseline_every", 2.5, "baseline period must be an integer, got 2.5"),
        ("limit", 3.5, "limit must be an integer, got 3.5"),
    ):
        config = ExperimentConfig(**{**base, field: value})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config.validate()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_experiment(config)
    assert run_experiment(ExperimentConfig(**base)).summary["total_updates"] == 8
    with pytest.raises(ConfigError, match=r"^limit must be an integer, got 2\.5$"):
        load_dataset(path, 2.5)
    with pytest.raises(ConfigError, match=r"^limit must be an integer, got '2'$"):
        load_dataset(path, "2")
    with pytest.raises(ConfigError, match=r"^synthetic spec components must be an integer, got 2\.5$"):
        SyntheticSpec(2.5, 3, 10)
    with pytest.raises(ConfigError, match=r"^synthetic spec components must be an integer, got True$"):
        SyntheticSpec(True, 1, 3)


def test_offset_mode_inv_n(tmp_path):
    config = small_config(tmp_path, queries=0, offset_mode="inv-n")
    result = run_experiment(config)
    assert result.summary["distance_offset"] == pytest.approx(1.0 / 120)
    config = small_config(tmp_path, queries=0, offset_mode="none")
    result = run_experiment(config)
    assert result.summary["distance_offset"] == 0.0


def test_shuffle_seed_changes_order_deterministically(tmp_path):
    a = run_experiment(small_config(tmp_path, queries=2, shuffle_seed=1))
    b = run_experiment(small_config(tmp_path, queries=2, shuffle_seed=1))
    c = run_experiment(small_config(tmp_path, queries=2, shuffle_seed=2))
    costs = lambda r: [row.solution_cost for row in r.rows if row.op == "query"]
    assert costs(a) == costs(b)
    assert costs(a) != costs(c)


def test_amortization_visible_across_window_doublings(tmp_path):
    # mean distance evaluations per update grow sublinearly in the window
    def mean_evals(window):
        config = ExperimentConfig(
            window=window,
            k=5,
            phi=50,
            synthetic=SyntheticSpec(components=6, dim=3, count=2 * window),
            queries=0,
            seed=3,
        )
        result = run_experiment(config)
        return result.summary["total_distance_evals"] / result.summary["total_updates"]

    at_500, at_1000, at_2000 = mean_evals(500), mean_evals(1000), mean_evals(2000)
    assert at_1000 <= 2.0 * at_500
    assert at_2000 <= 2.0 * at_1000


def test_baseline_sanity_against_brute_force(tmp_path):
    from oracles import brute_force_opt_weighted, unit_instance

    config = ExperimentConfig(
        window=12,
        k=2,
        phi=3,
        synthetic=SyntheticSpec(components=2, dim=2, count=30),
        queries=6,
        seed=9,
        baseline_every=1,
    )
    result = run_experiment(config)
    points = synthetic_points(config.synthetic, config.seed)
    oracle_offset = 1.0 / len(points)

    # replay the stream to recover the live set at each query point
    from dynkmed import DistanceOracle

    updates = sliding_window_stream(len(points), config.window)
    live = set()
    live_at = {}
    for index, (op, pos) in enumerate(updates, start=1):
        if op == "insert":
            live.add(pos)
        else:
            live.discard(pos)
        live_at[index] = set(live)

    oracle = DistanceOracle(offset=oracle_offset)
    checked = 0
    for row in result.rows:
        if row.op != "baseline":
            continue
        members = [points[i] for i in sorted(live_at[row.update_index])]
        if len(members) <= config.k:
            continue
        opt = brute_force_opt_weighted(unit_instance(members), config.k, config.p, oracle).cost
        assert row.solution_cost >= opt - 1e-9
        # generous calibrated band: the static pipeline plus the local-search
        # guarantee keeps the baseline within a small multiple of optimal
        assert row.solution_cost <= 12.0 * opt
        checked += 1
    assert checked >= 4


# -- command line -------------------------------------------------------------


def test_cli_happy_path(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli_main(
        [
            "--synthetic", "g:3:2:100",
            "--window", "30",
            "--k", "3",
            "--phi", "8",
            "--queries", "5",
            "--baseline", "static:1",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["updates"] == 200
    assert printed["violations"] == 0


def test_cli_a_window_far_above_the_point_count_runs(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli_main(
        [
            "--synthetic", "g:3:2:300",
            "--window", "1000000000000000000000",
            "--k", "3",
            "--phi", "10",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["updates"] == 600


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = cli_main(
        ["--synthetic", "bogus", "--window", "5", "--k", "1", "--phi", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert capsys.readouterr().err == ("config error: argument --synthetic: synthetic spec "
                                       "must look like g:<components>:<dim>:<count>\n")
    code = cli_main(
        ["--synthetic", "g:1:1:50", "--window", "0", "--k", "1", "--phi", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    for extra, message in (
        (["--baseline", "static:0"], "baseline period must be at least 1"),
        (["--k", "0"], "k must be at least 1"),
        (["--p", "nan"], "power must be finite and at least 1, got nan"),
        (["--p", "inf"], "power must be finite and at least 1, got inf"),
        (["--seed", "-1"], "seed must be at least 0"),
        (["--shuffle-seed", "-2"], "shuffle seed must be at least 0"),
        # the spec parsers' errors name their option; the last --synthetic wins
        (["--synthetic", "g:1:x:5"], "argument --synthetic: synthetic spec fields must be integers"),
        (["--synthetic", "g:0:1:5"],
         "argument --synthetic: synthetic spec components must be at least 1"),
        (["--baseline", "static:x"], "argument --baseline: baseline period must be an integer"),
        (["--baseline", "sometimes"], "argument --baseline: baseline must be 'none' or 'static:<q>'"),
    ):
        capsys.readouterr()
        code = cli_main(
            ["--synthetic", "g:1:1:50", "--window", "5", "--k", "1", "--phi", "1",
             "--out", str(tmp_path / "x.csv"), *extra]
        )
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    # argparse's own usage errors exit 1 too, not with its status 2
    valid = ["--synthetic", "g:1:1:50", "--window", "5", "--k", "1", "--phi", "1",
             "--out", str(tmp_path / "x.csv")]
    for argv, message in (
        (["--k", "3"], "the following arguments are required: --window, --phi, --out"),
        ([*valid, "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([*valid, "--k", "x"], "argument --k: invalid int value: 'x'"),
    ):
        capsys.readouterr()
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_options_are_config_fields_and_set_no_defaults():
    # an omitted option takes the ExperimentConfig field's default
    parser = build_parser()
    required = ["--synthetic", "g:1:1:50", "--window", "5", "--k", "1", "--phi", "1", "--out", "x.csv"]
    args = parser.parse_args(required)
    assert ExperimentConfig(**vars(args)) == ExperimentConfig(
        synthetic=SyntheticSpec(1, 1, 50), window=5, k=1, phi=1, out="x.csv"
    )
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    options = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
    assert {a.dest for a in options} == fields
    assert all(a.default is argparse.SUPPRESS for a in options)
    args = parser.parse_args([*required, "--offset", "none", "--baseline", "static:4"])
    assert (args.offset_mode, args.baseline_every) == ("none", 4)


# Each contract file in DATA and the overrides of its run.
DATA = Path(__file__).parent / "data"
CONTRACTS = [("contract_p1", {}), ("contract_p2", {"p": 2.0, "offset_mode": "none"})]


def contract_run(name: str, overrides: dict) -> tuple[list[MetricsRow], list[dict]]:
    """The criterion-8 run with ``overrides``, and the rows recorded in
    ``DATA / f"{name}.csv"``."""
    fields = dict(
        window=120,
        k=5,
        phi=30,
        synthetic=SyntheticSpec(components=4, dim=3, count=400),
        queries=20,
        seed=7,
        offset_mode="inv-n",
        baseline_every=1,
    )
    fields.update(overrides)
    rows = run_experiment(ExperimentConfig(**fields)).rows
    with open(DATA / f"{name}.csv") as handle:
        return rows, list(csv.DictReader(handle))


@pytest.mark.parametrize("name, overrides", CONTRACTS)
def test_metrics_contract(name, overrides):
    """The criterion-8 run, row for row, against the rows recorded from the
    engine: op, evaluation delta, t, n and center count exactly, costs to
    1e-9 relative. A mismatch is a behaviour change; re-record a file only
    when the change is deliberate, with :func:`rerecord_contract`
    (``PYTHONPATH=src python tests/test_bench.py NAME``)."""
    rows, expected = contract_run(name, overrides)
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert (
            row.update_index, row.op, row.distance_evals_delta, row.t, row.n
        ) == (
            int(want["update_index"]), want["op"], int(want["distance_evals_delta"]),
            int(want["t"]), int(want["n"]),
        )
        if want["solution_cost"]:
            assert row.solution_cost == pytest.approx(float(want["solution_cost"]), rel=1e-9)
            assert row.centers == int(want["centers"])
        else:
            assert row.solution_cost is None and row.centers is None


def rerecord_contract(name: str, overrides: dict, out: Path | None = None) -> None:
    """Rewrite the contract file ``name`` (or write ``out``) from a fresh run,
    without ``wall_nanos``. Every column the test compares exactly is the
    run's; a recorded ``solution_cost`` is kept where the run's matches it to
    1e-9 relative, because the last digits of a cost depend on the BLAS build."""
    rows, recorded = contract_run(name, overrides)
    with open(out or DATA / f"{name}.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([c for c in CSV_HEADER if c != "wall_nanos"])
        for i, row in enumerate(rows):
            cells = {key: value for key, value in vars(row).items() if key != "wall_nanos"}
            old = recorded[i] if i < len(recorded) else {}
            if (row.solution_cost is not None and old.get("solution_cost")
                    and old["update_index"] == str(row.update_index)
                    and row.solution_cost == pytest.approx(float(old["solution_cost"]), rel=1e-9)):
                cells["solution_cost"] = old["solution_cost"]
            writer.writerow(cells.values())


@pytest.mark.parametrize("name, overrides", CONTRACTS)
def test_rerecording_a_contract_file_whose_run_is_unchanged_rewrites_nothing(name, overrides, tmp_path):
    out = tmp_path / f"{name}.csv"
    rerecord_contract(name, overrides, out)
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def test_cli_ingestion_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = cli_main(
        ["--dataset", str(missing), "--window", "5", "--k", "1", "--phi", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nx,y\n")
    code = cli_main(
        ["--dataset", str(bad), "--window", "2", "--k", "1", "--phi", "1",
         "--queries", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    non_finite = tmp_path / "nan.csv"
    non_finite.write_text("1,2\nnan,3\n")
    code = cli_main(
        ["--dataset", str(non_finite), "--window", "2", "--k", "1", "--phi", "1",
         "--queries", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_a_dataset_that_is_not_utf8_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"1,2\n3,\xff4\n5,6\n")
    code = cli_main(
        ["--dataset", str(bad), "--window", "2", "--k", "1", "--phi", "1",
         "--queries", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err == f"ingestion error: {bad}: malformed row at line 2\n"


def test_cli_a_beta_that_rounds_the_shrink_factor_to_one_is_a_config_error(tmp_path, capsys):
    # 1 - 1e-300 * 0.8 is 1.0 in floating point: no layer would have to shrink
    with pytest.raises(ValueError, match="round the shrink factor to 1.0"):
        DynamicParams(k=1, phi=1, beta=1e-300)
    assert DynamicParams(k=1, phi=1, beta=1e-16).shrink_factor < 1.0
    code = cli_main(
        ["--synthetic", "g:2:2:50", "--window", "5", "--k", "1", "--phi", "1",
         "--beta", "1e-300", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: beta 1e-300 and epsilon 0.2 round the shrink factor to 1.0\n")


def test_cli_too_many_queries_is_config_error(tmp_path, capsys):
    code = cli_main(
        ["--synthetic", "g:2:2:3", "--window", "1", "--k", "1", "--phi", "1",
         "--queries", "50", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_an_out_path_it_cannot_write_is_a_config_error_before_the_run(tmp_path, capsys, monkeypatch):
    # refused by validation, before a point is made, not after the whole stream
    monkeypatch.setattr(bench, "synthetic_points", lambda *args: pytest.fail("points were made"))
    (tmp_path / "dir").mkdir()
    for out in (tmp_path / "missing" / "x.csv", tmp_path / "dir"):
        code = cli_main(["--synthetic", "g:2:2:50", "--window", "5", "--k", "1", "--phi", "1",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: out path {str(out)!r} is a directory or its directory does not exist\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_a_synthetic_size_numpy_cannot_index_is_a_config_error(tmp_path, capsys, monkeypatch):
    # validation alone: a spec that got past it would reach the generator,
    # which fails the test here instead of asking numpy for the array
    monkeypatch.setattr(bench, "synthetic_points", lambda *args: pytest.fail("an array was sized"))
    top = np.iinfo(np.intp).max
    for fields, name in (
        ((3, 2, 10**21), "count"),
        ((3, 2, top // 2 + 1), "count"),         # count fits, count times dim does not
        ((1, 1, top + 1), "count"),
        ((top + 1, 1, 5), "components"),
        ((2, top, 1), "components"),
    ):
        with pytest.raises(ConfigError, match=f"^synthetic spec {name} times dim exceeds {top}$"):
            SyntheticSpec(*fields)
    for fields in ((3, 2, top // 2), (1, top, 1)):  # the largest sizes numpy can index
        assert dataclasses.astuple(SyntheticSpec(*fields)) == fields
    code = cli_main(["--synthetic", "g:3:2:1000000000000000000000", "--window", "50", "--k", "3",
                     "--phi", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"config error: argument --synthetic: synthetic spec count times dim exceeds {top}\n")


def test_cli_an_overflow_of_d_to_the_p_is_one_line_and_exits_4(tmp_path, capsys, monkeypatch):
    argv = ["--synthetic", "g:3:2:300", "--window", "50", "--k", "3", "--phi", "10",
            "--out", str(tmp_path / "x.csv")]
    assert cli_main([*argv, "--p", "400"]) == 4
    assert capsys.readouterr().err == "overflow error: distances to the power 400.0 overflow float64\n"
    # seeding masses that overflow are the same error
    inst = WeightedInstance(np.arange(3), np.array([[0.0], [5e153], [1e154]]), np.full(3, 100))
    with pytest.raises(PowerOverflowError, match="^seeding masses"):
        weighted_solve(inst, 2, 2.0, 0)
    # any other ValueError out of the run still propagates
    def fail(config):
        raise ValueError("not an overflow")
    monkeypatch.setattr(cli, "run_experiment", fail)
    with pytest.raises(ValueError, match="^not an overflow$"):
        cli_main(argv)


def test_cli_a_failed_allocation_is_one_line_and_exits_5(tmp_path, capsys, monkeypatch):
    # the query's m x m Gram stands in for any allocation numpy refuses
    def refuse(coords, oracle):
        m = coords.shape[0]
        raise MemoryError(f"Unable to allocate {8 * m * m} bytes for an array with shape ({m}, {m})")

    monkeypatch.setattr(solver, "_instance_gram", refuse)
    code = cli_main(["--synthetic", "g:3:2:300", "--window", "50", "--k", "3", "--phi", "10",
                     "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("memory error: Unable to allocate ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_coordinates_that_overflow_the_kernel_are_one_line_and_exit_4(tmp_path, capsys):
    # the row (1e300, 0) reaches the Euclidean kernel once a rebuild covers it
    rows = [f"{i % 17} {i // 17}" for i in range(300)]
    rows[150] = "1e300 0"
    data = tmp_path / "bad.txt"
    data.write_text("\n".join(rows) + "\n")
    code = cli_main(["--dataset", str(data), "--window", "50", "--k", "3", "--phi", "10",
                     "--queries", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err == (
        "overflow error: coordinates overflow float64 in the Euclidean kernel: "
        "2 * (max|a-mu|^2 + max|b-mu|^2) is not finite\n")
    far = np.array([[1e300, 0.0], [0.0, 0.0]])
    with pytest.raises(PowerOverflowError, match="^coordinates overflow float64 in the Euclidean kernel$"):
        DistanceOracle().elementwise(far, far[::-1])


def test_cli_exits_3_printing_the_first_20_violations_and_counting_them_all(tmp_path, capsys, monkeypatch):
    checks = []

    def planted(self):
        checks.append(self)
        return ["planted"]

    monkeypatch.setattr(ClusteringState, "integrity_check", planted)
    code = cli_main(["--synthetic", "g:3:2:100", "--window", "30", "--k", "3", "--phi", "8",
                     "--queries", "25", "--check-every", "50", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 20
    assert all(re.fullmatch(r"invariant violation: (query point|update) \d+: planted", line) for line in lines)
    assert json.loads(out.strip().splitlines()[-1])["violations"] == len(checks) > 25


def test_cli_baseline_none_writes_no_baseline_rows(tmp_path, capsys):
    argv = ["--synthetic", "g:3:2:100", "--window", "30", "--k", "3", "--phi", "8",
            "--queries", "5", "--baseline", "none", "--out", str(tmp_path / "m.csv")]
    assert build_parser().parse_args(argv).baseline_every is None
    assert cli_main(argv) == 0
    with open(tmp_path / "m.csv", newline="") as f:
        ops = Counter(row["op"] for row in csv.DictReader(f))
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert ops["query"] == printed["queries"] > 0 and ops["baseline"] == 0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: query(ClusteringState(DynamicParams(k=1, phi=1)), 1, 1.0),
                 "state is empty", id="query-empty-state"),
    pytest.param(lambda: sliding_window_stream(5, 0), "window must be at least 1", id="window-0"),
    pytest.param(lambda: points_from_array(np.zeros(3)), "expected a 2-D array of row vectors",
                 id="1-d-array"),
    pytest.param(lambda: DistanceOracle().matrix_between(np.zeros((2, 3)),
                                                         DistanceOracle().prepare(np.zeros((2, 4)))),
                 "coordinate blocks must be 2-D with equal dimension", id="unequal-dimensions"),
    pytest.param(lambda: DistanceOracle().matrix_between(np.zeros((2, 3)), np.zeros((2, 3))),
                 "matrix_between reads b as made by DistanceOracle.prepare(b)", id="unprepared-block"),
    pytest.param(lambda: DistanceOracle().prepare(np.zeros(3)),
                 "coordinate blocks must be 2-D with equal dimension", id="prepare-1-d-block"),
])
def test_inputs_the_cli_never_passes_are_rejected_by_the_api(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_bench.py [NAME ...]: re-record the
    # named contract files (all of them by default)
    for name, overrides in CONTRACTS:
        if name in sys.argv[1:] or len(sys.argv) == 1:
            rerecord_contract(name, overrides)


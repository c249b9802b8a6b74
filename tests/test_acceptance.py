"""Acceptance suite: one test per criterion, gates pinned up front.

Each test prints one PASS/FAIL line with the measured numbers. Run with
``pytest -v -s tests/test_acceptance.py``; the whole module takes a few
minutes, dominated by the invariant sweep and the protocol-scale run.
"""
import math
import statistics

import numpy as np
import pytest

import dynkmed as dk
from dynkmed import (
    DistanceOracle,
    DynamicParams,
    ExperimentConfig,
    SyntheticSpec,
    points_from_array,
    preprocess,
    query,
    run_experiment,
    sliding_window_stream,
    synthetic_points,
)
from oracles import (
    brute_force_coverage_radius,
    brute_force_opt_weighted,
    cost_assignment,
    cost_weighted,
    relaxed_triangle_ok,
    unit_instance,
)

BETA = 0.5
EPSILON = 0.2
GAMMA = 0.6
GAMMA_STAR = GAMMA * (1.0 + 2.0 * EPSILON)          # 0.84
BETA_STAR = BETA * (1.0 - EPSILON)                  # 0.4
R_STRETCH = math.ceil(math.log((1.0 - GAMMA_STAR) / 3.0) / math.log(1.0 - BETA_STAR))
ASSIGN_CONST = 16.0 * R_STRETCH / (1.0 - GAMMA_STAR)  # 600 for these parameters


def report(number: int, label: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def micro_instance(seed: int):
    """Shared family for criteria 2, 3, and 6: tiny uniform instances with a
    forced multi-layer build (phi=3 against 8..14 points)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 15))
    k = 2 if seed % 2 == 0 else 3
    pts = points_from_array(rng.uniform(0, 4, size=(n, 2)))
    params = DynamicParams(
        k=k, phi=3, last_layer_threshold=3, beta=BETA, epsilon=EPSILON, seed=seed
    )
    return pts, k, preprocess(pts, params)


def test_criterion_1_invariant_suite():
    # 20 seeded sliding-window runs, integrity checked after every update
    n, window = 2000, 500
    failures = []
    checks = 0
    for seed in range(5):
        for k, phi in [(5, 50), (5, 200), (25, 50), (25, 200)]:
            pts = synthetic_points(SyntheticSpec(8, 3, n), seed * 37)
            oracle = DistanceOracle(offset=1.0 / n)
            state = dk.ClusteringState(DynamicParams(k=k, phi=phi, seed=seed * 37 + 1), oracle)
            for op, pos in sliding_window_stream(n, window):
                if op == "insert":
                    state.insert(pts[pos])
                else:
                    state.delete(pts[pos].id)
                bad = state.integrity_check()
                checks += 1
                if bad:
                    failures.append((seed, k, phi, bad[:2]))
                    break
    ok = report(
        1,
        "invariant-suite",
        not failures,
        f"{checks} per-update checks over 20 runs, {len(failures)} failing runs",
    )
    assert ok, failures


def test_criterion_2_oracle_approximation():
    assert ASSIGN_CONST == pytest.approx(600.0)
    ratios = []
    over_theory = 0
    for seed in range(100):
        pts, k, state = micro_instance(seed)
        opt = brute_force_opt_weighted(unit_instance(pts), k, 1.0, state.oracle).cost
        assert opt > 0.0
        ratio = cost_assignment(state.assignment(), pts, 1.0, state.oracle) / opt
        ratios.append(ratio)
        if ratio > ASSIGN_CONST * (1.0 + 1e-9):
            over_theory += 1
    median = statistics.median(ratios)
    ok = report(
        2,
        "oracle-approximation",
        over_theory == 0 and median <= 3.0,
        f"theory violations {over_theory}/100 at constant {ASSIGN_CONST:.0f}, "
        f"median ratio {median:.3f} (gate 3.0), max {max(ratios):.3f}",
    )
    assert ok


def test_criterion_3_extraction_bound():
    fails = 0
    worst = 0.0
    for seed in range(100):
        pts, k, state = micro_instance(seed)
        oracle = state.oracle
        opt = brute_force_opt_weighted(unit_instance(pts), k, 1.0, oracle).cost
        phi_hat = cost_assignment(state.assignment(), pts, 1.0, oracle) / opt
        instance = state.weighted_instance()
        answer = query(state, k, 1.0, seed=seed)
        opt_w = brute_force_opt_weighted(instance, k, 1.0, oracle).cost
        got_w = cost_weighted(answer.centers, instance, 1.0, oracle)
        psi_hat = got_w / opt_w if opt_w > 0.0 else 1.0
        bound = (phi_hat + 2.0 * (1.0 + phi_hat) * psi_hat) * opt
        worst = max(worst, answer.cost / bound if bound > 0 else 0.0)
        if answer.cost > bound * (1.0 + 1e-9):
            fails += 1
    ok = report(
        3,
        "extraction-bound",
        fails == 0,
        f"{fails}/100 over measured (phi + 2(1+phi)psi) bound, worst fill {worst:.3f}",
    )
    assert ok


def test_criterion_4_radius_vs_best_coverage():
    holds = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(11, 15))  # <= 14, above the threshold of 8
        pts = points_from_array(rng.uniform(0, 4, size=(n, 2)))
        params = DynamicParams(
            k=2, phi=8, last_layer_threshold=8, beta=BETA, epsilon=EPSILON, seed=seed
        )
        state = preprocess(pts, params)
        good = True
        for i, layer in enumerate(state.layers[:-1], start=1):
            members = [state.store.get(pid) for pid in sorted(state.members(i))]
            best = brute_force_coverage_radius(members, 2, GAMMA_STAR, state.oracle)
            if layer.radius > 4.0 * best + 1e-9:
                good = False
        holds += good
    rate = holds / trials
    ok = report(
        4,
        "radius-vs-best-coverage",
        rate >= 0.95,
        f"4x bound held on {holds}/{trials} trials ({rate:.1%}, gate 95%)",
    )
    assert ok


def test_criterion_5_amortized_scaling():
    def mean_evals(window, phi, n):
        config = ExperimentConfig(
            window=window,
            k=10,
            phi=phi,
            synthetic=SyntheticSpec(components=8, dim=4, count=n),
            queries=0,
            seed=0,
            offset_mode="inv-n",
        )
        result = run_experiment(config)
        assert result.violations == []
        return result.summary["total_distance_evals"] / result.summary["total_updates"]

    base = mean_evals(1000, 100, 2000)
    wide = mean_evals(2000, 100, 4000)
    dense = mean_evals(1000, 200, 2000)
    window_ratio = wide / base
    phi_ratio = dense / base
    ok = report(
        5,
        "amortized-scaling",
        window_ratio <= 2.0 and phi_ratio <= 2.5,
        f"double window ratio {window_ratio:.3f} (gate 2.0), "
        f"double phi ratio {phi_ratio:.3f} (gate 2.5)",
    )
    assert ok


def test_criterion_6_powered_distance_generalization():
    # relaxed triangle inequality on 10^4 random triples for p in {1, 2, 3}
    rng = np.random.default_rng(99)
    pts = points_from_array(rng.normal(0, 3, size=(300, 4)))
    oracle = DistanceOracle(offset=0.01)
    idx = rng.integers(0, len(pts), size=(10_000, 3))
    triples = [(pts[a], pts[b], pts[c]) for a, b, c in idx]
    triangle_ok = all(relaxed_triangle_ok(oracle, triples, p) for p in (1.0, 2.0, 3.0))

    # p = 2 bounds with rho = 2^(p-1) = 2 against a p = 2 brute-force oracle
    rho = 2.0
    assign_const = ASSIGN_CONST * rho**3
    assign_fails = 0
    extract_fails = 0
    for seed in range(100):
        pts2, k, state = micro_instance(seed)
        oracle2 = state.oracle
        opt2 = brute_force_opt_weighted(unit_instance(pts2), k, 2.0, oracle2).cost
        assert opt2 > 0.0
        cassign = cost_assignment(state.assignment(), pts2, 2.0, oracle2)
        if cassign > assign_const * opt2 * (1.0 + 1e-9):
            assign_fails += 1
        phi_hat = cassign / opt2
        instance = state.weighted_instance()
        answer = query(state, k, 2.0, seed=seed)
        opt_w = brute_force_opt_weighted(instance, k, 2.0, oracle2).cost
        got_w = cost_weighted(answer.centers, instance, 2.0, oracle2)
        psi_hat = got_w / opt_w if opt_w > 0.0 else 1.0
        bound = (phi_hat * rho + 2.0 * (1.0 + phi_hat) * psi_hat * rho**3) * opt2
        if answer.cost > bound * (1.0 + 1e-9):
            extract_fails += 1
    ok = report(
        6,
        "powered-distance",
        triangle_ok and assign_fails == 0 and extract_fails == 0,
        f"triangle {'ok' if triangle_ok else 'BROKEN'}, assignment fails "
        f"{assign_fails}/100 at constant {assign_const:.0f}, extraction fails "
        f"{extract_fails}/100",
    )
    assert ok


def test_criterion_7_protocol_reproduction():
    config = ExperimentConfig(
        window=2000,
        k=50,
        phi=500,
        synthetic=SyntheticSpec(components=10, dim=5, count=10_000),
        queries=100,
        seed=2024,
        offset_mode="inv-n",
        baseline_every=1,
        beta=BETA,
        epsilon=EPSILON,
    )
    result = run_experiment(config)
    dynamic = [r.solution_cost for r in result.rows if r.op == "query"]
    baseline = [r.solution_cost for r in result.rows if r.op == "baseline"]
    ratios = [d / b for d, b in zip(dynamic, baseline) if b > 0]
    median = statistics.median(ratios)
    ok = report(
        7,
        "protocol-reproduction",
        not result.violations and median <= 1.5 and len(dynamic) >= 90,
        f"{len(dynamic)} queries, {len(result.violations)} violations, "
        f"median cost ratio {median:.4f} (gate 1.5), max {max(ratios):.4f}",
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    def run(tag):
        out = tmp_path / f"{tag}.csv"
        config = ExperimentConfig(
            window=120,
            k=5,
            phi=30,
            synthetic=SyntheticSpec(components=4, dim=3, count=400),
            queries=20,
            seed=7,
            offset_mode="inv-n",
            baseline_every=1,
            out=str(out),
        )
        run_experiment(config)
        return out

    def masked_bytes(path):
        lines = path.read_text().splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            fields = line.split(",")
            fields[2] = "WALL"
            out.append(",".join(fields))
        return "\n".join(out).encode()

    a = masked_bytes(run("a"))
    b = masked_bytes(run("b"))
    ok = report(
        8,
        "determinism",
        a == b,
        f"{len(a)} masked bytes compared, identical={a == b}",
    )
    assert ok

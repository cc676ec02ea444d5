"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import os
import time

import numpy as np
import pytest

from nslp import (BsfExecutor, Cross, DenseLP, DriftSpec, Marker, NonStationaryLP, Order,
                  ScenarioModel, TargetingConfig, cohort_markers,
                  delta_between, evaluate, fejer_step, marker_of, markers,
                  max_violation, model_n, model_n_optimum, order_to_bytes, point_of,
                  process_cohorts, project_bruteforce, pseudo_project,
                  run_targeting, scalability_bound, scenario_params, snapshot,
                  solve_simplex, speedup)
from nslp.cost_model import CostParams
from nslp.quest import FejerConfig
from nslp.targeting import TargetingState


def _report(number: int, title: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed <= budget_s, f"criterion {number} exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number:2d} PASS  {title}  ({elapsed:.2f}s)")


def test_criterion_01_speedup_identity_at_one_worker():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        latency, ts, tr, tp = rng.uniform(0.0, 1e9, 4)
        tw = rng.uniform(1e-6, 1e12)
        params = CostParams(p_workers=1, latency_ns=latency, t_s_ns=ts,
                            t_r_ns=tr, t_p_ns=tp, t_w_ns=tw)
        assert speedup(params) == 1.0
    _report(1, "speedup(P=1) = 1 exactly, 1000 random parameter sets", t0, 1.0)


def test_criterion_02_scaling_law_slopes():
    t0 = time.perf_counter()
    ns = np.logspace(3, 6, 13)
    slopes = {}
    for mode, want in (("full", 0.5), ("one-row", 1.0)):
        bounds = [scalability_bound(scenario_params(
            ScenarioModel(n=int(n), delta_mode=mode, latency_ns=0.0), 1)) for n in ns]
        slope = float(np.polyfit(np.log(ns), np.log(bounds), 1)[0])
        slopes[mode] = slope
        assert abs(slope - want) <= 0.05, (mode, slope)
    _report(2, f"log-log bound slopes {slopes['full']:.3f} (full) / "
               f"{slopes['one-row']:.3f} (one-row)", t0, 1.0)


def test_criterion_03_cross_geometry_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for n in range(2, 51):
        for k in range(2, 21, 2):
            spacing = 1.0 if (n + k) % 4 else 0.5  # dyadic: distances are exact
            center = np.round(rng.uniform(-4, 4, n) * 8) / 8.0
            cross = Cross(center=center, spacing=spacing, points_per_cohort=k)
            ms = markers(cross)
            assert len(ms) == n * k
            assert cross.total_points == n * k + 1
            assert len(set(ms)) == n * k
            for chi in (0, n // 2, n - 1):
                line = [point_of(cross, m) for m in cohort_markers(cross, chi)]
                seq = line[:k // 2] + [cross.center] + line[k // 2:]
                for a, b in zip(seq, seq[1:]):
                    assert float(np.linalg.norm(b - a)) == spacing
                for m in cohort_markers(cross, chi):
                    assert marker_of(cross, point_of(cross, m)) == m
    _report(3, "cross cardinality, bijection and exact spacing for "
               "n in [2,50], even K in [2,20]", t0, 5.0)


def test_criterion_04_hand_computed_targeting_step(unit_square):
    t0 = time.perf_counter()
    cross = Cross(center=np.array([0.5, 0.5]), spacing=0.25, points_per_cohort=4)
    bests = process_cohorts(unit_square, cross, [0, 1])
    assert np.array_equal(point_of(cross, Marker(0, bests[0].offset)), np.array([1.0, 0.5]))
    assert bests[0].value == 1.5
    assert np.array_equal(point_of(cross, Marker(1, bests[1].offset)), np.array([0.5, 1.0]))
    assert bests[1].value == 1.5
    state = evaluate(unit_square, TargetingState(cross=cross, clock=0), bests)
    assert np.array_equal(state.cross.center, np.array([0.75, 0.75]))
    assert state.moved and state.clock == 1
    _report(4, "unit-square cohort bests (1,.5), (.5,1) and centroid (.75,.75), exact",
            t0, 1.0)


def _box_instance(rng) -> tuple[DenseLP, np.ndarray, float]:
    """Random bounded LP: a box with geometrically decaying positive weights,
    so sum(c) < sqrt(n) * max(c) and the tracking bound is meaningful."""
    n = int(rng.integers(2, 9))
    u = rng.uniform(1.0, 5.0, n)
    c = np.empty(n)
    c[0] = rng.uniform(0.5, 1.5)
    for i in range(1, n):
        c[i] = c[i - 1] * rng.uniform(0.15, 0.33)
    lp = DenseLP(np.vstack([np.eye(n), -np.eye(n)]),
                 np.concatenate([u, np.zeros(n)]), c)
    return lp, u, float(c @ u)


def test_criterion_05_oracle_equivalence_stationary_tracking():
    t0 = time.perf_counter()
    s = 0.1
    rng = np.random.default_rng(2024)
    instances = []
    for n in range(2, 9):  # seven synthetic family members
        lp = model_n(n)
        x_star, value = model_n_optimum(n)
        instances.append((lp, x_star, value))
    for _ in range(13):  # thirteen random bounded boxes
        instances.append(_box_instance(rng))
    assert len(instances) == 20

    worst_margin = 0.0
    for lp, x_star, value in instances:
        ref = solve_simplex(lp)
        assert ref.status == "optimal"
        assert abs(ref.value - value) <= 1e-9
        # the tracker refines from inside the optimum's capture basin, as it
        # would when resuming after a drift step
        start = np.maximum(x_star - rng.uniform(0.0, 2 * s, lp.n), 0.0)
        problem = NonStationaryLP(base=lp)
        z = pseudo_project(problem, start).z
        cfg = TargetingConfig(points_per_cohort=8, spacing=s)
        trace = run_targeting(problem, z, cfg, 500, BsfExecutor())
        bound = s * math.sqrt(lp.n) * float(np.max(np.abs(lp.c)))
        gap = ref.value - trace.final.objective
        assert gap <= bound, (lp.n, gap, bound)
        worst_margin = max(worst_margin, gap / bound)
    _report(5, f"20 instances reach the simplex optimum within s*sqrt(n)*max|c| "
               f"(worst gap at {worst_margin:.0%} of bound)", t0, 30.0)


def test_criterion_06_fejer_properties(unit_square):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    # fixed point iff feasible
    for _ in range(10):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        lp = DenseLP(rng.normal(size=(m, n)), rng.uniform(0.5, 2.0, m), rng.normal(size=n))
        x = 3 * rng.normal(size=n)
        stepped = fejer_step(lp, x)
        assert (max_violation(lp, x) == 0.0) == np.array_equal(stepped, x)
    # monotone distance to sampled feasible points
    for lp in (model_n(3), model_n(6), unit_square):
        feas = []
        while len(feas) < 10:
            y = rng.uniform(0.0, 1.0, lp.n)
            if max_violation(lp, y) == 0.0:
                feas.append(y)
        x = rng.uniform(-100.0, 300.0, lp.n)
        for _ in range(80):
            # strictness is only checkable while the decrease exceeds one ulp
            clearly_infeasible = max_violation(lp, x) > 1e-9
            x2 = fejer_step(lp, x)
            for y in feas:
                d0, d1 = np.linalg.norm(x - y), np.linalg.norm(x2 - y)
                assert d1 <= d0 + 1e-12
                if clearly_infeasible:
                    assert d1 < d0
            x = x2
            if max_violation(lp, x) == 0.0:
                break
    # pseudo-projection agrees with the brute-force oracle on the square
    res = pseudo_project(NonStationaryLP(base=unit_square), np.array([2.0, 2.0]),
                         FejerConfig(tolerance=1e-9))
    exact = project_bruteforce(unit_square, np.array([2.0, 2.0]))
    assert np.linalg.norm(res.z - exact) <= 1e-6
    _report(6, "fixed-point iff feasible; monotone distances; square projection "
               "within 1e-6 of oracle", t0, 10.0)


def test_criterion_07_determinism_across_parallelism():
    t0 = time.perf_counter()
    n = 8
    problem = NonStationaryLP(base=model_n(n),
                              drift=DriftSpec(kind="random-sparse",
                                              delta=1.0 / (2 * (n + 1)),
                                              magnitude=0.5, seed=17))
    x_star, _ = model_n_optimum(n)
    rng = np.random.default_rng(17)
    z = np.maximum(x_star - rng.uniform(0.0, 0.5, n), 0.0)
    cfg = TargetingConfig(points_per_cohort=6, spacing=0.25)
    texts = []
    for backend in ("sequential-sim", "worker-pool"):
        for p in (1, 2, 4):
            trace = run_targeting(problem, z, cfg, 40,
                                  BsfExecutor(backend, p, latency_rounds=50))
            texts.append(trace.csv_text())
    assert all(t == texts[0] for t in texts[1:])
    _report(7, "byte-identical traces for P in {1,2,4} on both backends", t0, 30.0)


def test_criterion_08_translate_drift_tracking(unit_square_explicit):
    t0 = time.perf_counter()
    s = 0.1
    v = np.array([s / 4.0, 0.0])
    problem = NonStationaryLP(base=unit_square_explicit,
                              drift=DriftSpec(kind="translate", translate_vector=v))
    z = pseudo_project(problem, np.zeros(2)).z
    cfg = TargetingConfig(points_per_cohort=8, spacing=s)
    trace = run_targeting(problem, z, cfg, 250, BsfExecutor())
    worst = 0.0
    for row in trace.rows[50:]:
        optimum = np.array([1.0, 1.0]) + row.clock * v
        worst = max(worst, float(np.linalg.norm(row.center - optimum)))
    assert worst <= 3 * s, worst
    _report(8, f"drifting-optimum distance stays <= 3s after warm-up "
               f"(worst {worst:.3f} vs {3 * s:.1f})", t0, 10.0)


@pytest.mark.skipif((os.cpu_count() or 1) < 9,
                    reason="criterion presupposes a >= 8-core machine "
                           "(8 workers plus the master)")
def test_criterion_09_desk_scale_speedup_agreement(tmp_path):
    t0 = time.perf_counter()
    from nslp.cli import main

    out = tmp_path / "fig3"
    code = main(["run", "--n", "400", "--delta", "one-row", "--drift", "random",
                 "--drift-magnitude", "1.0", "--workers", "1,2,3,4,5,6,7,8",
                 "--iters", "30", "--k", "8", "--spacing", "1.0",
                 "--backend", "pool", "--seed", "1", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in
            (out / "results.csv").read_text().strip().split("\n")[1:]]
    effs = []
    for cols in rows:
        measured, predicted = float(cols[2]), float(cols[4])
        assert abs(measured - predicted) / predicted <= 0.20, cols
        effs.append(float(cols[3]))
    assert all(b < a for a, b in zip(effs, effs[1:])), effs
    _report(9, "n=400 measured speedup within 20% of prediction, efficiency "
               "monotone decreasing", t0, 600.0)


def _r_squared(x: np.ndarray, y: np.ndarray, degree: int) -> float:
    coeffs = np.polyfit(x, y, degree)
    fitted = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot


def test_criterion_10_order_size_regimes():
    t0 = time.perf_counter()
    dims = np.array([100, 200, 400, 800])
    sizes = {"one-row": [], "full": []}
    for n in dims:
        base = model_n(int(n))
        for mode, frac in (("one-row", 1.0 / (2 * (n + 1))), ("full", 1.0)):
            problem = NonStationaryLP(base=base,
                                      drift=DriftSpec(kind="random-sparse", delta=frac,
                                                      magnitude=1.0, seed=5))
            d = delta_between(base, snapshot(problem, 1))
            raw = order_to_bytes(Order(theta=np.zeros(int(n)), delta=d, clock=1))
            sizes[mode].append(len(raw))
    r2_linear = _r_squared(dims, np.array(sizes["one-row"], dtype=float), 1)
    r2_quadratic = _r_squared(dims, np.array(sizes["full"], dtype=float), 2)
    assert r2_linear >= 0.99, r2_linear
    assert r2_quadratic >= 0.99, r2_quadratic
    # and the full-change sizes are clearly super-linear
    ratio = sizes["full"][-1] / sizes["full"][0]
    assert ratio > 16  # 8x dimension -> ~64x bytes under delta = 1
    _report(10, f"order size linear under one-row (R2={r2_linear:.4f}) and "
                f"quadratic under full change (R2={r2_quadratic:.4f})", t0, 60.0)

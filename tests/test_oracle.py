import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

import nslp
from nslp import (BsfExecutor, DenseLP, DriftSpec, NonStationaryLP, TargetingConfig,
                  max_violation, model_n, model_n_optimum, project_bruteforce, run_targeting,
                  snapshot, solve_simplex)
from nslp.cost_model import delta_fraction


def test_unit_square_optimum(unit_square):
    res = solve_simplex(unit_square)
    assert res.status == "optimal"
    assert np.allclose(res.x_opt, [1.0, 1.0], atol=1e-9)
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_unbounded_ray():
    # only x2 is bounded above; the objective rides x1 to infinity
    lp = DenseLP(A=np.array([[0.0, 1.0]]), b=np.array([1.0]), c=np.array([1.0, 0.0]))
    assert solve_simplex(lp).status == "unbounded"


def test_infeasible():
    lp = DenseLP(A=np.array([[1.0, 0.0]]), b=np.array([-1.0]), c=np.array([1.0, 1.0]))
    assert solve_simplex(lp).status == "infeasible"


def test_model_n_agreement():
    for n in (2, 4, 6, 8):
        res = solve_simplex(model_n(n))
        x, value = model_n_optimum(n)
        assert res.status == "optimal"
        assert abs(res.value - value) <= 1e-9
        assert np.allclose(res.x_opt, x, atol=1e-8)


def test_negative_rhs(unit_square_explicit):
    # the square translated to [3,4] x [0,1]: b has negative components
    b = np.array([4.0, 1.0, -3.0, 0.0])
    lp = DenseLP(unit_square_explicit.A, b, unit_square_explicit.c)
    res = solve_simplex(lp)
    assert res.status == "optimal"
    assert np.allclose(res.x_opt, [4.0, 1.0], atol=1e-9)
    assert res.value == pytest.approx(5.0, abs=1e-9)


def _random_lp(rng) -> DenseLP:
    m = int(rng.integers(1, 9))
    n = int(rng.integers(2, 7))
    return DenseLP(rng.normal(size=(m, n)), rng.normal(size=m) + 0.5, rng.normal(size=n))


@pytest.mark.parametrize("seed", range(25))
def test_against_scipy_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    lp = _random_lp(rng)
    ours = solve_simplex(lp)
    ref = scipy_linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=[(0, None)] * lp.n,
                        method="highs")
    status_map = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    assert ours.status == status_map[ref.status]
    if ours.status == "optimal":
        assert ours.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
        assert max_violation(lp, ours.x_opt) <= 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_degenerate_instances_against_scipy(seed):
    # zero right-hand sides and duplicated rows: degenerate vertices with
    # ties everywhere, where a simplex can cycle or stall
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, 6))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    A[0] = A[-1]  # redundant pair
    b = np.where(rng.random(m) < 0.5, 0.0, rng.integers(0, 3, m).astype(float))
    c = rng.integers(-2, 3, n).astype(float)
    lp = DenseLP(A, b, c)
    ours = solve_simplex(lp)
    ref = scipy_linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=[(0, None)] * lp.n,
                        method="highs")
    status_map = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    assert ours.status == status_map[ref.status]
    if ours.status == "optimal":
        assert ours.value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
        assert max_violation(lp, ours.x_opt) <= 1e-9


@pytest.mark.parametrize("seed", [3, 6, 13])  # seeds with bounded feasible optima
def test_optimality_certificate_by_perturbation(seed):
    rng = np.random.default_rng(seed)
    lp = _random_lp(rng)
    res = solve_simplex(lp)
    assert res.status == "optimal"
    # no feasible step in any sampled direction may improve the objective
    for _ in range(50):
        d = rng.normal(size=lp.n)
        d /= np.linalg.norm(d)
        y = res.x_opt + 1e-4 * d
        if max_violation(lp, y) <= 1e-12:
            assert float(lp.c @ y) <= res.value + 1e-9


# --- projection oracle ------------------------------------------------------


def test_projection_of_feasible_point_is_identity(unit_square):
    x = np.array([0.25, 0.75])
    assert np.array_equal(project_bruteforce(unit_square, x), x)


def test_projection_corner(unit_square):
    assert np.allclose(project_bruteforce(unit_square, np.array([2.0, 2.0])),
                       [1.0, 1.0], atol=1e-12)


def test_projection_face(unit_square):
    assert np.allclose(project_bruteforce(unit_square, np.array([0.5, 9.0])),
                       [0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_projection_monte_carlo_dominance(seed):
    rng = np.random.default_rng(seed)
    # box [0, u] cut by a couple of random half-spaces through its interior
    u = rng.uniform(1.0, 2.0, 3)
    extra = rng.normal(size=(2, 3))
    lp = DenseLP(A=np.vstack([np.eye(3), extra]),
                 b=np.concatenate([u, extra @ (u / 2) + rng.uniform(0.2, 1.0, 2)]),
                 c=np.ones(3))
    x = rng.uniform(2.0, 4.0, 3)
    proj = project_bruteforce(lp, x)
    assert max_violation(lp, proj) <= 1e-9
    d_proj = np.linalg.norm(proj - x)
    samples = rng.uniform(0.0, u, size=(100_000, 3))
    feas = samples[(samples @ lp.A[3:].T <= lp.b[3:]).all(axis=1)]
    assert len(feas) > 1000
    d_samples = np.linalg.norm(feas - x, axis=1).min()
    assert d_proj <= d_samples + 1e-9


def test_projection_guards():
    big = DenseLP(np.ones((1, 11)), np.ones(1), np.ones(11))
    with pytest.raises(ValueError):
        project_bruteforce(big, np.zeros(11))
    wide = DenseLP(np.ones((51, 2)), np.ones(51), np.ones(2))
    with pytest.raises(ValueError):
        project_bruteforce(wide, np.zeros(2))


def test_projection_infeasible_region():
    lp = DenseLP(A=np.array([[1.0, 0.0], [-1.0, 0.0]]), b=np.array([1.0, -2.0]),
                 c=np.ones(2))  # x1 <= 1 and x1 >= 2
    with pytest.raises(ValueError):
        project_bruteforce(lp, np.array([0.0, 0.0]))


def test_solve_fixture_from_text_format(tmp_path):
    from nslp import model_n, read_problem, write_problem

    path = tmp_path / "fixture.txt"
    write_problem(model_n(5), path)
    res = solve_simplex(read_problem(path))
    _, value = model_n_optimum(5)
    assert res.status == "optimal"
    assert abs(res.value - value) <= 1e-9


def _cli_drift_scenario() -> NonStationaryLP:
    # what `nslp track --n 50 --drift random --seed 1` tracks
    return NonStationaryLP(model_n(50), DriftSpec("random-sparse",
                                                  delta=delta_fraction("one-row", 50),
                                                  magnitude=1.0, seed=1))


def test_feasible_drifted_snapshot_is_solved():
    lp = snapshot(_cli_drift_scenario(), 50)
    res = solve_simplex(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(4100.66, abs=0.01)
    assert max_violation(lp, res.x_opt) <= 1e-9


def test_drifted_out_snapshot_is_infeasible():
    assert solve_simplex(snapshot(_cli_drift_scenario(), 100)).status == "infeasible"


def test_dual_simplex_without_a_verdict_falls_back_to_interior_point():
    # HiGHS's dual simplex ends this snapshot with model status Unknown
    lp = snapshot(NonStationaryLP(model_n(100), DriftSpec("random-sparse", delta=1.0,
                                                          magnitude=1e-5, seed=701)), 11)
    res = solve_simplex(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(32508.39, abs=0.01)
    assert max_violation(lp, res.x_opt) <= 1e-9


def test_solver_failure_is_a_status_and_a_nan_gap(unit_square, monkeypatch):
    import scipy.optimize

    methods = []

    def failing(*args, method, **kwargs):
        methods.append(method)
        return SimpleNamespace(status=4, message="numerical difficulties", nit=7)

    monkeypatch.setattr(scipy.optimize, "linprog", failing)
    res = solve_simplex(unit_square)
    assert methods == ["highs-ds", "highs-ipm"]
    assert res.status == "failed" and res.value is None
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25, oracle_gap=True)
    trace = run_targeting(NonStationaryLP(unit_square), np.array([0.5, 0.5]), cfg, 2,
                          BsfExecutor())
    assert [math.isnan(r.oracle_gap) for r in trace.rows] == [True, True]


def test_importing_nslp_leaves_scipy_unloaded():
    # every farm worker imports nslp; scipy would lengthen each worker's boot
    src = str(Path(nslp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import nslp, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

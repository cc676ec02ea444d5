import math

import numpy as np
import pytest

from nslp import (DenseLP, DriftSpec, FejerConfig, MalformedProblemError,
                  NonStationaryLP, fejer_step, max_violation, model_n,
                  project_bruteforce, pseudo_project, snapshot)


def _one_dim() -> DenseLP:
    # x1 <= 1 embedded in the plane
    return DenseLP(A=np.array([[1.0, 0.0]]), b=np.array([1.0]), c=np.array([1.0, 0.0]))


def test_single_halfspace_exact_projection():
    lp = _one_dim()
    out = fejer_step(lp, np.array([3.0, 0.0]), relaxation=1.0)
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_single_halfspace_half_step():
    lp = _one_dim()
    out = fejer_step(lp, np.array([3.0, 0.0]), relaxation=0.5)
    assert np.array_equal(out, np.array([2.0, 0.0]))


def test_feasible_point_is_fixed(unit_square):
    x = np.array([0.5, 0.25])
    assert np.array_equal(fejer_step(unit_square, x), x)


def test_fixed_point_iff_feasible():
    rng = np.random.default_rng(0)
    for _ in range(15):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 7))
        lp = DenseLP(rng.normal(size=(m, n)), rng.uniform(0.5, 2.0, m), rng.normal(size=n))
        x = rng.normal(size=n) * 3
        moved = fejer_step(lp, x)
        if max_violation(lp, x) == 0.0:
            assert np.array_equal(moved, x)
        else:
            assert not np.array_equal(moved, x)


def test_pseudo_project_feasible_start_is_identity(unit_square):
    p = NonStationaryLP(base=unit_square)
    res = pseudo_project(p, np.array([0.5, 0.5]))
    assert res.iterations == 0
    assert res.residual == 0.0
    assert np.array_equal(res.z, np.array([0.5, 0.5]))


def test_unit_square_projection_matches_bruteforce(unit_square):
    p = NonStationaryLP(base=unit_square)
    res = pseudo_project(p, np.array([2.0, 2.0]), FejerConfig(tolerance=1e-9))
    exact = project_bruteforce(unit_square, np.array([2.0, 2.0]))
    assert np.allclose(exact, [1.0, 1.0], atol=1e-12)
    assert np.linalg.norm(res.z - exact) <= 1e-6
    assert max_violation(unit_square, res.z) <= 1e-9


def test_fejer_monotone_distance_to_feasible_points():
    rng = np.random.default_rng(1)
    instances = [model_n(3), model_n(5)]
    for _ in range(4):
        n = int(rng.integers(2, 6))
        u = rng.uniform(1.0, 4.0, n)
        instances.append(DenseLP(np.vstack([np.eye(n), -np.eye(n)]),
                                 np.concatenate([u, np.zeros(n)]), np.ones(n)))
    for lp in instances:
        n = lp.n
        # sample feasible points by shrinking toward a known interior point
        feas = []
        while len(feas) < 10:
            y = rng.uniform(0.0, 1.0, n)
            if max_violation(lp, y) == 0.0:
                feas.append(y)
        x = rng.uniform(-50.0, 250.0, n)
        for _ in range(60):
            # strict decrease is only checkable above float resolution
            clearly_infeasible = max_violation(lp, x) > 1e-9
            x2 = fejer_step(lp, x)
            for y in feas:
                before = np.linalg.norm(x - y)
                after = np.linalg.norm(x2 - y)
                assert after <= before + 1e-12
                if clearly_infeasible:
                    assert after < before
            x = x2
            if max_violation(lp, x) == 0.0:
                break


def test_residual_non_increasing_at_unit_relaxation():
    rng = np.random.default_rng(2)
    corpus = [model_n(2), model_n(4), model_n(6)]
    for _ in range(5):
        n = int(rng.integers(2, 6))
        u = rng.uniform(1.0, 4.0, n)
        corpus.append(DenseLP(np.vstack([np.eye(n), -np.eye(n)]),
                              np.concatenate([u, np.zeros(n)]), np.ones(n)))
    for lp in corpus:
        x = rng.uniform(-100.0, 300.0, lp.n)
        prev = max_violation(lp, x)
        for _ in range(200):
            x = fejer_step(lp, x, relaxation=1.0)
            cur = max_violation(lp, x)
            assert cur <= prev + 1e-12
            prev = cur
            if cur == 0.0:
                break


def test_zero_norm_violated_row_is_malformed():
    lp = DenseLP(A=np.array([[0.0, 0.0]]), b=np.array([-1.0]), c=np.ones(2))
    with pytest.raises(MalformedProblemError):
        fejer_step(lp, np.array([0.5, 0.5]))
    benign = DenseLP(A=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.array([0.0, 1.0]),
                     c=np.ones(2))  # zero row that can never be violated
    out = fejer_step(benign, np.array([3.0, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_nonconvergence_is_reported_not_raised():
    lp = DenseLP(A=np.array([[1.0, 0.0], [-1.0, 0.0]]), b=np.array([1.0, -2.0]),
                 c=np.ones(2))  # empty feasible region
    p = NonStationaryLP(base=lp)
    res = pseudo_project(p, np.zeros(2), FejerConfig(max_iterations=50))
    assert res.iterations == 50
    assert res.residual > 1e-9


def test_pseudo_project_tracks_translating_polytope(unit_square_explicit):
    v = np.array([0.05, 0.0])
    p = NonStationaryLP(base=unit_square_explicit,
                        drift=DriftSpec(kind="translate", translate_vector=v))
    cfg = FejerConfig(refresh_every=5, tolerance=1e-9)
    res = pseudo_project(p, np.array([40.0, 40.0]), cfg, clock=0)
    assert res.residual <= 1e-9
    # the landing point must be feasible for the snapshot it converged on
    clock_reached = res.iterations // cfg.refresh_every
    from nslp import snapshot
    assert max_violation(snapshot(p, clock_reached), res.z) <= 1e-9


def test_pseudo_project_from_a_held_snapshot_matches_the_replay():
    problem = NonStationaryLP(base=model_n(6), drift=DriftSpec(
        kind="random-sparse", delta=1.0, magnitude=0.5, seed=9))
    cfg = FejerConfig(tolerance=1e-6, refresh_every=3)
    start = np.full(6, 400.0)
    for k in (0, 4, 9):
        replayed = pseudo_project(problem, start, cfg, clock=k)
        held = pseudo_project(problem, start, cfg, clock=k, lp=snapshot(problem, k))
        assert held.z.tobytes() == replayed.z.tobytes()
        assert (held.iterations, held.residual) == (replayed.iterations, replayed.residual)
        assert held.iterations > cfg.refresh_every  # the data drifted mid-recovery


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_start_returns_at_once(bad):
    start = np.ones(50)
    start[7] = bad
    res = pseudo_project(NonStationaryLP(base=model_n(50)), start,
                         FejerConfig(max_iterations=100_000))
    assert res.iterations == 0
    assert res.residual == math.inf
    assert res.z.tobytes() == start.tobytes()


def test_fejer_config_validation():
    for bad in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError):
            FejerConfig(relaxation=bad)
    with pytest.raises(ValueError):
        FejerConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        FejerConfig(max_iterations=0)
    with pytest.raises(ValueError):
        fejer_step(_one_dim(), np.array([3.0, 0.0]), relaxation=2.5)


def test_fejer_config_rejects_nan_tolerance():
    # residual <= nan is never true: the projection would run its whole budget
    with pytest.raises(ValueError, match="tolerance"):
        FejerConfig(tolerance=math.nan)


def _reference_project(problem, start, cfg, clock):
    """``pseudo_project`` spelled out with the public ``max_violation`` and
    ``fejer_step``, each computing its own residuals."""
    from nslp.lp import advance
    x, k = np.array(start, dtype=np.float64), clock
    lp = snapshot(problem, k)
    for it in range(cfg.max_iterations):
        if it > 0 and it % cfg.refresh_every == 0:
            lp = advance(problem, lp, k)
            k += 1
        if not np.isfinite(x).all():
            return x, it, math.inf
        residual = max_violation(lp, x)
        if residual <= cfg.tolerance:
            return x, it, residual
        x = fejer_step(lp, x, cfg.relaxation)
    return x, cfg.max_iterations, max_violation(lp, x)


@pytest.mark.parametrize("case", ["drifting", "budget", "feasible", "non-finite"])
def test_pseudo_project_matches_the_public_step_loop(case):
    rng = np.random.default_rng(17)
    problem = NonStationaryLP(base=model_n(12), drift=DriftSpec(
        kind="random-sparse", delta=1.0, magnitude=1e-3, seed=17))
    cfg = FejerConfig(relaxation=1.5, tolerance=1e-8, refresh_every=2)
    start = rng.uniform(-50.0, 400.0, 12)
    if case == "budget":
        cfg = FejerConfig(relaxation=0.7, max_iterations=9, refresh_every=4)
    elif case == "feasible":  # inside the box, far from every drifting face
        start = np.full(12, 50.0)
    elif case == "non-finite":
        start[3] = math.nan
    z, iterations, residual = _reference_project(problem, start, cfg, 3)
    res = pseudo_project(problem, start, cfg, clock=3)
    assert res.z.tobytes() == z.tobytes()
    assert (res.iterations, res.residual) == (iterations, residual)
    assert {"drifting": res.iterations > 4 * cfg.refresh_every and res.residual <= 1e-8,
            "budget": res.iterations == 9 and res.residual > 0.0,
            "feasible": res.iterations == 0 and res.residual == 0.0,
            "non-finite": res.iterations == 0 and res.residual == math.inf}[case]

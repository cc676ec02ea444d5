import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nslp.targeting
from nslp import (BsfExecutor, CohortBest, Cross, DenseLP, DriftSpec, FejerConfig,
                  NonStationaryLP, TargetingConfig, TargetingState, cohort_markers,
                  evaluate, max_violation, model_n, model_n_optimum, objective_value,
                  point_of, process_cohorts, run_targeting, snapshot)
from nslp.targeting import TargetingWorkload


def _square_cross() -> Cross:
    return Cross(center=np.array([0.5, 0.5]), spacing=0.25, points_per_cohort=4)


def test_unit_square_cohort_bests(unit_square):
    bests = process_cohorts(unit_square, _square_cross(), [0, 1])
    assert [b.cohort for b in bests] == [0, 1]
    assert np.array_equal(bests[0].point, np.array([1.0, 0.5]))
    assert bests[0].value == 1.5
    assert np.array_equal(bests[1].point, np.array([0.5, 1.0]))
    assert bests[1].value == 1.5


def test_unit_square_cohort_zero_points_all_feasible(unit_square):
    # cohort 0 reconstructs to (0,.5), (.25,.5), (.75,.5), (1,.5)
    cross = _square_cross()
    from nslp import cohort_markers, point_of
    pts = sorted(tuple(point_of(cross, m)) for m in cohort_markers(cross, 0))
    assert pts == [(0.0, 0.5), (0.25, 0.5), (0.75, 0.5), (1.0, 0.5)]
    assert all(max_violation(unit_square, np.array(p)) == 0.0 for p in pts)


def test_cohort_entirely_outside_polytope(unit_square):
    cross = Cross(center=np.array([5.0, 5.0]), spacing=0.1, points_per_cohort=2)
    bests = process_cohorts(unit_square, cross, [0])
    assert bests == [CohortBest(0)]
    assert bests[0].point is None and bests[0].value is None


def test_singleton_feasible_point_wins_regardless_of_value(unit_square):
    cross = Cross(center=np.array([0.9, 0.5]), spacing=0.2, points_per_cohort=2)
    bests = process_cohorts(unit_square, cross, [0])
    # only the negative-offset point is inside; it wins despite a lower value
    assert np.allclose(bests[0].point, [0.7, 0.5])
    assert bests[0].value < objective_value(unit_square, cross.center)


def test_argmax_tie_break_prefers_small_negative_offsets():
    lp = DenseLP(A=np.eye(2), b=np.ones(2), c=np.array([0.0, 1.0]))
    cross = Cross(center=np.array([0.5, 0.5]), spacing=0.1, points_per_cohort=4)
    bests = process_cohorts(lp, cross, [0])
    # every cohort-0 point has the same value; smallest |offset|, negative first
    assert np.array_equal(bests[0].point, np.array([0.4, 0.5]))


def test_dimension_mismatch_rejected(unit_square):
    cross = Cross(center=np.zeros(3), spacing=0.1, points_per_cohort=2)
    with pytest.raises(ValueError):
        process_cohorts(unit_square, cross, [0])


def _process_cohorts_exact(lp, cross, cohorts):
    """Reference: the per-point loop that runs a full ``max_violation`` on
    every cross point. The screened ``process_cohorts`` must match it bit
    for bit."""
    out = []
    for chi in sorted(int(c) for c in cohorts):
        best_point, best_value = None, -math.inf
        ms = sorted(cohort_markers(cross, chi), key=lambda m: (abs(m.offset), m.offset > 0))
        for m in ms:
            p = point_of(cross, m)
            if max_violation(lp, p) == 0.0:
                v = objective_value(lp, p)
                if v > best_value:
                    best_point, best_value = p, v
        out.append(CohortBest(chi) if best_point is None
                   else CohortBest(chi, best_point, best_value))
    return out


def _assert_same_bests(got, want):
    assert [b.cohort for b in got] == [b.cohort for b in want]
    for g, w in zip(got, want):
        assert (g.point is None) == (w.point is None)
        if w.point is not None:
            assert g.point.tobytes() == w.point.tobytes()
            assert g.value == w.value


def _random_center(rng, n, theta):
    """Coordinates at 0, at theta or strictly between."""
    pick = rng.integers(0, 3, n)
    return np.select([pick == 0, pick == 1], [0.0, theta], rng.uniform(0.0, theta, n))


def _maybe_negative(rng, center, spacing):
    """In about a third of the cases one coordinate turns negative: only
    its own cohort can then reach the nonnegative orthant."""
    if rng.random() < 0.3:
        center[rng.integers(0, center.shape[0])] = -rng.uniform(0.0, 2.0 * spacing)
    return center


def _random_lp(rng, center, spacing, k):
    """Dense or sparse A, with b at random slack, mostly on the feasible
    side, around an anchor: the center or one of its cross points. About
    a third of the rows lie exactly on a face through the anchor. Faces
    through the center give r0[i] == 0; faces through a cross point put the
    rank-1 estimate at that point inside the rounding guard."""
    n = center.shape[0]
    m = int(rng.integers(1, 3 * n + 1))
    if rng.random() < 0.5:
        A = rng.integers(-3, 4, (m, n)).astype(np.float64)
    else:
        A = rng.normal(size=(m, n))
    if rng.random() < 0.5:
        A *= rng.random((m, n)) < 0.3
    anchor = center.copy()
    if rng.random() < 0.5:
        eta = int(rng.choice([e for e in range(-k // 2, k // 2 + 1) if e != 0]))
        anchor[rng.integers(0, n)] += eta * spacing
    slack = np.abs(rng.normal(scale=3.0 * spacing, size=m))
    b = A @ anchor + np.where(rng.random(m) < 0.1, -slack, slack)
    on_face = rng.random(m) < 0.3
    b[on_face] = (A @ anchor)[on_face]
    return DenseLP(A, b, rng.normal(size=n))


def _drifted_model_n(rng, n, theta, spacing):
    """A drifted ``model_n`` snapshot and a center at its static optimum
    (coordinates at theta and at 0), partly jittered."""
    drift = DriftSpec(kind="random-sparse", delta=float(rng.choice([0.05, 1.0])),
                      magnitude=float(rng.choice([1e-3, 1.0])), seed=int(rng.integers(1 << 30)))
    lp = snapshot(NonStationaryLP(model_n(n, theta=theta), drift), int(rng.integers(0, 4)))
    center, _ = model_n_optimum(n, theta)
    jitter = rng.random(n) < 0.5
    center[jitter] = np.maximum(center[jitter] - rng.uniform(0.0, 2.0 * spacing, n)[jitter], 0.0)
    return lp, center


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "model_n"]),
       k=st.sampled_from([2, 4, 8]))
def test_screened_cohorts_match_the_exact_loop(seed, kind, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    theta = float(rng.choice([1.0, 200.0]))
    spacing = float(rng.choice([0.25, 1.0, rng.uniform(0.01, 3.0)]))
    if kind == "random":
        center = _maybe_negative(rng, _random_center(rng, n, theta), spacing)
        lp = _random_lp(rng, center, spacing, k)
    else:
        lp, center = _drifted_model_n(rng, n, theta, spacing)
        center = _maybe_negative(rng, center, spacing)
    cross = Cross(center, spacing, k)
    whole = list(range(n))
    subset = [c for c in whole if rng.random() < 0.5] or [int(rng.integers(0, n))]
    for cohorts in (whole, subset):
        _assert_same_bests(process_cohorts(lp, cross, cohorts),
                           _process_cohorts_exact(lp, cross, cohorts))


def test_point_landing_on_a_face_goes_to_the_exact_check(unit_square, monkeypatch):
    # the offset +2 points sit exactly on x_i <= 1, where the rank-1
    # estimate reads 0 and cannot be trusted; everything else is screened
    checked = []

    def counting(lp, p):
        checked.append(p.tolist())
        return max_violation(lp, p)

    monkeypatch.setattr(nslp.targeting, "max_violation", counting)
    bests = process_cohorts(unit_square, _square_cross(), [0, 1])
    assert checked == [[1.0, 0.5], [0.5, 1.0]]
    _assert_same_bests(bests, _process_cohorts_exact(unit_square, _square_cross(), [0, 1]))


def test_overflowing_points_go_to_the_exact_check(unit_square):
    # center + spacing overflows to inf on axis 0: the exact product then
    # meets 0 * inf, and the screen must not decide such points itself
    cross = Cross(np.array([1.7e308, 5.0]), 1e308, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_bests(process_cohorts(unit_square, cross, [0, 1]),
                           _process_cohorts_exact(unit_square, cross, [0, 1]))


def test_nan_residual_is_a_violation(unit_square):
    # 0 * inf in A @ x is NaN: it must not read as a satisfied row
    with np.errstate(over="ignore", invalid="ignore"):
        assert max_violation(unit_square, np.array([math.inf, 5.0])) != 0.0
        bests = process_cohorts(unit_square, Cross(np.array([1.7e308, 5.0]), 1e308, 2), [0, 1])
    assert [(b.cohort, b.point) for b in bests] == [(0, None), (1, None)]


def test_evaluate_moves_to_centroid(unit_square):
    state = TargetingState(cross=_square_cross(), clock=0)
    bests = process_cohorts(unit_square, _square_cross(), [0, 1])
    new = evaluate(unit_square, state, bests)
    assert np.array_equal(new.cross.center, np.array([0.75, 0.75]))
    assert new.moved
    assert new.clock == 1
    assert new.last_q_size == 2


def test_evaluate_holds_at_optimum(unit_square):
    cross = Cross(center=np.array([1.0, 1.0]), spacing=0.25, points_per_cohort=4)
    state = TargetingState(cross=cross, clock=5)
    bests = process_cohorts(unit_square, cross, [0, 1])
    new = evaluate(unit_square, state, bests)
    assert not new.moved
    assert np.array_equal(new.cross.center, cross.center)
    assert new.clock == 6
    again = evaluate(unit_square, new, bests)  # hold is idempotent
    assert not again.moved
    assert np.array_equal(again.cross.center, cross.center)


def test_evaluate_empty_q_stalls(unit_square):
    cross = Cross(center=np.array([9.0, 9.0]), spacing=0.1, points_per_cohort=2)
    state = TargetingState(cross=cross, clock=0)
    bests = process_cohorts(unit_square, cross, [0, 1])
    new = evaluate(unit_square, state, bests)
    assert not new.moved
    assert new.stalls == 1
    assert np.array_equal(new.cross.center, cross.center)


def test_evaluate_rejects_bad_cohort_cover(unit_square):
    state = TargetingState(cross=_square_cross(), clock=0)
    with pytest.raises(ValueError):
        evaluate(unit_square, state, [CohortBest(0), CohortBest(0)])
    with pytest.raises(ValueError):
        evaluate(unit_square, state, [CohortBest(0)])


def test_centroid_of_feasible_points_is_feasible(unit_square):
    rng = np.random.default_rng(0)
    # dyadic grid points inside the square: the mean stays exactly feasible
    for _ in range(20):
        k = int(rng.integers(1, 5))
        pts = rng.integers(0, 9, size=(k, 2)) / 8.0
        centroid = np.mean(pts, axis=0)
        assert all(max_violation(unit_square, p) == 0.0 for p in pts)
        assert max_violation(unit_square, centroid) == 0.0


def test_partition_completeness(unit_square):
    rng = np.random.default_rng(3)
    lp = model_n(6)
    cross = Cross(center=rng.uniform(0, 50, 6), spacing=2.0, points_per_cohort=6)
    whole = process_cohorts(lp, cross, range(6))
    for split in ([[0, 1, 2], [3, 4, 5]], [[0], [1, 2], [3, 4, 5]], [[5], [0, 1, 2, 3, 4]]):
        merged = [b for part in split for b in process_cohorts(lp, cross, part)]
        merged.sort(key=lambda b: b.cohort)
        assert len(merged) == len(whole)
        for a, b in zip(whole, merged):
            assert a.cohort == b.cohort and a.value == b.value
            assert (a.point is None) == (b.point is None)
            if a.point is not None:
                assert np.array_equal(a.point, b.point)


def test_run_targeting_single_iteration_reproduces_hand_step(unit_square):
    problem = NonStationaryLP(base=unit_square)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    trace = run_targeting(problem, np.array([0.5, 0.5]), cfg, 1, BsfExecutor())
    assert len(trace.rows) == 1
    assert np.array_equal(trace.rows[0].center, np.array([0.75, 0.75]))
    assert trace.rows[0].moved
    assert trace.rows[0].residual == 0.0
    assert trace.rows[0].objective == 1.5


def test_worker_count_independence():
    x, _ = model_n_optimum(8)
    rng = np.random.default_rng(5)
    z = np.maximum(x - rng.uniform(0.0, 0.5, 8), 0.0)
    problem = NonStationaryLP(base=model_n(8))
    cfg = TargetingConfig(points_per_cohort=6, spacing=0.25)
    texts = []
    for p in (1, 2, 4):
        trace = run_targeting(problem, z, cfg, 60, BsfExecutor("sequential-sim", p))
        texts.append(trace.csv_text())
    assert texts[0] == texts[1] == texts[2]


def test_monotone_improvement_on_unit_square(unit_square):
    problem = NonStationaryLP(base=unit_square)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.125)
    trace = run_targeting(problem, np.zeros(2), cfg, 40, BsfExecutor())
    objs = [r.objective for r in trace.rows]
    assert all(b >= a for a, b in zip(objs, objs[1:]))
    assert objs[-1] >= 2.0 - 4 * 0.125  # near the (1,1) corner


def test_tracking_translate_drift(unit_square_explicit):
    s = 0.2
    v = np.array([s / 2.0, 0.0])
    problem = NonStationaryLP(base=unit_square_explicit,
                              drift=DriftSpec(kind="translate", translate_vector=v))
    cfg = TargetingConfig(points_per_cohort=8, spacing=s)
    trace = run_targeting(problem, np.zeros(2), cfg, 200, BsfExecutor())
    for row in trace.rows[50:]:
        opt = np.array([1.0, 1.0]) + row.clock * v
        assert np.linalg.norm(row.center - opt) <= 3 * s


def test_stall_triggers_feasibility_recovery(unit_square_explicit):
    # the polytope jumps far each tick; the cross loses it, then recovery fires
    v = np.array([5.0, 0.0])
    problem = NonStationaryLP(base=unit_square_explicit,
                              drift=DriftSpec(kind="translate", translate_vector=v))
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.1, stall_limit=3,
                          quest=FejerConfig(tolerance=1e-9))
    trace = run_targeting(problem, np.zeros(2), cfg, 12, BsfExecutor())
    assert trace.requests >= 1
    # after a recovery the cross straddles the polytope again: cohorts answer
    stalled = [r.iteration for r in trace.rows if r.q_size == 0]
    reacquired = [r for r in trace.rows if r.iteration > min(stalled) and r.q_size > 0]
    assert reacquired, "recovery should bring the cross back onto the polytope"
    assert min(r.residual for r in reacquired) <= cfg.spacing


def test_trace_csv_shape(unit_square):
    problem = NonStationaryLP(base=unit_square)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25, oracle_gap=True)
    trace = run_targeting(problem, np.array([0.5, 0.5]), cfg, 3, BsfExecutor())
    text = trace.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,clock,center_0,center_1,objective,residual,moved,oracle_gap"
    assert len(lines) == 4
    assert trace.rows[-1].oracle_gap == pytest.approx(2.0 - trace.rows[-1].objective)


def test_run_targeting_validation(unit_square):
    problem = NonStationaryLP(base=unit_square)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 0, BsfExecutor())
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(3), cfg, 1, BsfExecutor())
    with pytest.raises(ValueError):
        TargetingConfig(stall_limit=0)


def test_workload_clock_advances_with_snapshot(unit_square_explicit):
    v = np.array([0.25, 0.0])
    problem = NonStationaryLP(base=unit_square_explicit,
                              drift=DriftSpec(kind="translate", translate_vector=v))
    wl = TargetingWorkload(problem, np.zeros(2), TargetingConfig(points_per_cohort=2,
                                                                 spacing=0.25), 5)
    trace = run_targeting(problem, np.zeros(2),
                          TargetingConfig(points_per_cohort=2, spacing=0.25), 5, BsfExecutor())
    assert [r.clock for r in trace.rows] == [0, 1, 2, 3, 4]
    assert wl.cohort_count == 2
    # each row was evaluated against the snapshot at its clock
    for r in trace.rows:
        assert r.residual == max_violation(snapshot(problem, r.clock), r.center)

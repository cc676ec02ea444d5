import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nslp.targeting
from nslp import (BsfExecutor, CohortBest, Cross, DenseLP, DriftSpec, FejerConfig,
                  Marker, NonStationaryLP, TargetingConfig, TargetingState, cohort_markers,
                  evaluate, max_violation, model_n, model_n_optimum, objective_value,
                  point_of, process_cohorts, run_targeting, snapshot)
from nslp.bsf import make_order
from nslp.targeting import TargetingWorkerSetup, TargetingWorkload


def _square_cross() -> Cross:
    return Cross(center=np.array([0.5, 0.5]), spacing=0.25, points_per_cohort=4)


def test_unit_square_cohort_bests(unit_square):
    cross = _square_cross()
    bests = process_cohorts(unit_square, cross, [0, 1])
    assert [b.cohort for b in bests] == [0, 1]
    assert np.array_equal(point_of(cross, Marker(0, bests[0].offset)), np.array([1.0, 0.5]))
    assert bests[0].value == 1.5
    assert np.array_equal(point_of(cross, Marker(1, bests[1].offset)), np.array([0.5, 1.0]))
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
    assert bests[0].offset is None and bests[0].value is None


def test_singleton_feasible_point_wins_regardless_of_value(unit_square):
    cross = Cross(center=np.array([0.9, 0.5]), spacing=0.2, points_per_cohort=2)
    bests = process_cohorts(unit_square, cross, [0])
    # only the negative-offset point is inside; it wins despite a lower value
    assert bests[0].offset == -1
    assert np.allclose(point_of(cross, Marker(0, bests[0].offset)), [0.7, 0.5])
    assert bests[0].value < objective_value(unit_square, cross.center)


def test_argmax_tie_break_prefers_small_negative_offsets():
    lp = DenseLP(A=np.eye(2), b=np.ones(2), c=np.array([0.0, 1.0]))
    cross = Cross(center=np.array([0.5, 0.5]), spacing=0.1, points_per_cohort=4)
    bests = process_cohorts(lp, cross, [0])
    # every cohort-0 point has the same value; smallest |offset|, negative first
    assert np.array_equal(point_of(cross, Marker(0, bests[0].offset)), np.array([0.4, 0.5]))


def test_dimension_mismatch_rejected(unit_square):
    cross = Cross(center=np.zeros(3), spacing=0.1, points_per_cohort=2)
    with pytest.raises(ValueError):
        process_cohorts(unit_square, cross, [0])


@pytest.mark.parametrize("cohorts", [[-1], [2], [0, 5], [-3, 1]])
def test_out_of_range_cohort_rejected(unit_square, cohorts):
    with pytest.raises(ValueError, match="out of range"):
        process_cohorts(unit_square, _square_cross(), cohorts)


def _process_cohorts_exact(lp, cross, cohorts):
    """Reference: the per-point loop that runs a full ``max_violation`` on
    every cross point. The screened ``process_cohorts`` must match it bit
    for bit."""
    out = []
    for chi in sorted(int(c) for c in cohorts):
        best_offset, best_value = None, -math.inf
        ms = sorted(cohort_markers(cross, chi), key=lambda m: (abs(m.offset), m.offset > 0))
        for m in ms:
            p = point_of(cross, m)
            if max_violation(lp, p) == 0.0:
                v = objective_value(lp, p)
                if v > best_value:
                    best_offset, best_value = m.offset, v
        out.append(CohortBest(chi) if best_offset is None
                   else CohortBest(chi, best_offset, best_value))
    return out


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
        assert process_cohorts(lp, cross, cohorts) == _process_cohorts_exact(lp, cross, cohorts)


def _value_test_objective(rng, n):
    """c with ties (zero and small integer entries), mixed magnitudes, or
    entries large enough that ``c @ p`` overflows."""
    pick = rng.integers(0, 4)
    if pick == 0:
        return rng.integers(-2, 3, n).astype(np.float64)
    if pick == 1:
        return np.where(rng.random(n) < 0.5, 0.0, rng.choice([-1.0, 1.0, 3.0], n))
    if pick == 2:
        return rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, n)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(290.0, 308.0, n)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 4, 8]))
def test_screened_values_match_the_exact_loop(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    theta = float(10.0 ** rng.integers(-8, 9))
    # the smallest spacings round away against coordinates of order theta
    spacing = float(rng.choice([theta * rng.uniform(0.01, 1.0), 1e-17, 1e-12 * theta]))
    center = _maybe_negative(rng, _random_center(rng, n, theta), spacing)
    lp = _random_lp(rng, center, spacing, k)
    lp = DenseLP(lp.A, lp.b, _value_test_objective(rng, n))
    cross = Cross(center, spacing, k)
    whole = list(range(n))
    subset = [c for c in whole if rng.random() < 0.5] or [int(rng.integers(0, n))]
    with np.errstate(over="ignore", invalid="ignore"):
        for cohorts in (whole, subset):
            assert (process_cohorts(lp, cross, cohorts)
                    == _process_cohorts_exact(lp, cross, cohorts))


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(nslp.targeting, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(nslp.targeting, name, counted)
    return calls


def test_objective_value_runs_once_per_nonempty_cohort(monkeypatch):
    n, k = 50, 8
    x, _ = model_n_optimum(n)
    rng = np.random.default_rng(11)
    cross = Cross(np.maximum(x - rng.uniform(0.0, 2.0, n), 0.0), 1.0, k)
    values = _counting(monkeypatch, "objective_value")
    builds = _counting(monkeypatch, "point_of")
    bests = process_cohorts(model_n(n), cross, range(n))
    nonempty = sum(b.offset is not None for b in bests)
    assert nonempty > 0
    assert len(values) == nonempty
    assert len(builds) == n * k
    assert bests == _process_cohorts_exact(model_n(n), cross, range(n))


@pytest.mark.parametrize("drift", [DriftSpec(), DriftSpec(kind="random-sparse", delta=0.2,
                                                          magnitude=1e-2, seed=3)])
@pytest.mark.parametrize("p", [1, 3])
def test_screened_run_traces_match_the_exact_loop(monkeypatch, drift, p):
    n = 30
    x, _ = model_n_optimum(n)
    z = np.maximum(x - np.random.default_rng(7).uniform(0.0, 2.0, n), 0.0)
    problem = NonStationaryLP(base=model_n(n), drift=drift)
    cfg = TargetingConfig(points_per_cohort=8, spacing=1.0)

    def trace_text():
        return run_targeting(problem, z, cfg, 30, BsfExecutor("sequential-sim", p)).csv_text()

    screened = trace_text()
    monkeypatch.setattr(nslp.targeting, "process_cohorts",
                        lambda lp, cross, cohorts, plan=None:
                        _process_cohorts_exact(lp, cross, cohorts))
    assert screened == trace_text()


def _row6_snapshots():
    """Snapshots of ``x_i <= 10`` (i < 6) plus one row that changes its zero
    pattern from each snapshot to the next: zeros turn into nonzeros, then
    back into exact 0.0, and the row ends violated at the center ones(6)."""
    def lp(row, b6):
        A = np.vstack([np.eye(6), row])
        return DenseLP(A, np.append(np.full(6, 10.0), b6), np.ones(6))

    return [lp([0, 0, 0, 0, 0, 1.0], 2.0),
            lp([0.25, 0.25, 0.25, 0.25, 0.25, 1.0], 2.75),  # a move past 2 is over
            lp([0, 0, 0, 0, 0, 1.0], 2.0),
            lp([0, 0.5, 0, 0.5, 0, 1.0], 3.0),
            lp([0, 0.5, 0, 0.5, 0, 0], 1.5),
            lp([0, 0.5, 0, 0.5, 0, 0], 0.5)]  # over at the center


class _ScriptedSnapshots:
    """A farm workload that sends one order per snapshot, each the delta
    from the one before, around a fixed center, and keeps the merged bests."""

    def __init__(self, lps, cross):
        self.lps, self.cross, self.bests = lps, cross, []

    @property
    def cohort_count(self):
        return self.cross.dimension

    def init(self, p_workers, partition):
        return TargetingWorkerSetup(self.lps[0], self.cross.spacing,
                                    self.cross.points_per_cohort)

    def make_order(self):
        k = len(self.bests)
        return make_order(self.lps[max(k - 1, 0)], self.lps[k], self.cross.center, k)

    def merge_results(self, results):
        return sorted((b for r in results for b in r.bests), key=lambda b: b.cohort)

    def evaluate(self, bests):
        self.bests.append(bests)

    def exit_check(self):
        return len(self.bests) == len(self.lps)

    def finalize(self):
        return self.bests


@pytest.mark.parametrize("p", [1, 3])
def test_worker_plan_follows_the_zero_pattern_of_every_order(p):
    lps = _row6_snapshots()
    cross = Cross(np.ones(6), 1.0, 8)
    bests, _ = BsfExecutor("sequential-sim", p).run(_ScriptedSnapshots(lps, cross))
    for lp, got in zip(lps, bests):
        assert got == _process_cohorts_exact(lp, cross, range(6))
    assert bests[1][0] == CohortBest(0, 2, 8.0)  # not the stale 4


def test_screen_results_are_not_views_of_the_plan():
    tg = nslp.targeting
    lp = _row6_snapshots()[1]
    steps = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    plan = tg._ScreenPlan()
    crosses = [Cross(np.ones(6), 1.0, 8), Cross(np.full(6, 3.0), 1.0, 8)]
    first = tg._screen(lp, crosses[0], range(6), steps, plan)[0]
    kept = first.copy()
    bests = process_cohorts(lp, crosses[0], range(6), plan)
    kept_bests = list(bests)
    assert not np.array_equal(tg._screen(lp, crosses[1], range(6), steps, plan)[0], kept)
    assert process_cohorts(lp, crosses[1], range(6), plan) != kept_bests
    assert np.array_equal(first, kept)
    assert bests == kept_bests == _process_cohorts_exact(lp, crosses[0], range(6))


def test_one_plan_follows_a_change_of_cohorts():
    lp = _row6_snapshots()[3]
    cross = Cross(np.ones(6), 1.0, 8)
    plan = nslp.targeting._ScreenPlan()
    for cohorts in ([0, 1], [2, 3], [1, 3, 5], range(6)):
        assert (process_cohorts(lp, cross, cohorts, plan)
                == _process_cohorts_exact(lp, cross, cohorts))


def test_one_plan_reads_every_new_lp_object():
    # the row sums 2^53-sized terms, so A @ p rounds a move of 2.5 down to 2
    # and the point is feasible though the rank-1 estimate puts it 0.5 over;
    # only the guard built from |A| keeps it for the exact check. The second
    # LP has the first one's zero pattern and a far larger guard, so a plan
    # that kept the first LP's |A[rows]| would rule offset 5 out.
    big = 2.0 ** 53
    cross = Cross(np.array([0.0, big, big]), 0.5, 10)
    c = np.array([1.0, 0.0, 0.0])
    lps = [DenseLP(np.array([[1.0, 1e-300, -1e-300]]), np.array([2.0]), c),
           DenseLP(np.array([[1.0, 1.0, -1.0]]), np.array([2.0]), c),  # same zeros
           DenseLP(np.array([[1.0, 1.0, 0.0]]), np.array([big + 2.0]), c)]  # other zeros
    plan = nslp.targeting._ScreenPlan()
    for lp, best in zip(lps, [4, 5, 5]):
        got = process_cohorts(lp, cross, [0], plan)
        assert got == _process_cohorts_exact(lp, cross, [0])
        assert got[0].offset == best


def test_one_plan_follows_crosses_and_cohort_lists_and_rejects_every_bad_call():
    rng = np.random.default_rng(5)
    plan = nslp.targeting._ScreenPlan()
    calls = [(6, 8, 1.0, range(6)), (6, 8, 0.5, range(6)), (6, 4, 0.5, range(6)),
             (6, 4, 0.5, [5, 1]), (4, 4, 0.5, [1, 3]), (4, 2, 2.0, (3, 0, 2)),
             (6, 8, 1.0, range(6))]
    for n, k, spacing, cohorts in calls:
        lp = model_n(n, theta=4.0)
        cross = Cross(_random_center(rng, n, 4.0), spacing, k)
        for bad, chi in [([0, n], n), ([-1, 2], -1), ([n], n), ([n], n)]:
            with pytest.raises(ValueError, match=f"^cohort {chi} out of range for dimension {n}$"):
                process_cohorts(lp, cross, bad, plan)
        assert (process_cohorts(lp, cross, cohorts, plan)
                == _process_cohorts_exact(lp, cross, cohorts))


def test_cohort_on_an_all_zero_column_matches_the_exact_loop():
    # no row of A touches x_1, so the screen sees no nonzero entry at all
    lp = DenseLP(A=np.array([[1.0, 0.0], [2.0, 0.0]]), b=np.array([1.0, 3.0]), c=np.ones(2))
    cross = Cross(np.array([0.5, 0.5]), 0.25, 4)
    assert process_cohorts(lp, cross, [1]) == _process_cohorts_exact(lp, cross, [1])


def test_all_zero_columns_in_the_middle_and_last_match_the_exact_loop():
    # columns 1 and 3 are all zero; x_2 <= 0.6 is the last row of column 2,
    # the row a cohort run cut short at its end would lose
    A = np.array([[1.0, 0.0, 1.0, 0.0],
                  [-1.0, 0.0, -2.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0]])
    lp = DenseLP(A, np.array([2.0, 0.0, 0.6]), np.ones(4))
    cross = Cross(np.full(4, 0.5), 0.25, 4)
    for cohorts in ([0, 1, 2, 3], [1, 2, 3], [2, 3], [3]):
        assert process_cohorts(lp, cross, cohorts) == _process_cohorts_exact(lp, cross, cohorts)
    assert process_cohorts(lp, cross, [2, 3])[0] == CohortBest(2, -1, 1.75)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_signed_last_column_matches_the_exact_loop(sign):
    # every nonzero of column 2 has one sign, so one of its ends is open
    A = np.array([[1.0, -1.0, sign * 1.0],
                  [-1.0, 1.0, sign * 2.0],
                  [2.0, 1.0, sign * 0.5]])
    center = np.array([0.5, 0.5, 1.0])
    lp = DenseLP(A, A @ center + np.array([0.3, 0.7, 0.2]), np.array([1.0, -1.0, sign]))
    cross = Cross(center, 0.25, 8)
    for cohorts in ([0, 2], [1, 2], [2]):
        assert process_cohorts(lp, cross, cohorts) == _process_cohorts_exact(lp, cross, cohorts)


def test_points_on_both_interval_ends_go_to_the_exact_check(monkeypatch):
    # 0.25 <= x_0 <= 1: offset -1 lands on the lower end (a row with a < 0)
    # and offset +2 on the upper end; the screen decides neither, and with
    # every cohort-0 value tied both stay candidates for the best
    lp = DenseLP(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -0.25]),
                 np.array([0.0, 1.0]))
    cross = _square_cross()
    checked = []

    def counting(lp, p):
        checked.append(p.tolist())
        return max_violation(lp, p)

    monkeypatch.setattr(nslp.targeting, "max_violation", counting)
    bests = process_cohorts(lp, cross, [0])
    assert sorted(checked) == [[0.25, 0.5], [1.0, 0.5]]
    assert bests == _process_cohorts_exact(lp, cross, [0]) == [CohortBest(0, -1, 0.5)]


@pytest.mark.parametrize("a, x0, b", [(3.0, 0.0, 7.0), (-3.0, 2.0, -1.0)])
def test_screen_ends_carry_the_rounding_widening(a, x0, b):
    # white box, one row a*x_0 + x_1 <= b with cohort 0 moving toward it: the
    # sure end moves in by 8eps|end| + tiny and is divided by 1 + gamma, the
    # not-over end moves out and is divided by 1 - gamma. A point on either
    # widened end is _UNSURE; one ulp inside the sure end is _FEASIBLE and
    # one ulp past the not-over end _INFEASIBLE
    lp = DenseLP(np.array([[a, 1.0]]), np.array([b]), np.ones(2))
    center = np.array([x0, 0.5])
    f64 = np.finfo(np.float64)
    gamma = 2.0 * (lp.n + 2) * f64.eps
    r0 = (lp.A @ center - lp.b)[0]
    g = gamma * (np.abs(lp.A) @ np.abs(center) + abs(b))[0] + f64.tiny
    sure = -(r0 + g) / abs(a)
    sure = (sure - (8.0 * f64.eps * abs(sure) + f64.tiny)) / (1.0 + gamma)
    over = (g - r0) / abs(a)
    over = (over + (8.0 * f64.eps * abs(over) + f64.tiny)) / (1.0 - gamma)
    steps = np.sign(a) * np.array([np.nextafter(sure, 0.0), sure,
                                   over, np.nextafter(over, np.inf)])
    assert np.array_equal((x0 + steps) - x0, steps)  # every move is exact
    tg = nslp.targeting
    verdicts = tg._screen(lp, Cross(center, 1.0, 2), [0], steps)[0]
    assert verdicts.tolist() == [[tg._FEASIBLE, tg._UNSURE, tg._UNSURE, tg._INFEASIBLE]]


def _value_guard_case(x0, c1=0.0):
    """Cohort 0 of ``x_0 <= 4 x0`` around the center (x0, 0), with c = (1,
    c1) and every point surely feasible. Returns the LP, the cross and the
    steps of three points: one whose ``est + guard`` is one ulp below the
    cohort's floor, one whose ``est + guard`` is exactly on it, and the best
    point (2 x0, 0), which sets the floor ``est - guard``. The guard is
    formed here as the screen forms it."""
    lp = DenseLP(np.eye(2), np.array([4.0 * x0, 2.0]), np.array([1.0, c1]))
    center = np.array([x0, 0.0])
    f64 = np.finfo(np.float64)
    gamma = 2.0 * (lp.n + 2) * f64.eps

    def est_guard(p):  # of the cohort-0 point (p, 0)
        ct = lp.c[0] * (p - x0)
        return lp.c @ center + ct, gamma * (np.abs(lp.c) @ np.abs(center) + abs(ct)) + f64.tiny

    def top(p):
        est, guard = est_guard(p)
        return est + guard

    est, guard = est_guard(2.0 * x0)
    floor = est - guard
    p = floor - guard  # near where est + guard meets the floor; walk onto it
    while top(p) > floor:
        p = np.nextafter(p, -np.inf)
    while top(np.nextafter(p, np.inf)) <= floor:
        p = np.nextafter(p, np.inf)
    below = np.nextafter(p, -np.inf)
    assert top(p) == floor and top(below) == np.nextafter(floor, -np.inf)
    steps = np.array([below, p, 2.0 * x0]) - x0
    assert np.array_equal((x0 + steps) - x0, steps)  # every move is exact
    return lp, Cross(center, 1.0, 2), steps


@pytest.mark.parametrize("x0", [1.0, 1e-300])  # guard mostly gamma * bound, or mostly tiny
def test_value_guard_keeps_a_point_on_its_cohorts_floor(x0):
    # white box: a point whose est + guard equals the floor may still tie the
    # best and stays a candidate; one ulp below, it is dropped
    lp, cross, steps = _value_guard_case(x0)
    tg = nslp.targeting
    verdicts, candidates = tg._screen(lp, cross, [0], steps)
    assert verdicts.tolist() == [[tg._FEASIBLE] * 3]
    assert candidates.tolist() == [[False, True, True]]


def test_value_screen_keeps_every_point_within_a_factor_two_of_overflow():
    # cohort 1's bound |c|@|center| + |c_1 t| lies in [max/2, max): the
    # guard is not trusted there, so no point of any cohort is dropped
    lp, cross, steps = _value_guard_case(1.0, c1=1.2e308)
    f64 = np.finfo(np.float64)
    bound = np.abs(lp.c) @ np.abs(cross.center) + np.abs(lp.c[1] * steps)
    assert ((f64.max / 2.0 <= bound) & (bound < f64.max)).all()
    tg = nslp.targeting
    assert tg._screen(lp, cross, [0], steps)[1].tolist() == [[False, True, True]]
    verdicts, candidates = tg._screen(lp, cross, [0, 1], steps)
    assert verdicts.tolist() == [[tg._FEASIBLE] * 3] * 2
    assert candidates.all()


@pytest.mark.parametrize("b0", [2e17, 1e17, 5e16])
def test_steps_lost_to_rounding_match_the_exact_loop(b0):
    # (1e17 + s) - 1e17 == 0 for s <= 4: every cohort-0 point is the center,
    # strictly inside, exactly on the face and outside it in turn
    lp = DenseLP(np.eye(2), np.array([b0, 1.0]), np.ones(2))
    cross = Cross(np.array([1e17, 0.5]), 1.0, 8)
    assert ((cross.center[0] + 4.0) - cross.center[0]) == 0.0
    bests = process_cohorts(lp, cross, [0, 1])
    assert bests == _process_cohorts_exact(lp, cross, [0, 1])
    assert (bests[0].offset is None) == (b0 < 1e17)


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
    assert bests == _process_cohorts_exact(unit_square, _square_cross(), [0, 1])


def test_overflowing_points_go_to_the_exact_check(unit_square):
    # center + spacing overflows to inf on axis 0: the exact product then
    # meets 0 * inf, and the screen must not decide such points itself
    cross = Cross(np.array([1.7e308, 5.0]), 1e308, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert (process_cohorts(unit_square, cross, [0, 1])
                == _process_cohorts_exact(unit_square, cross, [0, 1]))


def test_nan_residual_is_a_violation(unit_square):
    # 0 * inf in A @ x is NaN: it must not read as a satisfied row
    with np.errstate(over="ignore", invalid="ignore"):
        assert max_violation(unit_square, np.array([math.inf, 5.0])) != 0.0
        bests = process_cohorts(unit_square, Cross(np.array([1.7e308, 5.0]), 1e308, 2), [0, 1])
    assert bests == [CohortBest(0), CohortBest(1)]


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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 4, 8]),
       spacing=st.sampled_from([1e-17, 1e-9, 0.25, 1.0, 3.7]))
def test_evaluate_centroid_is_the_mean_of_the_built_winners(seed, k, spacing):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    center = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
    center[int(rng.integers(0, n))] = -1.0  # infeasible: evaluate never holds
    cross = Cross(center, spacing, k)
    offsets = [e for e in range(-k // 2, k // 2 + 1) if e != 0]
    bests = [CohortBest(chi) if rng.random() < 0.3
             else CohortBest(chi, int(rng.choice(offsets)), float(rng.normal()))
             for chi in range(n)]
    won = [b for b in bests if b.offset is not None]
    new = evaluate(model_n(n), TargetingState(cross=cross, clock=0),
                   [bests[i] for i in rng.permutation(n)])
    assert new.last_q_size == len(won)
    if not won:
        assert not new.moved and new.stalls == 1
        return
    want = np.mean(np.vstack([point_of(cross, Marker(b.cohort, b.offset)) for b in won]),
                   axis=0)
    assert new.moved
    assert new.cross.center.tobytes() == want.tobytes()


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
        assert merged == whole


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


def test_oracle_gap_is_nan_where_the_snapshot_is_infeasible(unit_square_explicit):
    # the box slides off the nonnegative orthant: snapshots from clock 3 on
    # are infeasible, and the run still finishes with a NaN gap on those rows
    problem = NonStationaryLP(base=unit_square_explicit,
                              drift=DriftSpec(kind="translate",
                                              translate_vector=np.array([-0.4, 0.0])))
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25, oracle_gap=True)
    trace = run_targeting(problem, np.array([0.5, 0.5]), cfg, 5, BsfExecutor())
    assert [r.clock for r in trace.rows] == [0, 1, 2, 3, 4]
    assert all(math.isfinite(r.oracle_gap) for r in trace.rows[:3])
    assert all(math.isnan(r.oracle_gap) for r in trace.rows[3:])


def test_run_targeting_validation(unit_square):
    problem = NonStationaryLP(base=unit_square)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 0, BsfExecutor())
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(3), cfg, 1, BsfExecutor())
    with pytest.raises(ValueError):
        TargetingConfig(stall_limit=0)


@pytest.mark.parametrize("field, value", [
    ("points_per_cohort", 3), ("points_per_cohort", 0), ("spacing", 0.0),
    ("spacing", float("nan")), ("spacing", float("inf"))])
def test_targeting_config_checks_the_cross_settings(field, value):
    # at construction, before any workload or cross exists
    with pytest.raises(ValueError, match="points per cohort|spacing"):
        TargetingConfig(**{field: value})


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


def test_the_callers_start_array_stays_writable():
    z = np.zeros(4)
    problem = NonStationaryLP(model_n(4))
    cfg = TargetingConfig(points_per_cohort=2)
    wl = TargetingWorkload(problem, z, cfg, 1)
    run_targeting(problem, z, cfg, 2, BsfExecutor())
    assert z.flags.writeable
    z[0] = 1.0  # the session took its own copy
    assert wl.state.cross.center[0] == 0.0


def _recovering_run():
    """A random-sparse drift that loses the cross and recovers it several
    times in 30 iterations."""
    problem = NonStationaryLP(base=model_n(6), drift=DriftSpec(
        kind="random-sparse", delta=1.0, magnitude=0.5, seed=9))
    x, _ = model_n_optimum(6)
    start = np.maximum(x - np.random.default_rng(3).uniform(0.0, 2.0, 6), 0.0)
    cfg = TargetingConfig(points_per_cohort=4, spacing=1.0, stall_limit=3,
                          quest=FejerConfig(refresh_every=5))
    return problem, start, cfg


def test_recovery_starts_from_the_held_snapshot(monkeypatch):
    problem, start, cfg = _recovering_run()
    replayed = []
    real_pseudo_project = nslp.targeting.pseudo_project

    def replaying(*args, lp=None, **kwargs):
        replayed.append(lp is not None)
        return real_pseudo_project(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(nslp.targeting, "pseudo_project", replaying)
        reference = run_targeting(problem, start, cfg, 30, BsfExecutor())
    assert reference.requests >= 1 and len(replayed) == reference.requests
    assert all(replayed), "the workload should hand its snapshot to the recovery"

    snapshots = []
    real_snapshot = nslp.quest.snapshot

    def counted(*args):
        snapshots.append(args[1])
        return real_snapshot(*args)

    monkeypatch.setattr(nslp.quest, "snapshot", counted)
    monkeypatch.setattr(nslp.targeting, "snapshot", counted)
    trace = run_targeting(problem, start, cfg, 30, BsfExecutor())
    assert trace.requests == reference.requests
    assert snapshots == [problem.clock]  # the workload's initial snapshot only
    assert trace.csv_text() == reference.csv_text()


def test_the_bench_bindings_are_called_through_their_modules(monkeypatch):
    # bench/harness.py times each layer by rebinding these module attributes;
    # a call that went around one would read 0 in its metric unnoticed
    bindings = [(nslp.targeting, name) for name in (
        "point_of", "max_violation", "process_cohorts", "apply_delta", "advance",
        "pseudo_project")] + [(nslp.bsf, name) for name in (
            "delta_between", "order_to_bytes", "order_from_bytes")]
    calls = {}
    for module, name in bindings:
        key = f"{module.__name__}.{name}"
        calls[key] = 0

        def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    problem, start, cfg = _recovering_run()
    trace = run_targeting(problem, start, cfg, 30, BsfExecutor("sequential-sim", 2))
    assert trace.requests >= 1
    assert all(calls.values()), calls

from dataclasses import replace

import numpy as np
import pytest

from nslp import (CostParams, RunMetrics, ScenarioModel, calibrate, efficiency,
                  predict_curves, scalability_bound, scenario_params, speedup)
from nslp.cost_model import CURVES_CSV_HEADER, curves_to_csv, delta_fraction


def _params(p=1, latency=0.0, ts=0.0, tr=0.0, tp=0.0, tw=1.0) -> CostParams:
    return CostParams(p_workers=p, latency_ns=latency, t_s_ns=ts, t_r_ns=tr,
                      t_p_ns=tp, t_w_ns=tw)


# --- speedup -----------------------------------------------------------------


def test_speedup_is_exactly_one_at_single_worker():
    rng = np.random.default_rng(0)
    for _ in range(500):
        vals = rng.uniform(0.0, 1e9, 5)
        p = _params(1, *vals[:4], tw=vals[4] + 1e-6)
        assert speedup(p) == 1.0


def test_speedup_ideal_linear():
    assert speedup(_params(p=2, tw=10.0)) == 2.0


def test_speedup_direct_substitution():
    # 2L + ts = 1, tr + tp = 0, tw = 100, P = 10 -> 1010/200
    p = _params(p=10, latency=0.0, ts=1.0, tw=100.0)
    assert speedup(p) == pytest.approx(5.05, abs=0)


def test_speedup_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        speedup(_params(p=1, tw=0.0))


# --- efficiency ----------------------------------------------------------------


def test_efficiency_perfect():
    assert efficiency(_params(p=1, tw=5.0)) == 1.0


def test_efficiency_balanced_overhead():
    # P^2(2L+ts) + P(tr+tp) == tw  ->  1/2
    p = _params(p=2, latency=0.0, ts=2.0, tr=1.0, tp=0.0, tw=10.0)
    assert efficiency(p) == 0.5


def test_efficiency_times_p_close_to_speedup_when_overhead_small():
    rng = np.random.default_rng(1)
    for _ in range(100):
        tw = rng.uniform(1e8, 1e10)
        p = _params(p=int(rng.integers(1, 9)), latency=rng.uniform(0, 1e4),
                    ts=rng.uniform(0, 1e5), tr=rng.uniform(0, 1e5),
                    tp=rng.uniform(0, 1e6), tw=tw)
        assert efficiency(p) * p.p_workers == pytest.approx(speedup(p), rel=0.05)


def test_efficiency_monotone_decreasing_in_p():
    base = _params(latency=100.0, ts=500.0, tr=200.0, tp=300.0, tw=1e7)
    values = [efficiency(replace(base, p_workers=p)) for p in range(1, 20)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_efficiency_requires_positive_work():
    with pytest.raises(ZeroDivisionError):
        efficiency(_params(tw=0.0))


# --- scalability bound -----------------------------------------------------------


def test_bound_direct_values():
    assert scalability_bound(_params(tw=100.0, latency=0.0, ts=1.0)) == 10.0
    assert scalability_bound(_params(tw=400.0, latency=1.5, ts=1.0)) == 10.0


def test_bound_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        scalability_bound(_params(latency=0.0, ts=0.0))


# --- scenarios -------------------------------------------------------------------


def test_delta_fraction():
    assert delta_fraction("full", 100) == 1.0
    assert delta_fraction("one-row", 100) == 1.0 / 202.0
    assert delta_fraction("custom", 100, 0.25) == 0.25


def test_scenario_params_shapes():
    m = ScenarioModel(n=10, delta_mode="full", latency_ns=5.0)
    p = scenario_params(m, 3)
    assert p.p_workers == 3
    assert p.latency_ns == 5.0
    assert p.t_s_ns == 11.0 ** 2 + 11.0
    assert p.t_w_ns == 10.0 ** 3 + 100.0 + 10.0
    assert p.t_r_ns == 10.0
    assert p.t_p_ns == 100.0


def test_bound_ratio_full_change_follows_sqrt_law():
    n = 100_000
    b1 = scalability_bound(scenario_params(ScenarioModel(n=n, delta_mode="full"), 1))
    b4 = scalability_bound(scenario_params(ScenarioModel(n=4 * n, delta_mode="full"), 1))
    assert b4 / b1 == pytest.approx(2.0, rel=0.10)


def test_bound_ratio_one_row_follows_linear_law():
    n = 1_000_000
    b1 = scalability_bound(scenario_params(ScenarioModel(n=n, delta_mode="one-row"), 1))
    b2 = scalability_bound(scenario_params(ScenarioModel(n=2 * n, delta_mode="one-row"), 1))
    assert b2 / b1 == pytest.approx(2.0, rel=0.10)


def test_loglog_slopes_of_bound():
    ns = np.logspace(3, 6, 13)
    for mode, want in (("full", 0.5), ("one-row", 1.0)):
        bounds = [scalability_bound(scenario_params(
            ScenarioModel(n=int(n), delta_mode=mode, latency_ns=0.0), 1)) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(bounds), 1)[0]
        assert slope == pytest.approx(want, abs=0.05)


def test_full_change_efficiency_saturates_at_n_equals_p_squared():
    # e ~ 1/(1 + P^2/O(n)): at n = P^2 the efficiency settles near a constant
    values = []
    for p in (20, 50, 100):
        m = ScenarioModel(n=p * p, delta_mode="full")
        values.append(efficiency(scenario_params(m, p)))
    assert all(0.4 < e < 0.6 for e in values)
    assert max(values) / min(values) < 1.25


# --- prediction curves ----------------------------------------------------------


def test_predict_curves_speedup_unimodal_and_bound_constant():
    model = ScenarioModel(n=500, delta_mode="one-row", latency_ns=1e4)
    rows = predict_curves(model, range(1, 600, 3))
    speeds = [r.speedup for r in rows]
    peak = int(np.argmax(speeds))
    assert all(b >= a for a, b in zip(speeds[:peak], speeds[1:peak + 1]))
    assert all(b <= a for a, b in zip(speeds[peak:], speeds[peak + 1:]))
    assert len({r.bound for r in rows}) == 1


def test_speedup_near_maximum_at_floor_of_bound():
    model = ScenarioModel(n=400, delta_mode="full", latency_ns=1e4)
    bound = scalability_bound(scenario_params(model, 1))
    rows = predict_curves(model, range(1, int(3 * bound)))
    best = max(r.speedup for r in rows)
    at_bound = next(r.speedup for r in rows if r.p_workers == int(bound))
    assert at_bound >= 0.75 * best


def test_curves_csv(tmp_path):
    rows = predict_curves(ScenarioModel(n=50, delta_mode="full"), [1, 2, 4])
    path = tmp_path / "curves.csv"
    curves_to_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CURVES_CSV_HEADER
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"


# --- calibration ------------------------------------------------------------------


def _metrics_from_model(model: ScenarioModel, n: int) -> RunMetrics:
    p = scenario_params(replace(model, n=n), 1)
    return RunMetrics(p_workers=1, latency_ns=model.latency_ns, t_s_ns=p.t_s_ns,
                      t_v_ns=p.t_w_ns, t_r_ns=p.t_r_ns, t_p_ns=p.t_p_ns, t_w_ns=p.t_w_ns)


def test_calibrate_recovers_constants():
    truth = ScenarioModel(n=200, delta_mode="one-row", c_s=3.0, c_w=0.5, c_r=7.0,
                          c_p=2.0, latency_ns=1234.0)
    measured = [(n, _metrics_from_model(truth, n)) for n in (100, 200)]
    fit = calibrate(measured, delta_mode="one-row")
    assert fit.c_s == pytest.approx(3.0, rel=1e-9)
    assert fit.c_w == pytest.approx(0.5, rel=1e-9)
    assert fit.c_r == pytest.approx(7.0, rel=1e-9)
    assert fit.c_p == pytest.approx(2.0, rel=1e-9)
    assert fit.latency_ns == pytest.approx(1234.0)
    with pytest.raises(ValueError):
        calibrate([])


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(p_workers=0, latency_ns=0, t_s_ns=0, t_r_ns=0, t_p_ns=0, t_w_ns=1)
    with pytest.raises(ValueError):
        CostParams(p_workers=1, latency_ns=-1, t_s_ns=0, t_r_ns=0, t_p_ns=0, t_w_ns=1)


@pytest.mark.parametrize("field", ["latency_ns", "t_s_ns", "t_r_ns", "t_p_ns", "t_w_ns"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_cost_params_rejects_bad_costs(field, value):
    with pytest.raises(ValueError, match=field):
        replace(_params(), **{field: value})


def test_scenario_model_validation():
    with pytest.raises(ValueError):
        ScenarioModel(n=1)
    with pytest.raises(ValueError):
        ScenarioModel(n=10, delta_mode="weird")
    with pytest.raises(ValueError):
        ScenarioModel(n=10, delta_mode="custom")
    with pytest.raises(ValueError):
        ScenarioModel(n=10, c_s=0.0)


@pytest.mark.parametrize("field, bad", [
    ("c_s", float("nan")), ("c_w", float("nan")), ("c_r", float("inf")), ("c_p", float("nan")),
    ("latency_ns", float("nan")), ("latency_ns", float("inf")), ("latency_ns", -1.0)])
def test_scenario_model_rejects_bad_costs(field, bad):
    with pytest.raises(ValueError, match=field):
        ScenarioModel(n=10, **{field: bad})

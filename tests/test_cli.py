import re

import numpy as np
import pytest

from nslp import model_n, write_problem
from nslp.cli import RESULTS_HEADER, build_parser, main


def _run(argv) -> int:
    return main(argv)


SCENARIO_FLAGS = {"--n", "--delta", "--workers", "--out"}
# the flags of a solver run, which predict does not read
SOLVER_FLAGS = {"--k", "--spacing", "--drift", "--drift-magnitude", "--iters",
                 "--stall-limit", "--seed", "--theta", "--quest-tolerance",
                 "--quest-max-iter", "--quest-lambda", "--backend", "--problem-file"}
FLAGS = {
    "run": SCENARIO_FLAGS | SOLVER_FLAGS | {"--latency-ns"},
    "track": SCENARIO_FLAGS | SOLVER_FLAGS | {"--oracle-gap", "--start"},
    "predict": SCENARIO_FLAGS | {"--latency-ns", "--cs", "--cw", "--cr", "--cp",
                                 "--metrics", "--metrics-n"},
}


def test_help_screens(capsys):
    for sub, flags in FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"} == flags, sub


@pytest.mark.parametrize("flag", sorted(SOLVER_FLAGS))
def test_predict_rejects_solver_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--n", "50", flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--workers", "1,2"], ["--latency-ns", "5"]])
def test_track_usage_errors(tmp_path, extra):
    with pytest.raises(SystemExit) as exc:
        main(["track", "--n", "4", "--iters", "2", *extra, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_track_writes_trace_and_is_deterministic(tmp_path, capsys):
    args = ["track", "--n", "4", "--iters", "6", "--spacing", "0.25", "--k", "4",
            "--backend", "sim", "--seed", "3"]
    assert _run(args + ["--out", str(tmp_path / "a")]) == 0
    assert _run(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b
    header = a.decode().split("\n", 1)[0]
    assert header == "iter,clock,center_0,center_1,center_2,center_3,objective," \
                     "residual,moved,oracle_gap"
    out = capsys.readouterr().out
    assert "final objective" in out and "moved rate" in out


def test_track_zero_iterations_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["track", "--n", "4", "--iters", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_track_bad_delta_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["track", "--n", "4", "--delta", "nope", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_run_sim_outputs(tmp_path):
    out = tmp_path / "run"
    assert _run(["run", "--n", "6", "--iters", "5", "--workers", "1,2,3",
                 "--spacing", "0.5", "--k", "4", "--backend", "sim",
                 "--out", str(out)]) == 0
    results = (out / "results.csv").read_text().strip().split("\n")
    assert results[0] == RESULTS_HEADER
    assert len(results) == 4
    first = results[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == 1.0  # measured speedup at the baseline
    for name in ("metrics.csv", "trace.csv", "predicted.csv", "speedup.svg",
                 "efficiency.svg"):
        assert (out / name).exists()
    metrics_lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert metrics_lines[0] == "P,L_ns,ts_ns,tv_ns,tr_ns,tp_ns,tw_ns"
    assert len(metrics_lines) == 4


def test_run_predicted_columns_match_cost_model(tmp_path):
    from nslp import RunMetrics, calibrate, predict_curves

    out = tmp_path / "run"
    assert _run(["run", "--n", "6", "--iters", "4", "--workers", "1,2",
                 "--spacing", "0.5", "--k", "4", "--backend", "sim",
                 "--delta", "one-row", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().split("\n")[1:]
    mrows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
    p1 = mrows[0].split(",")
    metrics = RunMetrics(p_workers=int(p1[0]), latency_ns=float(p1[1]),
                         t_s_ns=float(p1[2]), t_v_ns=float(p1[3]),
                         t_r_ns=float(p1[4]), t_p_ns=float(p1[5]), t_w_ns=float(p1[6]))
    model = calibrate([(6, metrics)], delta_mode="one-row")
    expect = predict_curves(model, [1, 2])
    for line, exp in zip(rows, expect):
        cols = line.split(",")
        assert float(cols[4]) == pytest.approx(exp.speedup, rel=1e-12)
        assert float(cols[5]) == pytest.approx(exp.efficiency, rel=1e-12)
        assert float(cols[6]) == pytest.approx(exp.bound, rel=1e-12)


def test_run_pool_small(tmp_path):
    out = tmp_path / "pool"
    assert _run(["run", "--n", "6", "--iters", "3", "--workers", "1,2",
                 "--spacing", "0.5", "--k", "2", "--backend", "pool",
                 "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(float(r.split(",")[1]) > 0 for r in rows)


def test_run_sim_measured_agrees_with_prediction(tmp_path):
    # under the simulator the measured clock follows the cost decomposition,
    # so the measured-vs-predicted pipeline must agree tightly end to end
    out = tmp_path / "agree"
    assert _run(["run", "--n", "50", "--iters", "4", "--workers", "1,2,4,8",
                 "--spacing", "0.5", "--k", "4", "--backend", "sim",
                 "--delta", "one-row", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().split("\n")[1:]
    for line in rows:
        cols = line.split(",")
        measured, predicted = float(cols[2]), float(cols[4])
        assert abs(measured - predicted) / predicted <= 0.20, cols


def test_run_sim_results_are_reproducible(tmp_path):
    args = ["run", "--n", "8", "--iters", "4", "--workers", "1,2", "--spacing",
            "0.5", "--k", "4", "--backend", "sim", "--seed", "9"]
    assert _run(args + ["--out", str(tmp_path / "a")]) == 0
    assert _run(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("results.csv", "metrics.csv", "trace.csv", "predicted.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_missing_problem_file_is_runtime_error(tmp_path, capsys):
    code = main(["track", "--n", "4", "--iters", "2", "--problem-file",
                 str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--spacing", "nan"), ("--spacing", "inf"),
                                         ("--quest-tolerance", "nan")])
def test_track_rejects_non_finite_settings(tmp_path, capsys, flag, value):
    code = main(["track", "--n", "6", "--iters", "3", flag, value,
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_with_drift(tmp_path):
    out = tmp_path / "drift"
    assert _run(["run", "--n", "8", "--iters", "4", "--workers", "1,2",
                 "--spacing", "0.5", "--k", "4", "--backend", "sim",
                 "--drift", "random", "--delta", "one-row", "--drift-magnitude", "0.1",
                 "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


def test_predict_multi_dimension_slopes(tmp_path):
    out = tmp_path / "pred"
    ns = [1000, 10_000, 100_000, 1_000_000]
    assert _run(["predict", "--n", ",".join(map(str, ns)), "--workers", "1,2,4",
                 "--delta", "full", "--latency-ns", "0", "--out", str(out)]) == 0
    bounds = []
    for n in ns:
        lines = (out / f"predicted_n{n}.csv").read_text().strip().split("\n")
        assert lines[0] == "P,speedup_pred,efficiency_pred,bound"
        bounds.append(float(lines[1].split(",")[3]))
    slope = np.polyfit(np.log(ns), np.log(bounds), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)

    out2 = tmp_path / "pred2"
    assert _run(["predict", "--n", ",".join(map(str, ns)), "--workers", "1,2",
                 "--delta", "one-row", "--latency-ns", "0", "--out", str(out2)]) == 0
    bounds2 = [float((out2 / f"predicted_n{n}.csv").read_text().strip()
                     .split("\n")[1].split(",")[3]) for n in ns]
    slope2 = np.polyfit(np.log(ns), np.log(bounds2), 1)[0]
    assert slope2 == pytest.approx(1.0, abs=0.05)


def test_predict_deterministic(tmp_path):
    args = ["predict", "--n", "500", "--workers", "1,2,4,8", "--delta", "one-row"]
    assert _run(args + ["--out", str(tmp_path / "a")]) == 0
    assert _run(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "predicted.csv").read_bytes() == \
        (tmp_path / "b" / "predicted.csv").read_bytes()


def test_predict_from_metrics_file(tmp_path, capsys):
    # predict calibrates as run did: at the smallest P (not the first row),
    # with the measured L (0 here, not predict's 1e4 fallback)
    run, pred = tmp_path / "run", tmp_path / "pred"
    assert _run(["run", "--n", "8", "--iters", "3", "--workers", "2,1,4", "--backend", "sim",
                 "--latency-ns", "0", "--out", str(run)]) == 0
    assert _run(["predict", "--n", "8", "--workers", "2,1,4",
                 "--metrics", str(run / "metrics.csv"), "--out", str(pred)]) == 0
    capsys.readouterr()
    assert (pred / "predicted.csv").read_bytes() == (run / "predicted.csv").read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-50000"])
def test_run_rejects_bad_latency_before_any_pass(tmp_path, monkeypatch, capsys, value):
    passes = []
    monkeypatch.setattr("nslp.cli.run_targeting", lambda *args: passes.append(args))
    code = main(["run", "--n", "6", "--iters", "3", "--workers", "1,2", "--backend", "sim",
                 "--latency-ns", value, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "latency_ns" in capsys.readouterr().err
    assert passes == []


def test_track_near_optimum_meets_oracle_gap_bound(tmp_path, capsys):
    # stationary synthetic instance, tracked from beside its known optimum:
    # the final gap to the exact optimum stays under s*sqrt(n)*max|c|
    out = tmp_path / "steady"
    assert _run(["track", "--n", "6", "--iters", "500", "--spacing", "0.1",
                 "--k", "8", "--start", "near-opt", "--backend", "sim",
                 "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    last = (out / "trace.csv").read_text().strip().split("\n")[-1]
    gap = float(last.split(",")[-1])
    bound = 0.1 * np.sqrt(6) * 6.0  # max weight of the n=6 instance is 6
    assert 0.0 <= gap <= bound


def test_track_oracle_gap_under_random_drift(tmp_path, capsys):
    # every snapshot over 60 steps of the random-drift scenario is feasible,
    # so the oracle must give each row a finite gap
    out = tmp_path / "drift"
    assert _run(["track", "--n", "50", "--drift", "random", "--oracle-gap", "on",
                 "--iters", "60", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "trace.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 60
    assert all(np.isfinite(float(r.split(",")[-1])) for r in rows)


def test_track_near_opt_rejects_problem_file(tmp_path):
    path = tmp_path / "prob.txt"
    write_problem(model_n(4), path)
    with pytest.raises(SystemExit) as exc:
        main(["track", "--n", "4", "--start", "near-opt", "--problem-file", str(path),
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_problem_file_flag(tmp_path):
    path = tmp_path / "prob.txt"
    write_problem(model_n(4), path)
    out = tmp_path / "track"
    assert _run(["track", "--n", "4", "--iters", "3", "--problem-file", str(path),
                 "--spacing", "0.5", "--k", "2", "--backend", "sim",
                 "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()


def test_thread_cap_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NSLP_THREADS", "1")
    out = tmp_path / "capped"
    assert _run(["run", "--n", "4", "--iters", "3", "--workers", "1,4",
                 "--spacing", "0.5", "--k", "2", "--backend", "sim",
                 "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["1"]
    assert "drops worker counts" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "track"])
def test_thread_cap_dropping_every_worker_count_is_usage_error(command, tmp_path,
                                                               monkeypatch, capsys):
    monkeypatch.setenv("NSLP_THREADS", "1")
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "4", "--iters", "2", "--workers", "2",
              "--backend", "sim", "--out", str(tmp_path / "capped")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "NSLP_THREADS=1" in err and "[2]" in err
    assert not (tmp_path / "capped").exists()


def test_parser_lists_required_flags():
    parser = build_parser()
    text = parser.format_help()
    assert "run" in text and "track" in text and "predict" in text

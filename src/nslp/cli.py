"""Batch experiment driver: run the tracker on the synthetic family under
drift across worker counts, collect cost metrics, and emit measured-versus
-predicted speedup/efficiency tables and charts."""

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bsf import BsfExecutor, RunMetrics, SimTiming, metrics_to_csv
from .charts import line_chart
from .cost_model import (DEFAULT_LATENCY_NS, ScenarioModel, calibrate,
                         curves_to_csv, delta_fraction, predict_curves)
from .lp import DriftSpec, NonStationaryLP, model_n, model_n_optimum, read_problem
from .quest import FejerConfig, pseudo_project
from .targeting import TargetingConfig, run_targeting

THREAD_CAP_ENV = "NSLP_THREADS"
_BACKENDS = {"sim": "sequential-sim", "pool": "worker-pool"}


def _add_scenario(p: argparse.ArgumentParser, *, n_default: int) -> None:
    """The flags every subcommand reads: dimension, change regime and output."""
    p.add_argument("--n", default=str(n_default),
                   help=f"problem dimension(s), comma separated (variables; default {n_default})")
    p.add_argument("--delta", default="one-row",
                   help="fraction of data entries changed per time unit: "
                        "full, one-row, or a float in [0,1] (default one-row)")
    p.add_argument("--out", default="out", help="output directory (default ./out)")


def _add_solver(p: argparse.ArgumentParser, *, backend_default: str) -> None:
    """The flags of a solver run (``run`` and ``track``): the drifting
    problem, the tracker's settings and the farm backend."""
    p.add_argument("--k", type=int, default=8, help="points per cohort, even (default 8)")
    p.add_argument("--spacing", type=float, default=1.0,
                   help="distance between neighbor cross points (problem units; default 1.0)")
    p.add_argument("--drift", choices=("none", "translate", "random"), default="none",
                   help="how the problem evolves per time unit (default none)")
    p.add_argument("--drift-magnitude", type=float, default=1.0,
                   help="translation distance or noise amplitude per time unit "
                        "(problem units; default 1.0)")
    p.add_argument("--iters", type=int, default=100,
                   help="tracking iterations per run (default 100)")
    p.add_argument("--stall-limit", type=int, default=10,
                   help="consecutive all-infeasible iterations before the "
                        "feasibility recovery re-runs (default 10)")
    p.add_argument("--seed", type=int, default=1, help="seed for generated data (default 1)")
    p.add_argument("--theta", type=float, default=200.0,
                   help="box size of the synthetic family (problem units; default 200)")
    p.add_argument("--quest-tolerance", type=float, default=1e-9,
                   help="feasibility residual accepted by the recovery phase (default 1e-9)")
    p.add_argument("--quest-max-iter", type=int, default=1_000_000,
                   help="iteration budget of the recovery phase (default 1e6)")
    p.add_argument("--quest-lambda", type=float, default=1.0,
                   help="relaxation coefficient in (0,2) (default 1.0)")
    p.add_argument("--backend", choices=tuple(_BACKENDS), default=backend_default,
                   help="sequential simulator or process worker pool "
                        f"(default {backend_default})")
    p.add_argument("--problem-file", default=None,
                   help="read the base problem from a plain-text matrix file "
                        "instead of generating the synthetic family")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} list: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError(f"empty {what} list")
    return vals


def _resolve_delta(text: str, n: int) -> tuple[str, float, float | None]:
    """Returns (mode, fraction, custom) for the scenario model and drift."""
    if text == "full":
        return "full", 1.0, None
    if text == "one-row":
        return "one-row", delta_fraction("one-row", n), None
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--delta must be full, one-row or a float, got {text!r}")
    if not 0.0 <= val <= 1.0:
        raise argparse.ArgumentTypeError("--delta float must lie in [0, 1]")
    return "custom", val, val


def _build_problem(args, n: int, delta: float) -> NonStationaryLP:
    if args.problem_file:
        base = read_problem(args.problem_file)
    else:
        base = model_n(n, theta=args.theta)
    if args.drift == "none":
        drift = DriftSpec()
    elif args.drift == "translate":
        v = np.full(base.n, args.drift_magnitude / math.sqrt(base.n))
        drift = DriftSpec(kind="translate", translate_vector=v, seed=args.seed)
    else:
        drift = DriftSpec(kind="random-sparse", delta=delta,
                          magnitude=args.drift_magnitude, seed=args.seed)
    return NonStationaryLP(base=base, drift=drift)


def _quest_config(args) -> FejerConfig:
    return FejerConfig(relaxation=args.quest_lambda, tolerance=args.quest_tolerance,
                       max_iterations=args.quest_max_iter)


def _targeting_config(args, oracle_gap: bool = False) -> TargetingConfig:
    return TargetingConfig(points_per_cohort=args.k, spacing=args.spacing,
                           stall_limit=args.stall_limit, quest=_quest_config(args),
                           oracle_gap=oracle_gap)


def _cap_workers(workers: list[int]) -> list[int]:
    cap = os.environ.get(THREAD_CAP_ENV)
    if not cap:
        return workers
    cap = int(cap)
    kept = [p for p in workers if p <= cap]
    dropped = [p for p in workers if p > cap]
    if not kept:
        raise argparse.ArgumentTypeError(
            f"{THREAD_CAP_ENV}={cap} drops every worker count {dropped}")
    if dropped:
        print(f"note: {THREAD_CAP_ENV}={cap} drops worker counts {dropped}", file=sys.stderr)
    return kept


def _session(args, workers: list[int]):
    """The preamble ``run`` and ``track`` share: a single ``--n``, the
    problem, the capped worker list and the output directory. Returns
    (problem, delta mode, custom delta, workers, out)."""
    ns = _parse_ints(args.n, "dimension")
    if len(ns) != 1:
        raise argparse.ArgumentTypeError(f"{args.command} takes a single --n")
    if args.iters < 1:
        raise argparse.ArgumentTypeError("--iters must be >= 1")
    mode, frac, custom = _resolve_delta(args.delta, ns[0])
    problem = _build_problem(args, ns[0], frac)
    workers = _cap_workers(workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return problem, mode, custom, workers, out


RESULTS_HEADER = "P,time_ns,speedup_meas,eff_meas,speedup_pred,eff_pred,bound"


def cmd_run(args) -> int:
    timing = SimTiming(latency_ns=args.latency_ns)
    problem, mode, custom, workers, out = _session(args, _parse_ints(args.workers, "worker"))
    n = problem.base.n
    bad = [p for p in workers if p < 1 or p > n]
    if bad:
        raise argparse.ArgumentTypeError(f"worker counts out of range [1, {n}]: {bad}")

    quest = pseudo_project(problem, np.zeros(n), _quest_config(args), clock=problem.clock)
    cfg = _targeting_config(args)

    runs: dict[int, tuple] = {}
    for p in workers:
        executor = BsfExecutor(_BACKENDS[args.backend], p, sim_timing=timing)
        trace = run_targeting(problem, quest.z, cfg, args.iters, executor)
        runs[p] = trace
        print(f"P={p}: {trace.metrics.iter_ns / 1e6:.3f} ms/iteration")

    base_p = min(workers)
    base = runs[base_p].metrics
    model = calibrate([(n, base)], delta_mode=mode, custom_delta=custom)
    pred = {r.p_workers: r for r in predict_curves(model, workers)}

    with open(out / "results.csv", "w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for p in workers:
            m = runs[p].metrics
            speed = base_p * base.iter_ns / m.iter_ns
            eff = speed / p
            r = pred[p]
            fh.write(f"{p},{m.iter_ns!r},{speed!r},{eff!r},"
                     f"{r.speedup!r},{r.efficiency!r},{r.bound!r}\n")

    metrics_to_csv([runs[p].metrics for p in workers], out / "metrics.csv")
    runs[base_p].to_csv(out / "trace.csv")
    curves_to_csv(predict_curves(model, workers), out / "predicted.csv")

    ps = list(workers)
    meas_speed = [base_p * base.iter_ns / runs[p].metrics.iter_ns for p in ps]
    pred_speed = [pred[p].speedup for p in ps]
    line_chart(out / "speedup.svg", f"speedup, n={n}", "workers", "speedup",
               [("measured", ps, meas_speed), ("predicted", ps, pred_speed)])
    line_chart(out / "efficiency.svg", f"parallel efficiency, n={n}", "workers", "efficiency",
               [("measured", ps, [s / p for s, p in zip(meas_speed, ps)]),
                ("predicted", ps, [pred[p].efficiency for p in ps])])
    bound = pred[ps[0]].bound
    print(f"wrote {out}/results.csv (scalability bound {bound:.1f} workers)")
    return 0


def cmd_track(args) -> int:
    problem, _, _, (p,), out = _session(args, [args.workers])
    n = problem.base.n
    if not 1 <= p <= n:
        raise argparse.ArgumentTypeError(f"worker count {p} out of range [1, {n}]")
    gap_mode = args.oracle_gap
    oracle_gap = gap_mode == "on" or (gap_mode == "auto" and n <= 12 and problem.base.m <= 100)

    start = np.zeros(n)
    if args.start == "near-opt":
        if args.problem_file:
            raise argparse.ArgumentTypeError(
                "--start near-opt needs the synthetic family (no --problem-file)")
        x_star, _ = model_n_optimum(n, theta=args.theta)
        rng = np.random.default_rng(args.seed)
        start = np.maximum(x_star - rng.uniform(0.0, 2 * args.spacing, n), 0.0)
    quest = pseudo_project(problem, start, _quest_config(args), clock=problem.clock)
    cfg = _targeting_config(args, oracle_gap=oracle_gap)
    trace = run_targeting(problem, quest.z, cfg, args.iters,
                          BsfExecutor(_BACKENDS[args.backend], p))
    trace.to_csv(out / "trace.csv")

    final = trace.final
    moved_rate = sum(r.moved for r in trace.rows) / len(trace.rows)
    stalls = sum(1 for r in trace.rows if r.q_size == 0)
    print(f"iterations:        {len(trace.rows)}")
    print(f"final objective:   {final.objective:.6g}")
    print(f"final residual:    {final.residual:.3g}")
    if oracle_gap:
        print(f"final oracle gap:  {final.oracle_gap:.6g}")
    print(f"moved rate:        {moved_rate:.3f}")
    print(f"stalled iterations:{stalls}")
    print(f"recoveries:        {trace.requests}")
    print(f"wrote {out}/trace.csv")
    return 0


def cmd_predict(args) -> int:
    ns = _parse_ints(args.n, "dimension")
    workers = _parse_ints(args.workers, "worker")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mode, _, custom = _resolve_delta(args.delta, ns[0])

    if args.metrics:
        # the same model ``run`` wrote: calibrated at the smallest P, with its measured L
        base = min(_read_metrics_csv(args.metrics), key=lambda m: m.p_workers)
        model = calibrate([(args.metrics_n or ns[0], base)], delta_mode=mode,
                          custom_delta=custom, latency_ns=args.latency_ns)
    else:
        latency = DEFAULT_LATENCY_NS if args.latency_ns is None else args.latency_ns
        model = ScenarioModel(n=ns[0], delta_mode=mode, custom_delta=custom,
                              c_s=args.cs, c_w=args.cw, c_r=args.cr, c_p=args.cp,
                              latency_ns=latency)

    speed_series, eff_series = [], []
    for n in ns:
        rows = predict_curves(replace(model, n=n), workers)
        name = out / ("predicted.csv" if len(ns) == 1 else f"predicted_n{n}.csv")
        curves_to_csv(rows, name)
        speed_series.append((f"n={n}", workers, [r.speedup for r in rows]))
        eff_series.append((f"n={n}", workers, [r.efficiency for r in rows]))
        print(f"n={n}: scalability bound {rows[0].bound!r} workers -> {name}")
    line_chart(out / "speedup.svg", "predicted speedup", "workers", "speedup", speed_series)
    line_chart(out / "efficiency.svg", "predicted efficiency", "workers", "efficiency", eff_series)
    return 0


def _read_metrics_csv(path) -> list[RunMetrics]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RunMetrics.CSV_HEADER:
            raise ValueError(f"unexpected metrics header {header!r}")
        for line in fh:
            p, latency, ts, tv, tr, tp, tw = line.strip().split(",")
            rows.append(RunMetrics(p_workers=int(p), latency_ns=float(latency),
                                   t_s_ns=float(ts), t_v_ns=float(tv), t_r_ns=float(tr),
                                   t_p_ns=float(tp), t_w_ns=float(tw)))
    if not rows:
        raise ValueError("metrics file has no rows")
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nslp",
        description="Track the optimum of a drifting dense LP on a master/worker "
                    "farm and compare measured against predicted scalability.")
    sub = parser.add_subparsers(dest="command", required=True)

    workers_help = "worker counts, comma separated (default 1..8)"
    p_run = sub.add_parser("run", help="measure speedup/efficiency across worker counts")
    _add_scenario(p_run, n_default=400)
    _add_solver(p_run, backend_default="pool")
    p_run.add_argument("--workers", default="1,2,3,4,5,6,7,8", help=workers_help)
    p_run.add_argument("--latency-ns", type=float, default=DEFAULT_LATENCY_NS,
                       help="synthetic one-byte latency L charged by the simulator "
                            "(nanoseconds; default 1e4); the pool measures its own")

    p_track = sub.add_parser("track", help="run one tracking session and dump its trace")
    _add_scenario(p_track, n_default=6)
    _add_solver(p_track, backend_default="sim")
    p_track.add_argument("--workers", type=int, default=1,
                         help="worker count (default 1)")
    p_track.add_argument("--oracle-gap", choices=("auto", "on", "off"), default="auto",
                         help="add the gap to the exact optimum to the trace, NaN "
                              "where the snapshot has none (auto: only at desk scale)")
    p_track.add_argument("--start", choices=("origin", "near-opt"), default="origin",
                         help="recovery-phase start point: the origin, or a "
                              "seeded point beside the synthetic family's known "
                              "optimum to measure steady-state tracking (default origin)")

    p_pred = sub.add_parser("predict", help="emit predicted curves only (no solver run)")
    _add_scenario(p_pred, n_default=400)
    p_pred.add_argument("--workers", default="1,2,3,4,5,6,7,8", help=workers_help)
    p_pred.add_argument("--latency-ns", type=float, default=None,
                        help="one-byte latency L of the scenario model (nanoseconds; "
                             "default: the measured L with --metrics, else 1e4)")
    p_pred.add_argument("--cs", type=float, default=1.0,
                        help="send-cost calibration constant (ns per unit; default 1)")
    p_pred.add_argument("--cw", type=float, default=1.0,
                        help="work-cost calibration constant (ns per unit; default 1)")
    p_pred.add_argument("--cr", type=float, default=1.0,
                        help="receive-cost calibration constant (ns per unit; default 1)")
    p_pred.add_argument("--cp", type=float, default=1.0,
                        help="evaluate-cost calibration constant (ns per unit; default 1)")
    p_pred.add_argument("--metrics", default=None,
                        help="calibrate from a measured metrics CSV instead of constants")
    p_pred.add_argument("--metrics-n", type=int, default=None,
                        help="dimension the metrics file was measured at (default: first --n)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "track": cmd_track, "predict": cmd_predict}
    try:
        return handlers[args.command](args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

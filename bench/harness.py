"""Workloads, timed passes, the correctness gate and the metric reductions
of the tracking benchmark.

Every pass drives one seeded tracking session through the public nslp API
and times it from outside: ``StampedWorkload`` wraps the
``TargetingWorkload`` handed to the farm and stamps each callback. The
sequential simulator's ``RunMetrics`` come from a synthetic clock, so they
are never read here; only the worker pool's measured ``RunMetrics`` feed
the ``bsf.*`` and ``cost_model.*`` numbers.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import pickle
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import nslp.bsf
import nslp.lp
import nslp.quest
import nslp.targeting
from nslp import (BsfExecutor, CostParams, DriftSpec, FejerConfig, NonStationaryLP,
                  TargetingConfig, model_n, model_n_optimum, pseudo_project,
                  scalability_bound, speedup)
from nslp.targeting import TargetingWorkload

from spans import Tracer, patched, totals_ns

K = 8
SPACING = 1.0
STALL_LIMIT = 10
FARM_WORKERS = 2
ITERATIONS = 100      # per pass: p90 then has 10 samples beyond it
SETUP_PROBES = 3      # extra one-iteration farm runs per run, for setup_s
LATENCY_ROUNDS = BsfExecutor().latency_rounds

SCOPE = (f"farm figures hold only for P<={FARM_WORKERS} workers on this machine's CPUs; "
         "acceptance criterion 9 (P up to 8 at n=400) is not reproducible here")


@dataclass(frozen=True)
class Workload:
    """One benchmark problem: ``model_n(n)`` under a drift kind."""

    n: int
    drift: str = "none"
    delta: float = 0.0
    magnitude: float = 1.0


# Each workload loads different modules (see bench/README.md): steady-n200
# is worker compute (targeting.process_cohorts); drift-full-n100 is the data
# path (lp.advance, delta_between, order decode) and the recovery (quest).
WORKLOADS = {
    "steady-n200": Workload(200),
    "drift-full-n100": Workload(100, "random-sparse", 1.0, 1e-3),
}

# name -> (unit, better); BENCHMARK.json at the repository root lists the same.
# Only metrics that stay steady across seeds on a 2-CPU box are end-to-end
# (bounded); the p90s sit on the edge of the recovery iterations and the
# farm's iteration times move with the host's load (see bench/README.md),
# so they are reported with the layers.
END_TO_END = {
    "serial_iter_ms_p50": ("ms", "lower"),
    "serial_iters_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "farm_iter_ms_p50": ("ms", "lower"),
    "serial_iter_ms_p90": ("ms", "lower"),
    "farm_iter_ms_p90": ("ms", "lower"),
    "farm_iters_per_s": ("1/s", "higher"),
    "moved_rate": ("ratio", "higher"),
    "stall_rate": ("ratio", "lower"),
    "final_residual": ("lp_units", "lower"),
    "fail_rate": ("ratio", "lower"),
    "lp.advance_ms": ("ms", "lower"),
    "lp.delta_between_ms": ("ms", "lower"),
    "lp.apply_delta_ms": ("ms", "lower"),
    "lp.delta_entries": ("count", "lower"),
    "lp.max_violation_calls": ("count", "lower"),
    "cross.point_builds": ("count", "lower"),
    "targeting.process_cohorts_ms": ("ms", "lower"),
    "targeting.process_cohorts_share": ("ratio", "lower"),
    "targeting.feasible_share": ("ratio", "higher"),
    "targeting.evaluate_ms": ("ms", "lower"),
    "targeting.q_size_mean": ("count", "higher"),
    "quest.recoveries": ("count", "lower"),
    "quest.recovery_ms": ("ms", "lower"),
    "quest.fejer_steps": ("count", "lower"),
    "quest.exit_residual": ("lp_units", "lower"),
    "quest.replay_steps": ("count", "lower"),
    "quest.replay_ms": ("ms", "lower"),
    "bsf.order_bytes": ("B", "lower"),
    "bsf.encode_ms": ("ms", "lower"),
    "bsf.decode_ms": ("ms", "lower"),
    "bsf.send_ms": ("ms", "lower"),
    "bsf.send_ms_p1": ("ms", "lower"),
    "bsf.recv_ms": ("ms", "lower"),
    "bsf.latency_us": ("us", "lower"),
    "bsf.t_v_ms": ("ms", "lower"),
    "bsf.t_v_spread_ms": ("ms", "lower"),
    "bsf.barrier_wait_ms": ("ms", "lower"),
    "bsf.worker_inflation": ("ratio", "lower"),
    "bsf.spawn_s": ("s", "lower"),
    "bsf.ping_s": ("s", "lower"),
    "bsf.setup_bytes": ("B", "lower"),
    "cost_model.bound": ("workers", "higher"),
    "cost_model.speedup_pred": ("ratio", "higher"),
    "cost_model.speedup_meas": ("ratio", "higher"),
    "cost_model.pred_err": ("ratio", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


# --- inputs ------------------------------------------------------------------


def make_inputs(w: Workload, seed: int) -> tuple[NonStationaryLP, np.ndarray]:
    """The seeded problem and start point: ``x*`` minus U(0, 2s) per
    coordinate, clipped at 0, as ``nslp track --start near-opt`` builds it.
    The same seed drives the drift."""
    if w.drift == "none":
        drift = DriftSpec()
    else:
        drift = DriftSpec(kind=w.drift, delta=w.delta, magnitude=w.magnitude, seed=seed)
    x_star, _ = model_n_optimum(w.n)
    rng = np.random.default_rng(seed)
    start = np.maximum(x_star - rng.uniform(0.0, 2 * SPACING, w.n), 0.0)
    return NonStationaryLP(base=model_n(w.n), drift=drift), start


def targeting_config() -> TargetingConfig:
    return TargetingConfig(points_per_cohort=K, spacing=SPACING, stall_limit=STALL_LIMIT)


# --- timed passes ------------------------------------------------------------


def farm_rss_mb() -> float:
    """Peak resident memory of this process plus its live children
    (the farm's workers), summed from each one's VmHWM. The master's part
    is its peak over its whole life so far."""
    pids = ["self"] + [str(p.pid) for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            total_kb += next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return total_kb / 1024.0


class _TracedSetup:
    """Worker-side setup with ``process_order`` in a span (in-process only)."""

    def __init__(self, inner, tracer: Tracer):
        self.init_state = inner.init_state
        self.process_order = tracer.timed("targeting.process_order", inner.process_order)


def order_mismatch(worker_lp, order, master_lp, center, clock):
    """Replay ``order`` the way a worker receives it (encode, decode, apply
    its delta to ``worker_lp``). Returns the LP the worker now holds and
    whether it, the center or the clock differ by a single bit from the
    master's own ``master_lp``, ``center`` and ``clock``."""
    got = nslp.bsf.order_from_bytes(nslp.bsf.order_to_bytes(order))
    lp = nslp.lp.apply_delta(worker_lp, got.delta)
    pairs = [(lp.A, master_lp.A), (lp.b, master_lp.b), (lp.c, master_lp.c), (got.theta, center)]
    same = got.clock == clock and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)
    return lp, not same


class StampedWorkload:
    """The farm workload protocol around a ``TargetingWorkload``, stamping
    each callback with ``perf_counter`` from outside. With ``check`` it also
    keeps the LP the workers hold and, after each order, checks it against
    the master's LP (``order_mismatch``); that time is kept out of the
    iteration stamps."""

    def __init__(self, inner: TargetingWorkload, tracer: Tracer | None = None,
                 check: bool = False):
        self.inner = inner
        self.tracer = tracer
        self.check = check
        self.worker_lp = None
        self.bad_orders: set[int] = set()
        self.check_s: list[float] = []
        self.cohort_count = inner.cohort_count
        self.setup = None
        self.init_end = 0.0
        self.order_starts: list[float] = []
        self.order_ends: list[float] = []
        self.merge_starts: list[float] = []
        self.end = 0.0
        self.rss_mb = 0.0
        self._evaluate = inner.evaluate
        if tracer is not None:
            self._evaluate = tracer.timed("targeting.evaluate", inner.evaluate)

    def init(self, p_workers, partition):
        self.setup = self.inner.init(p_workers, partition)
        self.worker_lp = self.setup.lp0
        self.init_end = time.perf_counter()
        if self.tracer is not None:
            return _TracedSetup(self.setup, self.tracer)
        return self.setup

    def make_order(self):
        self.order_starts.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.iteration += 1
        order = self.inner.make_order()
        t = time.perf_counter()
        if self.check:
            state = self.inner.state
            self.worker_lp, bad = order_mismatch(self.worker_lp, order, self.inner.lp,
                                                 state.cross.center, state.clock)
            if bad:
                self.bad_orders.add(len(self.order_starts) - 1)
        self.check_s.append(time.perf_counter() - t)
        self.order_ends.append(time.perf_counter())
        return order

    def merge_results(self, results):
        self.merge_starts.append(time.perf_counter())
        return self.inner.merge_results(results)

    def evaluate(self, merged):
        self._evaluate(merged)

    def exit_check(self):
        return self.inner.exit_check()

    def finalize(self):
        self.end = time.perf_counter()
        self.rss_mb = farm_rss_mb()  # the pool's workers are still alive here
        return self.inner.finalize()


@dataclass
class PassResult:
    csv: str
    rows: list
    iter_s: list[float]     # wall time of each tracking iteration
    loop_s: float           # first order to finalize
    setup_s: float          # initial pseudo_project start to first order
    init_to_order_s: float  # farm start-up after init: spawn, setup pickle, ping
    exchange_s: list[float] # per iteration: order made to results merged
    rss_mb: float
    setup_bytes: int
    bad_orders: set[int]    # iterations whose order the workers would misread
    metrics: object = None  # measured RunMetrics (worker pool only)


def run_pass(problem, start, backend: str, p_workers: int, iterations: int,
             tracer: Tracer | None = None) -> PassResult:
    """One tracking session. Untraced serial passes check every order's
    data path (``order_mismatch``); farm and traced passes do not, so the
    check adds no work to the farm's master and no spans to the trace."""
    t0 = time.perf_counter()
    z = pseudo_project(problem, start, FejerConfig(), clock=problem.clock).z
    inner = TargetingWorkload(problem, z, targeting_config(), iterations)
    wl = StampedWorkload(inner, tracer, check=backend == "sequential-sim" and tracer is None)
    executor = BsfExecutor(backend=backend, p_workers=p_workers, latency_rounds=LATENCY_ROUNDS)
    if tracer is None:
        trace, metrics = executor.run(wl)
    else:
        with tracing(tracer):
            trace, metrics = executor.run(wl)
    stamps = wl.order_starts + [wl.end]
    return PassResult(
        csv=trace.csv_text(),
        rows=trace.rows,
        iter_s=[b - a - c for a, b, c in zip(stamps, stamps[1:], wl.check_s)],
        loop_s=wl.end - wl.order_starts[0] - sum(wl.check_s),
        setup_s=wl.order_starts[0] - t0,
        init_to_order_s=wl.order_starts[0] - wl.init_end,
        exchange_s=[b - a for a, b in zip(wl.order_ends, wl.merge_starts)],
        rss_mb=wl.rss_mb,
        setup_bytes=len(pickle.dumps(wl.setup, protocol=pickle.HIGHEST_PROTOCOL)),
        bad_orders=wl.bad_orders,
        metrics=metrics if backend == "worker-pool" else None,
    )


def tracing(tracer: Tracer):
    """Rebind the layer functions the tracking loop calls to traced
    wrappers; the returned context restores them."""

    def on_delta(t, d):
        t.record("delta_entries", d.size)

    def on_encode(t, frame):
        t.record("order_bytes", len(frame))

    def on_violation(t, v):
        if t.inside("targeting.process_cohorts"):
            t.counts["checked"] += 1
            t.counts["feasible"] += v == 0.0

    def on_recovery(t, res):
        t.record("fejer_steps", res.iterations)
        t.record("exit_residual", res.residual)

    lp, quest, targeting, bsf = nslp.lp, nslp.quest, nslp.targeting, nslp.bsf
    advance = tracer.timed("lp.advance", lp.advance)
    return patched([
        (lp, "advance", advance),
        (quest, "advance", advance),
        (targeting, "advance", advance),
        (quest, "snapshot", tracer.timed("quest.snapshot", quest.snapshot)),
        (bsf, "delta_between", tracer.timed("lp.delta_between", bsf.delta_between, on_delta)),
        (targeting, "apply_delta", tracer.timed("lp.apply_delta", targeting.apply_delta)),
        (targeting, "max_violation",
         tracer.counted("lp.max_violation", targeting.max_violation, on_violation)),
        (targeting, "point_of", tracer.counted("cross.point_of", targeting.point_of)),
        (targeting, "process_cohorts",
         tracer.timed("targeting.process_cohorts", targeting.process_cohorts)),
        (targeting, "pseudo_project",
         tracer.timed("quest.pseudo_project", targeting.pseudo_project, on_recovery)),
        (bsf, "order_to_bytes", tracer.timed("bsf.encode", bsf.order_to_bytes, on_encode)),
        (bsf, "order_from_bytes", tracer.timed("bsf.decode", bsf.order_from_bytes)),
    ])


# --- correctness gate --------------------------------------------------------


def failed_iterations(w: Workload, ref: PassResult, got: PassResult) -> set[int]:
    """Iterations of ``got`` that fail the gate: trace rows must be
    byte-identical to the reference pass over the same inputs, every
    checked order must carry the master's LP, center and clock exactly, and
    on a stationary problem a full pass must end feasible and within
    ``s*sqrt(n)*max|c|`` of the known optimum."""
    ref_lines = ref.csv.splitlines()
    got_lines = got.csv.splitlines()
    if ref_lines[:1] != got_lines[:1]:
        return set(range(len(got.rows)))
    bad = {i for i, line in enumerate(got_lines[1:]) if i >= len(ref_lines) - 1
           or line != ref_lines[i + 1]} | got.bad_orders
    if w.drift == "none" and len(got.rows) == ITERATIONS:
        final = got.rows[-1]
        _, opt = model_n_optimum(w.n)
        tol = SPACING * math.sqrt(w.n) * float(np.max(np.abs(model_n(w.n).c)))
        if final.residual != 0.0 or abs(final.objective - opt) > tol:
            bad.add(len(got.rows) - 1)
    return bad


# --- statistics --------------------------------------------------------------


def p90(values) -> float:
    """Linear-interpolated 90th percentile (needs 10+ samples beyond it
    to mean anything; a pass has 100 iterations)."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --- a whole run -------------------------------------------------------------


@dataclass
class Run:
    workload: Workload
    serial: list[PassResult] = field(default_factory=list)
    farm: list[PassResult] = field(default_factory=list)
    probes: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    farm1: list[PassResult] = field(default_factory=list)  # traced runs: P=1 for t_s
    tracer: Tracer = field(default_factory=Tracer)  # shared by the traced passes
    ref: PassResult | None = None  # the run's first pass; the gate compares with it
    attempted: int = 0
    failed: int = 0

    def gate(self, got: PassResult) -> None:
        self.ref = self.ref or got
        self.attempted += len(got.rows)
        self.failed += len(failed_iterations(self.workload, self.ref, got))

    def abort(self, iterations: int, exc: BaseException) -> None:
        """A pass raised: its iterations count as attempted and failed."""
        traceback.print_exception(exc, file=sys.stderr)
        self.attempted += iterations
        self.failed += iterations


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Serial (sequential-sim, P=1) and farm (worker-pool, P=2) passes over
    the same seeded inputs. A run first makes one farm pass and the
    one-iteration set-up probes, so that the master's memory peak they
    report predates every serial pass; then one serial pass and, with
    ``trace``, one traced serial pass and one farm pass at P=1. It then
    cycles farm, serial (and traced) passes until the next one, at the
    length of its kind's last pass, would end after ``seconds``."""
    problem, start = make_inputs(w, seed)
    run = Run(w)
    serial = ("serial", "sequential-sim", 1, ITERATIONS, None)
    farm = ("farm", "worker-pool", FARM_WORKERS, ITERATIONS, None)
    first = [farm] + [("probes", "worker-pool", FARM_WORKERS, 1, None)] * SETUP_PROBES + [serial]
    cycle = [farm, serial]
    if trace:
        traced = ("traced", "sequential-sim", 1, ITERATIONS, run.tracer)
        first += [traced, ("farm1", "worker-pool", 1, ITERATIONS, None)]
        cycle.append(traced)
    begin = time.perf_counter()
    last_s: dict[str, float] = {}
    plan = itertools.chain(first, itertools.cycle(cycle))
    for i, (kind, backend, p, iterations, tracer) in enumerate(plan):
        t0 = time.perf_counter()
        if i >= len(first) and t0 - begin + last_s[kind] > seconds:
            return run
        try:
            res = run_pass(problem, start, backend, p, iterations, tracer)
        except Exception as exc:  # noqa: BLE001 - the gate counts it
            run.abort(iterations, exc)
            return run
        last_s[kind] = time.perf_counter() - t0
        getattr(run, kind).append(res)
        run.gate(res)


def tracking(run: Run) -> dict[str, float]:
    """What a user of the tracker sees, from the untraced passes."""
    serial_iters = [t for r in run.serial for t in r.iter_s]
    farm_iters = [t for r in run.farm for t in r.iter_s]
    rows = [row for r in run.serial for row in r.rows]
    return {
        "serial_iter_ms_p50": 1e3 * statistics.median(serial_iters),
        "serial_iter_ms_p90": 1e3 * p90(serial_iters),
        "farm_iter_ms_p50": 1e3 * statistics.median(farm_iters),
        "farm_iter_ms_p90": 1e3 * p90(farm_iters),
        "serial_iters_per_s": len(serial_iters) / sum(r.loop_s for r in run.serial),
        "farm_iters_per_s": len(farm_iters) / sum(r.loop_s for r in run.farm),
        "setup_s": statistics.median([r.setup_s for r in run.farm + run.probes]),
        "peak_rss_mb": max(r.rss_mb for r in run.farm[:1] + run.probes),
        "moved_rate": statistics.fmean(row.moved for row in rows),
        "stall_rate": statistics.fmean(row.q_size == 0 for row in rows),
        "final_residual": statistics.fmean(r.rows[-1].residual for r in run.serial),
        "fail_rate": run.failed / run.attempted,
    }


def end_to_end(run: Run) -> dict[str, float]:
    return {k: v for k, v in tracking(run).items() if k in END_TO_END}


def _under(spans, i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def per_layer(run: Run) -> dict[str, float]:
    """Per-layer numbers from the traced serial passes, plus the measured
    farm cost parameters (medians over the run's farm passes)."""
    tracer = run.tracer
    spans, counts, values = tracer.spans, tracer.counts, tracer.values
    iters = sum(len(r.rows) for r in run.traced)
    n_passes = len(run.traced)
    span_ns = totals_ns(spans)
    self_ns = totals_ns(spans, self_time=True)
    advances = [i for i, s in enumerate(spans) if s.name == "lp.advance"]
    advance_ns = sum(spans[i].end_ns - spans[i].start_ns for i in advances
                     if not _under(spans, i, "quest.pseudo_project"))
    replay = sum(_under(spans, i, "quest.snapshot") for i in advances)
    recovery_spans = sum(s.name == "quest.pseudo_project" for s in spans)

    def per_iter_ms(name, table=span_ns):
        return table.get(name, 0) / 1e6 / iters

    farm = [r.metrics for r in run.farm]

    def farm_med(attr, scale):
        return statistics.median([getattr(m, attr) for m in farm]) / scale

    user = tracking(run)
    speedup_meas = user["farm_iters_per_s"] / user["serial_iters_per_s"]
    cost = CostParams(FARM_WORKERS, farm_med("latency_ns", 1), farm_med("t_s_ns", 1),
                      farm_med("t_r_ns", 1), farm_med("t_p_ns", 1), farm_med("t_w_ns", 1))
    speedup_pred = speedup(cost)
    serial_work_ms = per_iter_ms("bsf.decode") + per_iter_ms("targeting.process_order")
    ping_s = [2 * LATENCY_ROUNDS * r.metrics.latency_ns / 1e9 for r in run.farm + run.probes]
    spawn_s = [r.init_to_order_s - ping for r, ping in zip(run.farm + run.probes, ping_s)]
    traced_loop_ns = 1e9 * sum(r.loop_s for r in run.traced)
    traced_p50 = statistics.median([t for r in run.traced for t in r.iter_s])
    return {
        **{k: v for k, v in user.items() if k in PER_LAYER},
        "lp.advance_ms": advance_ns / 1e6 / iters,
        "lp.delta_between_ms": per_iter_ms("lp.delta_between"),
        "lp.apply_delta_ms": per_iter_ms("lp.apply_delta"),
        "lp.delta_entries": sum(values.get("delta_entries", [])) / iters,
        "lp.max_violation_calls": counts.get("lp.max_violation", 0) / iters,
        "cross.point_builds": counts.get("cross.point_of", 0) / iters,
        "targeting.process_cohorts_ms": per_iter_ms("targeting.process_cohorts"),
        "targeting.process_cohorts_share": span_ns.get("targeting.process_cohorts", 0) / traced_loop_ns,
        "targeting.feasible_share": counts.get("feasible", 0) / max(counts.get("checked", 0), 1),
        "targeting.evaluate_ms": per_iter_ms("targeting.evaluate", self_ns),
        "targeting.q_size_mean": statistics.fmean(row.q_size for r in run.traced for row in r.rows),
        "quest.recoveries": recovery_spans / n_passes,
        "quest.recovery_ms": span_ns.get("quest.pseudo_project", 0) / 1e6 / max(recovery_spans, 1),
        "quest.fejer_steps": sum(values.get("fejer_steps", [])) / n_passes,
        "quest.exit_residual": statistics.fmean(values.get("exit_residual", [0.0])),
        "quest.replay_steps": replay / n_passes,
        "quest.replay_ms": span_ns.get("quest.snapshot", 0) / 1e6 / max(recovery_spans, 1),
        "bsf.order_bytes": statistics.median(values["order_bytes"]),
        "bsf.encode_ms": per_iter_ms("bsf.encode"),
        "bsf.decode_ms": per_iter_ms("bsf.decode"),
        "bsf.send_ms": farm_med("t_s_ns", 1e6),
        "bsf.send_ms_p1": statistics.median([r.metrics.t_s_ns for r in run.farm1]) / 1e6,
        "bsf.recv_ms": farm_med("t_r_ns", 1e6),
        "bsf.latency_us": farm_med("latency_ns", 1e3),
        "bsf.t_v_ms": farm_med("t_v_ns", 1e6),
        "bsf.t_v_spread_ms": farm_med("t_v_spread_ns", 1e6),
        "bsf.barrier_wait_ms": statistics.median(
            [1e3 * statistics.fmean(r.exchange_s) - r.metrics.t_v_ns / 1e6 for r in run.farm]),
        "bsf.worker_inflation": farm_med("t_w_ns", 1e6) / serial_work_ms,
        "bsf.spawn_s": statistics.median(spawn_s),
        "bsf.ping_s": statistics.median(ping_s),
        "bsf.setup_bytes": run.farm[0].setup_bytes,
        "cost_model.bound": scalability_bound(cost),
        "cost_model.speedup_pred": speedup_pred,
        "cost_model.speedup_meas": speedup_meas,
        "cost_model.pred_err": abs(speedup_pred - speedup_meas) / speedup_meas,
        "trace.overhead_pct": 100.0 * (1e3 * traced_p50 / user["serial_iter_ms_p50"] - 1.0),
    }


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scope": SCOPE,
    }

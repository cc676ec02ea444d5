import builtins
import errno
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import textwrap
import threading
import time
import types
from multiprocessing.context import ForkServerProcess
from pathlib import Path

import numpy as np
import pytest

import nslp
from nslp import (BsfExecutor, BsfWorkerError, Cross, DriftSpec, NonStationaryLP,
                  Order, SparseDelta, apply_delta, block_partition, evaluate,
                  make_order, model_n, model_n_optimum, order_from_bytes,
                  order_to_bytes, process_cohorts, run_targeting, snapshot)
from nslp.bsf import (RunMetrics, WorkerResult, _Pool, _pool_context, _server_may_run_main,
                      metrics_from_csv, metrics_to_csv)
from nslp.lp import EMPTY_DELTA
from nslp.targeting import (CohortBest, TargetingConfig, TargetingState, TargetingWorkerSetup,
                            TargetingWorkload)


class TrivialSetup:
    """Worker-side setup with no state that answers every order with nothing
    (picklable)."""

    def init_state(self, worker_id, cohorts):
        return None

    def process_order(self, state, order):
        return None, ()


class FailingSetup(TrivialSetup):
    """Worker-side setup whose order processing always raises."""

    def process_order(self, state, order):
        raise RuntimeError("synthetic worker fault")


class FailingWorkload:
    cohort_count = 2

    def init(self, p_workers, partition):
        return FailingSetup()

    def make_order(self):
        return Order(theta=np.zeros(2), delta=SparseDelta(), clock=0)

    def merge_results(self, results):
        return results

    def evaluate(self, merged):
        pass

    def exit_check(self):
        return True

    def finalize(self):
        return None


class DyingSetup(FailingSetup):
    """Worker-side setup whose process exits in the middle of an order."""

    def process_order(self, state, order):
        os._exit(3)


class DyingWorkload(FailingWorkload):
    def init(self, p_workers, partition):
        return DyingSetup()


class FailingInitSetup(FailingSetup):
    """Worker-side setup whose state construction raises."""

    def init_state(self, worker_id, cohorts):
        raise RuntimeError("synthetic init fault")


class FailingInitWorkload(FailingWorkload):
    def init(self, p_workers, partition):
        return FailingInitSetup()


# --- partitioning -----------------------------------------------------------


def test_block_partition_examples():
    parts = block_partition(8, 4)
    assert parts[0] == [0, 1]
    assert parts[3] == [6, 7]
    assert block_partition(8, 3) == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert block_partition(5, 1) == [[0, 1, 2, 3, 4]]


def test_block_partition_errors():
    with pytest.raises(ValueError):
        block_partition(3, 4)
    with pytest.raises(ValueError):
        block_partition(3, 0)


# --- wire format ------------------------------------------------------------


def test_order_roundtrip():
    # A positions (0, 1) and (3, 0) of a problem with n = 4 columns
    delta = SparseDelta(a_idx=[0 * 4 + 1, 3 * 4 + 0], a_vals=[2.5, -1.25],
                        b_idx=[2], b_vals=[7.0], c_idx=[1, 3], c_vals=[0.5, -0.125])
    order = Order(theta=np.array([1.0, -2.0, 0.5, 3.25]), delta=delta, clock=42)
    back = order_from_bytes(order_to_bytes(order))
    assert np.array_equal(back.theta, order.theta)
    assert back.clock == 42
    assert back.delta == delta


def test_order_empty_delta_size():
    n = 10
    order = Order(theta=np.zeros(n), delta=SparseDelta(), clock=0)
    raw = order_to_bytes(order)
    # u32 n + n f64 + u64 clock + three u32 zero counts
    assert len(raw) == 4 + 8 * n + 8 + 12
    assert order_from_bytes(raw).delta.is_empty()


def test_order_size_grows_with_changes():
    n = 16
    sizes = []
    for k in (0, 4, 8):
        delta = SparseDelta(a_idx=list(range(k)), a_vals=[1.0] * k)
        sizes.append(len(order_to_bytes(Order(theta=np.zeros(n), delta=delta, clock=0))))
    assert sizes[1] - sizes[0] == 4 * 12
    assert sizes[2] - sizes[1] == 4 * 12


def test_order_trailing_bytes_rejected():
    raw = order_to_bytes(Order(theta=np.zeros(2), delta=SparseDelta(), clock=0))
    with pytest.raises(ValueError):
        order_from_bytes(raw + b"\x00")


def test_every_cut_of_an_order_frame_is_reported_as_truncated():
    delta = SparseDelta(a_idx=[5], a_vals=[2.0], b_idx=[1], b_vals=[3.0],
                        c_idx=[2], c_vals=[-1.0])
    raw = order_to_bytes(Order(theta=np.array([1.0, 2.0, 3.0]), delta=delta, clock=7))
    assert order_from_bytes(raw).delta == delta
    for cut in range(len(raw)):
        with pytest.raises(ValueError, match="^order frame is truncated"):
            order_from_bytes(raw[:cut])


def test_an_all_empty_order_frame_decodes_to_the_shared_empty_delta():
    raw = order_to_bytes(Order(theta=np.zeros(3), delta=SparseDelta(), clock=4))
    back = order_from_bytes(raw)
    assert back.delta is EMPTY_DELTA
    assert back.clock == 4 and back.theta.tolist() == [0.0, 0.0, 0.0]


def test_order_of_another_dimension_fails_on_the_worker():
    # flat A positions are read against the worker's own n; a center of the
    # wrong length still stops at the dimension check
    setup = TargetingWorkerSetup(model_n(2), 0.5, 2)
    state = setup.init_state(0, [0, 1])
    order = Order(theta=np.zeros(3), delta=SparseDelta(a_idx=[4], a_vals=[2.0]), clock=0)
    with pytest.raises(ValueError, match="dimension"):
        setup.process_order(state, order_from_bytes(order_to_bytes(order)))


def test_worker_result_carries_markers_not_points():
    # the parent's result for these 100 cohorts pickled to 165 kB: one
    # n-float point per cohort
    n = 200
    x, _ = model_n_optimum(n)
    start = np.maximum(x - np.random.default_rng(4242).uniform(0.0, 2.0, n), 0.0)
    bests = process_cohorts(model_n(n), Cross(start, 1.0, 8), range(100))
    assert all(b.offset is not None for b in bests)
    result = WorkerResult(0, tuple(bests))
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(payload) < 8_000
    assert pickle.loads(payload) == result


@pytest.mark.parametrize("answer", [(3, 4), (2, 3, 4, 5)])
def test_merge_results_names_a_worker_whose_bests_miss_or_add_a_cohort(answer):
    wl = TargetingWorkload(NonStationaryLP(base=model_n(6)), np.zeros(6),
                           TargetingConfig(points_per_cohort=2, spacing=0.5), 1)
    wl.init(2, block_partition(6, 2))  # worker 1 owns cohorts 3, 4 and 5
    good = WorkerResult(0, tuple(CohortBest(c) for c in range(3)))
    bad = WorkerResult(1, tuple(CohortBest(c) for c in answer))
    with pytest.raises(ValueError, match="worker 1 answered outside its cohort assignment"):
        wl.merge_results([good, bad])


# --- orders carry exactly the changed entries ---------------------------------


def test_make_order_stationary_is_theta_only():
    problem = NonStationaryLP(base=model_n(4))
    wl = TargetingWorkload(problem, np.zeros(4), TargetingConfig(points_per_cohort=2,
                                                                 spacing=0.5), 3)
    wl.init(1, block_partition(4, 1))
    for _ in range(3):  # feed full rounds so the clock moves between orders
        order = wl.make_order()
        assert order.delta.is_empty()
        bests = process_cohorts(wl.lp, Cross(order.theta, 0.5, 2), range(4))
        wl.evaluate(wl.merge_results([WorkerResult(0, tuple(bests))]))


def test_one_row_regime_order_budget():
    n = 400
    delta = 1.0 / (2 * (n + 1))
    problem = NonStationaryLP(base=model_n(n),
                              drift=DriftSpec(kind="random-sparse", delta=delta,
                                              magnitude=1.0, seed=9))
    prev = snapshot(problem, 0)
    nxt = snapshot(problem, 1)
    order = make_order(prev, nxt, np.zeros(n), 1)
    # one changed row budget in A, one element of b, one coefficient of c
    assert order.delta.size == n + 1 + 1
    raw = order_to_bytes(order)
    assert len(raw) == 4 + 8 * n + 8 + 12 + 12 * order.delta.size
    # applying the order on a worker holding prev reproduces next exactly
    assert apply_delta(prev, order_from_bytes(raw).delta) == nxt


def test_make_order_reconstructs_target_state(unit_square):
    nxt = apply_delta(unit_square, SparseDelta(b_idx=[0], b_vals=[2.0]))
    order = make_order(unit_square, nxt, np.array([0.5, 0.5]), 3)
    assert order.clock == 3
    assert np.array_equal(order.theta, np.array([0.5, 0.5]))
    assert apply_delta(unit_square, order.delta) == nxt
    stationary = make_order(unit_square, unit_square, np.zeros(2), 0)
    assert stationary.delta.is_empty()


# --- skeleton ---------------------------------------------------------------


def _near_optimum_start(n, seed=5, spread=0.5):
    x, _ = model_n_optimum(n)
    rng = np.random.default_rng(seed)
    return np.maximum(x - rng.uniform(0.0, spread, n), 0.0)


def test_sim_p1_matches_skeleton_free_loop():
    """The skeleton must be a pure orchestration layer: a direct loop over
    the phase functions reproduces the P=1 run trace-for-trace."""
    n = 6
    problem = NonStationaryLP(base=model_n(n),
                              drift=DriftSpec(kind="random-sparse",
                                              delta=1.0 / (2 * (n + 1)),
                                              magnitude=0.05, seed=2))
    z = np.full(n, 20.0)  # deep interior: drift never empties the cross here
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    iterations = 25

    trace = run_targeting(problem, z, cfg, iterations, BsfExecutor("sequential-sim", 1))
    assert all(r.q_size > 0 for r in trace.rows)  # no recovery fired: pure steps 2-7

    # skeleton-free reference loop
    from nslp.lp import advance
    lp = snapshot(problem, 0)
    state = TargetingState(cross=Cross(z, cfg.spacing, cfg.points_per_cohort), clock=0)
    centers = []
    for _ in range(iterations):
        bests = process_cohorts(lp, state.cross, range(n))
        clock = state.clock
        state = evaluate(lp, state, bests)
        centers.append(state.cross.center.copy())
        lp = advance(problem, lp, clock)

    assert len(trace.rows) == iterations
    for row, center in zip(trace.rows, centers):
        assert np.array_equal(row.center, center)


@pytest.mark.parametrize("p_workers", [1, 2, 4])
def test_pool_matches_sim(p_workers):
    n = 8
    problem = NonStationaryLP(base=model_n(n),
                              drift=DriftSpec(kind="random-sparse",
                                              delta=1.0 / (2 * (n + 1)),
                                              magnitude=0.5, seed=4))
    z = _near_optimum_start(n)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    sim = run_targeting(problem, z, cfg, 15, BsfExecutor("sequential-sim", p_workers))
    pool = run_targeting(problem, z, cfg, 15,
                         BsfExecutor("worker-pool", p_workers, latency_rounds=50))
    assert pool.csv_text() == sim.csv_text()


def test_pool_metrics_identities():
    n = 6
    problem = NonStationaryLP(base=model_n(n))
    z = _near_optimum_start(n)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    trace = run_targeting(problem, z, cfg, 10, BsfExecutor("worker-pool", 2))
    m = trace.metrics
    assert m.p_workers == 2
    assert m.t_w_ns == 2 * m.t_v_ns
    assert m.t_v_ns > 0
    assert m.latency_ns > 0 and math.isfinite(m.latency_ns)
    assert m.iterations == 10
    assert m.iter_ns > 0


def test_sim_metrics_are_synthetic_and_deterministic():
    problem = NonStationaryLP(base=model_n(4))
    cfg = TargetingConfig(points_per_cohort=2, spacing=0.5)
    ex = BsfExecutor("sequential-sim", 2, sim_latency_ns=123.0)
    a = run_targeting(problem, np.zeros(4), cfg, 5, ex).metrics
    b = run_targeting(problem, np.zeros(4), cfg, 5, ex).metrics
    assert a == b
    # L as set; send 2 us, 100 us of work per cohort, receive 2 us, evaluate 10 us
    assert a.latency_ns == 123.0
    assert a.t_s_ns == 2_000.0
    assert a.t_v_ns == 200_000.0  # two cohorts per worker
    assert a.t_w_ns == 400_000.0
    assert a.t_r_ns == 4_000.0
    assert a.t_p_ns == 10_000.0
    assert a.t_v_spread_ns == 0.0
    assert a.iterations == 5
    assert a.iter_ns == 2 * (2_000.0 + 123.0) + 200_000.0 + 123.0 + 2 * 2_000.0 + 10_000.0


def test_simulator_decodes_each_order_once(monkeypatch):
    calls = []

    def order_from_bytes_counted(buf):
        calls.append(len(buf))
        return order_from_bytes(buf)

    monkeypatch.setattr(nslp.bsf, "order_from_bytes", order_from_bytes_counted)
    problem = NonStationaryLP(base=model_n(6), drift=DriftSpec(
        kind="random-sparse", delta=0.5, magnitude=0.1, seed=3))
    cfg = TargetingConfig(points_per_cohort=2, spacing=0.5)
    trace = run_targeting(problem, np.zeros(6), cfg, 5, BsfExecutor("sequential-sim", 3))
    assert len(trace.rows) == 5
    assert len(calls) == 5


def test_metrics_csv_round_trips_its_seven_fields(tmp_path):
    rows = [RunMetrics(1, 13901.25, 0.1, 1.0 / 3.0, 5e-324, 2.0 ** 53 + 2.0, 7.0,
                       iter_ns=9.0, t_v_spread_ns=1.5, iterations=20),
            RunMetrics(2, 0.0, 1e300, 12345.678, 0.0, 3.0, 2.0 / 3.0)]
    metrics_to_csv(rows, tmp_path / "metrics.csv")
    fields = ("p_workers", "latency_ns", "t_s_ns", "t_v_ns", "t_r_ns", "t_p_ns", "t_w_ns")
    back = metrics_from_csv(tmp_path / "metrics.csv")
    assert [[getattr(m, f) for f in fields] for m in back] == \
        [[getattr(m, f) for f in fields] for m in rows]
    (tmp_path / "empty.csv").write_text(RunMetrics.CSV_HEADER + "\n")
    with pytest.raises(ValueError, match="no rows"):
        metrics_from_csv(tmp_path / "empty.csv")


def test_metrics_csv_skips_blank_lines_and_names_a_short_row(tmp_path):
    row = RunMetrics(1, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0).csv_row()
    path = tmp_path / "metrics.csv"
    path.write_text(f"{RunMetrics.CSV_HEADER}\n{row}\n\n{row}\n\n")
    assert [m.p_workers for m in metrics_from_csv(path)] == [1, 1]
    path.write_text(f"{RunMetrics.CSV_HEADER}\n{row}\n\n1,2,3\n")
    with pytest.raises(ValueError, match="metrics line 4 has 3 fields, expected 7"):
        metrics_from_csv(path)


def test_worker_failure_aborts_with_diagnostic():
    with pytest.raises(BsfWorkerError, match="synthetic worker fault"):
        BsfExecutor("worker-pool", 2, latency_rounds=10).run(FailingWorkload())


def _pool_failure(workload) -> BsfWorkerError:
    """Run ``workload`` on two pool workers; the ``BsfWorkerError`` it must
    raise within 10 s."""
    outcome = []

    def run():
        try:
            BsfExecutor("worker-pool", 2, latency_rounds=10).run(workload)
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=10.0)
    assert not runner.is_alive(), "a failing worker hung the master"
    assert len(outcome) == 1 and isinstance(outcome[0], BsfWorkerError), outcome
    return outcome[0]


def test_worker_exit_mid_order_raises_worker_error_in_bounded_time():
    assert "exit code 3" in str(_pool_failure(DyingWorkload()))


def test_init_state_failure_raises_worker_error_with_its_message():
    assert "synthetic init fault" in str(_pool_failure(FailingInitWorkload()))


def test_failed_setup_send_stops_the_started_workers(monkeypatch):
    real_send = _Pool.send

    def send(self, w, msg):
        if w == 1:
            raise BsfWorkerError("synthetic send fault")
        real_send(self, w, msg)

    monkeypatch.setattr(_Pool, "send", send)
    with pytest.raises(BsfWorkerError, match="synthetic send fault"):
        _Pool([[0], [1]], TrivialSetup())
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault", [EOFError, OSError])
def test_failed_worker_start_stops_the_started_workers(monkeypatch, fault):
    # a dead or unreachable fork server fails Process.start() this way
    real_start = ForkServerProcess.start

    def start(self):
        if self._args[1] == 1:  # _worker_main(conn, worker_id, cohorts)
            raise fault("synthetic fork server fault")
        real_start(self)

    monkeypatch.setattr(ForkServerProcess, "start", start)
    with pytest.raises(BsfWorkerError, match="worker 1 did not start.*synthetic fork server"):
        _Pool([[0], [1]], TrivialSetup())
    assert multiprocessing.active_children() == []


def test_failed_fork_server_start_raises_worker_error(monkeypatch):
    # the first pool in a process starts the server before any worker
    from multiprocessing import forkserver

    def ensure_running():
        raise OSError(errno.EMFILE, "synthetic: too many open files")

    monkeypatch.setattr(forkserver, "ensure_running", ensure_running)
    _pool_context.cache_clear()
    with pytest.raises(BsfWorkerError, match="fork server did not start.*too many open files"):
        _Pool([[0]], TrivialSetup())
    assert multiprocessing.active_children() == []


def test_failed_pipe_stops_the_started_workers(monkeypatch):
    # a process out of file descriptors fails the second worker's Pipe()
    ctx = _pool_context()
    real_pipe = ctx.Pipe
    made = []

    def pipe(duplex=True):
        if made:
            raise OSError(errno.EMFILE, "synthetic: too many open files")
        made.append(1)
        return real_pipe(duplex)

    monkeypatch.setattr(ctx, "Pipe", pipe)
    problem = NonStationaryLP(base=model_n(4))
    cfg = TargetingConfig(points_per_cohort=2, spacing=0.5)
    with pytest.raises(BsfWorkerError, match="worker 1 did not start.*too many open files"):
        run_targeting(problem, np.zeros(4), cfg, 1, BsfExecutor("worker-pool", 2))
    assert multiprocessing.active_children() == []


def test_closing_the_pipes_stops_every_worker():
    # a worker's only stop is the EOF on its pipe; a worker that missed it
    # would be joined for 10 s and then terminated, with a negative exit code
    pool = _Pool([[0], [1]], TrivialSetup())
    try:
        assert pool.ping_latency_ns(3) > 0.0
    finally:
        t0 = time.monotonic()
        pool.shutdown()
    assert time.monotonic() - t0 < 10.0
    assert [proc.exitcode for proc in pool.procs] == [0, 0]
    assert multiprocessing.active_children() == []


def _run_driver(*argv, env=os.environ):
    """Run the interpreter on ``argv`` (a script, or ``-m`` and a module with
    its arguments) in a fresh process that imports this nslp."""
    src = str(Path(nslp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], env={**env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def two_pool_runs(tmp_path_factory):
    """A driver, started without the BLAS variables, makes two pool runs.
    Per run: the driver's pid, each worker's (parent pid,
    OPENBLAS_NUM_THREADS, modules it imported itself) and the pids of the
    processes that have run the driver's top level so far."""
    probe = tmp_path_factory.mktemp("probe")
    script = probe / "driver.py"
    script.write_text(textwrap.dedent("""\
        import json, os, sys
        import numpy as np
        from nslp import BsfExecutor, Order, SparseDelta

        with open(sys.argv[1], "a") as fh:
            fh.write(f"{os.getpid()}\\n")

        # the fork server runs this top level, so every worker inherits the hook
        imported = []

        def record_import(event, args):
            if event == "import":
                imported.append((os.getpid(), args[0]))

        sys.addaudithook(record_import)

        class ProbeSetup:
            def init_state(self, worker_id, cohorts):
                return None

            def process_order(self, state, order):
                mine = [name for pid, name in imported if pid == os.getpid()]
                return None, (os.getppid(), os.environ.get("OPENBLAS_NUM_THREADS"), mine)

        class ProbeWorkload:
            cohort_count = 2

            def init(self, p_workers, partition):
                return ProbeSetup()

            def make_order(self):
                return Order(theta=np.zeros(1), delta=SparseDelta(), clock=0)

            def merge_results(self, results):
                return [list(r.bests) for r in results]

            def evaluate(self, merged):
                self.seen = merged

            def exit_check(self):
                return True

            def finalize(self):
                return self.seen

        if __name__ == "__main__":
            for _ in range(2):
                pool = BsfExecutor("worker-pool", 2, latency_rounds=1)
                seen, _ = pool.run(ProbeWorkload())
                with open(sys.argv[1]) as fh:
                    top_level = [int(pid) for pid in fh]
                print(json.dumps({"master": os.getpid(), "workers": seen,
                                  "top_level": top_level}), flush=True)
        """))
    done = _run_driver(script, probe / "top_level.pids",
                       env={k: v for k, v in os.environ.items() if k not in _BLAS_VARS})
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_one_fork_server_per_process_is_gone_at_exit(two_pool_runs):
    assert len(two_pool_runs) == 2
    servers = {ppid for run in two_pool_runs for ppid, *_ in run["workers"]}
    assert len(servers) == 1, two_pool_runs
    (server,) = servers
    assert server != two_pool_runs[0]["master"]
    # stopped and reaped by the driver itself, not left as a zombie
    with pytest.raises(ProcessLookupError):
        os.kill(server, 0)


def test_fork_server_runs_the_driver_top_level_for_every_worker(two_pool_runs):
    # the master and the server run it; the four workers forked from the
    # server find it done, and ProbeSetup, defined there, still unpickles
    (server,) = {ppid for run in two_pool_runs for ppid, *_ in run["workers"]}
    assert sorted(two_pool_runs[-1]["top_level"]) == sorted([two_pool_runs[0]["master"], server])


def test_pool_workers_run_one_blas_thread(two_pool_runs):
    # byte-identical traces rely on single-threaded reductions in the workers
    assert {blas for run in two_pool_runs for _, blas, _ in run["workers"]} == {"1"}


def test_pool_workers_import_nothing_before_their_first_order(two_pool_runs):
    # the server preloads what unpickling a worker's process object needs
    # (its pipe ends arrive as multiprocessing.popen_forkserver._DupFd), and
    # it ignores an ImportError in a preload, so only this sees a wrong name
    assert [mods for run in two_pool_runs for *_, mods in run["workers"]] == [[]] * 4


@pytest.fixture(scope="module", params=[False, True], ids=["one-server", "restarted-server"])
def server_kill_runs(request, tmp_path_factory):
    """A driver, started without the BLAS variables and PYTHONPATH, makes two
    2-worker pool runs, and with the ``restarted-server`` param SIGKILLs the
    fork server after each, so the second pool restarts it. Returns the
    driver's environment before and after, each worker's (parent pid,
    OPENBLAS_NUM_THREADS), the master's pid and the pids of the processes
    that ran the driver's top level."""
    tmp_path = tmp_path_factory.mktemp("kill")
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent("""\
        import json, os, signal, sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from nslp import BsfExecutor, Order, SparseDelta

        with open(sys.argv[3], "a") as fh:
            fh.write(f"{os.getpid()}\\n")

        class BlasSetup:
            def init_state(self, worker_id, cohorts):
                return None

            def process_order(self, state, order):
                return None, ((os.getppid(), os.environ.get("OPENBLAS_NUM_THREADS")),)

        class BlasWorkload:
            cohort_count = 2

            def init(self, p_workers, partition):
                return BlasSetup()

            def make_order(self):
                return Order(theta=np.zeros(1), delta=SparseDelta(), clock=0)

            def merge_results(self, results):
                return [b for r in results for b in r.bests]

            def evaluate(self, merged):
                self.seen = merged

            def exit_check(self):
                return True

            def finalize(self):
                return self.seen

        if __name__ == "__main__":
            before, workers = dict(os.environ), []
            for _ in range(2):
                seen, _ = BsfExecutor("worker-pool", 2, latency_rounds=1).run(BlasWorkload())
                workers += seen
                if sys.argv[2] == "True":
                    from multiprocessing.forkserver import _forkserver
                    os.kill(_forkserver._forkserver_pid, signal.SIGKILL)
                    # wait for its exit but leave the reaping to the restart
                    os.waitid(os.P_PID, _forkserver._forkserver_pid, os.WEXITED | os.WNOWAIT)
            print(json.dumps({"before": before, "after": dict(os.environ), "workers": workers,
                              "master": os.getpid()}))
        """))
    env = {k: v for k, v in os.environ.items() if k not in (*_BLAS_VARS, "PYTHONPATH")}
    src = str(Path(nslp.__file__).resolve().parents[1])
    pids = tmp_path / "top_level.pids"
    done = subprocess.run([sys.executable, str(script), src, str(request.param), pids], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout)
    run["top_level"] = [int(pid) for pid in pids.read_text().split()]
    return {**run, "killed": request.param}


def test_pool_runs_leave_the_drivers_environment_as_it_was(server_kill_runs):
    # the fork server gets one BLAS thread and this nslp on PYTHONPATH only
    # while it may start, which includes the restart the second pool's first
    # Process.start() makes after the server was killed; the driver, started
    # without those four variables, finds nslp through its own sys.path
    run = server_kill_runs
    assert run["after"] == run["before"]
    assert not set(run["before"]) & {*_BLAS_VARS, "PYTHONPATH"}
    assert [blas for _, blas in run["workers"]] == ["1"] * 4


def test_every_fork_server_runs_the_driver_top_level_for_its_workers(server_kill_runs):
    # a restarted server gets the hand-off too: the top level runs in the
    # master and once in each server, never in a worker
    run = server_kill_runs
    servers = {ppid for ppid, _ in run["workers"]}
    assert len(servers) == (2 if run["killed"] else 1)
    assert sorted(run["top_level"]) == sorted([run["master"], *servers])


def test_driver_without_main_guard_fails_instead_of_hanging(tmp_path):
    # every worker re-runs the unguarded script as it starts and dies there,
    # while the master still has a 2.5 MB setup to send it
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent("""\
        import numpy as np
        from nslp import BsfExecutor, NonStationaryLP, TargetingConfig, model_n, run_targeting

        n = 400
        run_targeting(NonStationaryLP(base=model_n(n)), np.ones(n),
                      TargetingConfig(points_per_cohort=2, spacing=1.0), 1,
                      BsfExecutor("worker-pool", 2, latency_rounds=10))
        """))
    done = _run_driver(script)
    assert done.returncode != 0
    assert "BsfWorkerError" in done.stderr
    assert re.search(r"exit code 1\b", done.stderr), done.stderr


def test_cli_module_drives_the_pool(tmp_path):
    # run by module name, so each worker re-runs nslp.cli as __mp_main__
    # with init_main_from_name rather than from a script path
    out = tmp_path / "out"
    done = _run_driver("-m", "nslp.cli", "run", "--n", "6", "--iters", "3", "--workers", "1,2",
                       "--backend", "pool", "--k", "2", "--spacing", "0.5", "--out", out)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "efficiency.svg", "metrics.csv", "predicted.csv", "results.csv", "speedup.svg",
        "trace.csv"]
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]


_ECHO_DRIVER = """\
import json, os, sys
import numpy as np
from nslp import BsfExecutor, Order, SparseDelta
{imports}
with open(sys.argv[1], "a") as fh:
    fh.write(f"{{os.getpid()}}\\n")
ARGV, FILE, PATH = sys.argv[1:], __file__, list(sys.path)


def view():
    return {{"pid": os.getpid(), "argv": ARGV, "file": FILE, "path": PATH,
             "handoff": "_NSLP_FORKSERVER_MAIN" in os.environ}}


class EchoSetup:
    def init_state(self, worker_id, cohorts):
        return None

    def process_order(self, state, order):
        return None, [view()]


class EchoWorkload:
    cohort_count = 2

    def init(self, p_workers, partition):
        return EchoSetup()

    def make_order(self):
        return Order(theta=np.zeros(1), delta=SparseDelta(), clock=0)

    def merge_results(self, results):
        return [r.bests[0] for r in results]

    def evaluate(self, merged):
        self.seen = merged

    def exit_check(self):
        return True

    def finalize(self):
        return self.seen


if __name__ == "__main__":
    seen, _ = BsfExecutor("worker-pool", 2, latency_rounds=1).run(EchoWorkload())
    print(json.dumps({{"master": view(), "workers": seen}}))
"""


def _run_echo_driver(tmp_path, *args, imports="", env=os.environ):
    """Run a driver whose top level appends its pid to a file and keeps its
    ``sys.argv[1:]``, ``__file__`` and ``sys.path``; one 2-worker pool
    reports each worker's view of them, its pid and whether the hand-off
    variable is in its environment, beside the master's. Returns that report
    and the pids that ran the top level."""
    script = tmp_path / "driver.py"
    script.write_text(_ECHO_DRIVER.format(imports=imports))
    pids = tmp_path / "top_level.pids"
    done = _run_driver(script, pids, *args, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), [int(pid) for pid in pids.read_text().split()]


def test_server_run_of_the_driver_sees_what_a_worker_run_saw(tmp_path):
    run, _ = _run_echo_driver(tmp_path, "--flag", "two words", "")
    master = run["master"]
    assert master["argv"] == [str(tmp_path / "top_level.pids"), "--flag", "two words", ""]
    assert master["file"] == str(tmp_path / "driver.py")
    assert master["path"][0] == str(tmp_path)
    for worker in run["workers"]:
        assert {**worker, "pid": master["pid"]} == master


def test_driver_with_a_sibling_import_is_run_by_each_worker(tmp_path):
    (tmp_path / "helper.py").write_text("TAG = 'sibling'\n")
    run, top_level = _run_echo_driver(tmp_path, imports="import helper")
    # the server leaves a driver alone once a module it cannot vouch for is bound
    assert sorted(top_level) == sorted(view["pid"] for view in [run["master"], *run["workers"]])


@pytest.mark.parametrize("imports, runs", [("", 2), ("import helper", 3)])
def test_fork_server_hand_off_is_not_read_from_the_users_environment(tmp_path, imports, runs):
    (tmp_path / "helper.py").write_text("TAG = 'sibling'\n")
    decoy = tmp_path / "decoy"
    decoy.mkdir()
    (decoy / "driver.py").write_text("open(__file__ + '.ran', 'w').close()\n")
    preset = json.dumps([str(decoy / "driver.py"), ["decoy"], sys.path])
    run, top_level = _run_echo_driver(tmp_path, imports=imports,
                                      env={**os.environ, "_NSLP_FORKSERVER_MAIN": preset})
    # the real script ran, in the master and the server or each worker
    assert len(top_level) == runs and run["master"]["pid"] in top_level
    assert not (decoy / "driver.py.ran").exists()
    # gone from the master after its first pool, and never in a worker
    assert [view["handoff"] for view in [run["master"], *run["workers"]]] == [False] * 3


def _driver_namespace():
    namespace = {"__name__": "__main__", "__builtins__": builtins}
    exec(textwrap.dedent("""\
        import json, os
        from json import dumps
        from os import path
        from pathlib import PurePath
        from time import perf_counter
        from nslp.cli import main
        import numpy as np

        def helper():
            pass

        class Probe:
            pass
        """), namespace)
    return namespace


@pytest.mark.parametrize("foreign", [types.ModuleType("helper"), pytest.raises,
                                     pytest.MonkeyPatch],
                         ids=["sibling-module", "third-party-function", "third-party-class"])
def test_fork_server_runs_the_driver_only_over_known_imports(foreign):
    namespace = _driver_namespace()
    assert _server_may_run_main(namespace)
    namespace["foreign"] = foreign
    assert not _server_may_run_main(namespace)


def test_worker_count_validation(unit_square):
    problem = NonStationaryLP(base=unit_square)
    cfg = TargetingConfig(points_per_cohort=2, spacing=0.25)
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 1, BsfExecutor("sequential-sim", 3))
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 1, BsfExecutor("sequential-sim", 0))
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 1, BsfExecutor("bogus", 1))


def test_executor_takes_only_the_farm_backend_names():
    # the short spellings belong to the command line, not to the farm
    for name in ("pool", "sim"):
        with pytest.raises(ValueError, match="backend must be one of"):
            BsfExecutor(name, 1)


@pytest.mark.parametrize("field", ["p_workers", "latency_rounds"])
@pytest.mark.parametrize("value", [0, -5, 2.5, 1.0, True, "2", None])
def test_executor_rejects_bad_counts_before_any_process_starts(field, value):
    with pytest.raises(ValueError, match=field):
        BsfExecutor("worker-pool", **{field: value})
    assert getattr(BsfExecutor("worker-pool", **{field: 1}), field) == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_executor_rejects_a_bad_sim_latency_before_any_process_starts(value):
    with pytest.raises(ValueError, match="sim_latency_ns"):
        BsfExecutor("worker-pool", sim_latency_ns=value)
    assert BsfExecutor("worker-pool", sim_latency_ns=0.0).sim_latency_ns == 0.0


def test_record_replay_bit_reproduces_results():
    n = 6
    problem = NonStationaryLP(base=model_n(n),
                              drift=DriftSpec(kind="random-sparse",
                                              delta=0.1, magnitude=0.5, seed=8))
    z = _near_optimum_start(n)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)

    class RecordingWorkload(TargetingWorkload):
        """Records each order's frame and each iteration's worker results."""

        def __init__(self, *args):
            super().__init__(*args)
            self.frames, self.results = [], []

        def make_order(self):
            order = super().make_order()
            self.frames.append(order_to_bytes(order))
            return order

        def merge_results(self, results):
            self.results.append(list(results))
            return super().merge_results(results)

    workload = RecordingWorkload(problem, z, cfg, 12)
    BsfExecutor("sequential-sim", 2).run(workload)
    assert len(workload.frames) == len(workload.results) == 12

    partition = block_partition(n, 2)
    setup = TargetingWorkload(problem, z, cfg, 12).init(2, partition)
    for w in range(2):
        state = setup.init_state(w, tuple(partition[w]))
        replayed = []
        for frame in workload.frames:
            state, bests = setup.process_order(state, order_from_bytes(frame))
            replayed.append(tuple(bests))
        assert replayed == [results[w].bests for results in workload.results]


import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import threading
from multiprocessing.context import ForkServerProcess
from pathlib import Path

import numpy as np
import pytest

import nslp
from nslp import (BsfExecutor, BsfRecorder, BsfWorkerError, Cross, DriftSpec,
                  NonStationaryLP, Order, SimTiming, SparseDelta, apply_delta,
                  block_partition, evaluate, make_order, model_n,
                  model_n_optimum, order_from_bytes, order_to_bytes,
                  process_cohorts, replay_orders, run_targeting, snapshot)
from nslp.bsf import WorkerResult, _Pool, load_order_stream, save_order_stream
from nslp.targeting import TargetingConfig, TargetingState, TargetingWorkload


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
    delta = SparseDelta.from_changes(
        a_changes=[(0, 1, 2.5), (3, 0, -1.25)], b_changes=[(2, 7.0)],
        c_changes=[(1, 0.5), (3, -0.125)])
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
        delta = SparseDelta.from_changes(a_changes=[(0, j, 1.0) for j in range(k)])
        sizes.append(len(order_to_bytes(Order(theta=np.zeros(n), delta=delta, clock=0))))
    assert sizes[1] - sizes[0] == 4 * 12
    assert sizes[2] - sizes[1] == 4 * 12


def test_order_trailing_bytes_rejected():
    raw = order_to_bytes(Order(theta=np.zeros(2), delta=SparseDelta(), clock=0))
    with pytest.raises(ValueError):
        order_from_bytes(raw + b"\x00")


def test_order_stream_file_roundtrip(tmp_path):
    frames = [order_to_bytes(Order(theta=np.full(2, float(i)), delta=SparseDelta(), clock=i))
              for i in range(3)]
    path = tmp_path / "orders.bin"
    save_order_stream(path, frames)
    assert load_order_stream(path) == frames


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
    nxt = apply_delta(unit_square, SparseDelta.from_changes(b_changes=[(0, 2.0)]))
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
    trace = run_targeting(problem, z, cfg, 10,
                          BsfExecutor("worker-pool", 2, latency_rounds=50))
    m = trace.metrics
    assert m.p_workers == 2
    assert m.t_w_ns == 2 * m.t_v_ns
    assert m.t_v_ns > 0
    assert m.latency_ns > 0
    assert m.iterations == 10
    assert m.iter_ns > 0


def test_sim_metrics_are_synthetic_and_deterministic():
    problem = NonStationaryLP(base=model_n(4))
    cfg = TargetingConfig(points_per_cohort=2, spacing=0.5)
    timing = SimTiming(latency_ns=123.0, send_ns=10.0, work_ns_per_cohort=7.0,
                       recv_ns=3.0, evaluate_ns=5.0)
    ex = BsfExecutor("sequential-sim", 2, sim_timing=timing)
    a = run_targeting(problem, np.zeros(4), cfg, 5, ex).metrics
    b = run_targeting(problem, np.zeros(4), cfg, 5, ex).metrics
    assert a == b
    assert a.latency_ns == 123.0
    assert a.t_s_ns == 10.0
    assert a.t_v_ns == 14.0  # two cohorts per worker
    assert a.t_w_ns == 28.0
    assert a.t_r_ns == 6.0
    assert a.t_p_ns == 5.0
    assert a.iter_ns == 2 * (10.0 + 123.0) + 14.0 + 123.0 + 2 * 3.0 + 5.0


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


def _run_driver(script, env=os.environ):
    """Run ``script`` in a fresh interpreter that imports this nslp."""
    src = str(Path(nslp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], env={**env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def two_pool_runs(tmp_path_factory):
    """A driver, started without the BLAS variables, makes two pool runs.
    Per run: the driver's pid and each worker's (parent pid,
    OPENBLAS_NUM_THREADS)."""
    script = tmp_path_factory.mktemp("probe") / "driver.py"
    script.write_text(textwrap.dedent("""\
        import json, os
        import numpy as np
        from nslp import BsfExecutor, Order, SparseDelta

        class ProbeSetup:
            def init_state(self, worker_id, cohorts):
                return None

            def process_order(self, state, order):
                return None, (os.getppid(), os.environ.get("OPENBLAS_NUM_THREADS"))

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
                print(json.dumps({"master": os.getpid(), "workers": seen}), flush=True)
        """))
    done = _run_driver(script, {k: v for k, v in os.environ.items() if k not in _BLAS_VARS})
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_one_fork_server_per_process_is_gone_at_exit(two_pool_runs):
    assert len(two_pool_runs) == 2
    servers = {ppid for run in two_pool_runs for ppid, _ in run["workers"]}
    assert len(servers) == 1, two_pool_runs
    (server,) = servers
    assert server != two_pool_runs[0]["master"]
    # stopped and reaped by the driver itself, not left as a zombie
    with pytest.raises(ProcessLookupError):
        os.kill(server, 0)


def test_pool_workers_run_one_blas_thread(two_pool_runs):
    # byte-identical traces rely on single-threaded reductions in the workers
    assert {blas for run in two_pool_runs for _, blas in run["workers"]} == {"1"}


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


@pytest.mark.parametrize("field", ["latency_ns", "send_ns", "work_ns_per_cohort",
                                   "recv_ns", "evaluate_ns"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_sim_timing_rejects_bad_costs(field, value):
    with pytest.raises(ValueError, match=field):
        SimTiming(**{field: value})
    assert getattr(SimTiming(**{field: 0.0}), field) == 0.0


def test_record_replay_bit_reproduces_results():
    n = 6
    problem = NonStationaryLP(base=model_n(n),
                              drift=DriftSpec(kind="random-sparse",
                                              delta=0.1, magnitude=0.5, seed=8))
    z = _near_optimum_start(n)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    recorder = BsfRecorder()
    workload = TargetingWorkload(problem, z, cfg, 12)
    BsfExecutor("sequential-sim", 2).run(workload, recorder=recorder)
    assert len(recorder.orders) == 12

    partition = block_partition(n, 2)
    setup = TargetingWorkload(problem, z, cfg, 12).init(2, partition)
    for w in range(2):
        replayed = replay_orders(setup, w, partition[w], recorder.orders)
        for it, bests in enumerate(replayed):
            recorded = recorder.results[it][w].bests
            assert len(bests) == len(recorded)
            for a, b in zip(bests, recorded):
                assert a.cohort == b.cohort and a.value == b.value
                if a.point is not None:
                    assert np.array_equal(a.point, b.point)


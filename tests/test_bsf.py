import errno
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import signal
import struct
import textwrap
import threading
import time
from multiprocessing.context import ForkServerProcess
from pathlib import Path

import numpy as np
import pytest

import nslp
from nslp import (BsfExecutor, BsfWorkerError, Cross, DriftSpec, NonStationaryLP,
                  Order, SparseDelta, apply_delta, block_partition, evaluate,
                  make_order, model_n, model_n_optimum, order_from_bytes,
                  order_to_bytes, process_cohorts, run_targeting, snapshot)
from nslp.bsf import (RunMetrics, _Pool, _pool_context, _session, metrics_from_csv,
                      metrics_to_csv)
from nslp.lp import EMPTY_DELTA
from nslp.targeting import (TargetingConfig, TargetingState, TargetingWorkerSetup,
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


class Dropped:
    """A worker state that creates the file ``path`` when it is freed."""

    def __init__(self, path):
        self.path = path

    def __del__(self):
        open(self.path, "w").close()


class DropSetup(TrivialSetup):
    def __init__(self, folder):
        self.folder = folder

    def init_state(self, worker_id, cohorts):
        return Dropped(self.folder / str(worker_id))


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
    # a worker's answer is one int64 offset and one float64 value per
    # cohort, the pair process_cohorts returns, not an n-float point
    n = 200
    x, _ = model_n_optimum(n)
    start = np.maximum(x - np.random.default_rng(4242).uniform(0.0, 2.0, n), 0.0)
    answer = process_cohorts(model_n(n), Cross(start, 1.0, 8), range(100))
    assert np.count_nonzero(answer[0]) == 100
    payload = pickle.dumps(answer, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(payload) < 2_000
    back = pickle.loads(payload)
    assert [(a.dtype, a.tobytes()) for a in back] == [(a.dtype, a.tobytes()) for a in answer]


# each answer lists the offset and value counts at each position, and the
# error it raises; the position names the worker
@pytest.mark.parametrize("answer", [
    ([(3, 3), (2, 3)], "^worker 1 answered 2 offsets and 3 values for its 3 cohorts$"),
    ([(3, 3), (3, 4)], "^worker 1 answered 3 offsets and 4 values for its 3 cohorts$"),
    ([(3, 3), (3, 3), (3, 3)], "^expected 2 worker answers, got 3$"),
    ([(3, 3)], "^expected 2 worker answers, got 1$"),
])
def test_merge_results_names_a_worker_whose_bests_miss_or_add_a_cohort(answer):
    wl = TargetingWorkload(NonStationaryLP(base=model_n(6)), np.zeros(6),
                           TargetingConfig(points_per_cohort=2, spacing=0.5), 1)
    wl.init(2, block_partition(6, 2))  # worker 0 owns cohorts 0, 1 and 2, worker 1 the rest
    counts, error = answer
    with pytest.raises(ValueError, match=error):
        wl.merge_results([(np.zeros(k, dtype=np.int64), np.full(v, -np.inf)) for k, v in counts])


@pytest.mark.parametrize("partition", [[[3, 4, 5], [0, 1, 2]], [[0, 2], [1, 3, 4, 5]],
                                       [[0, 1, 2], [3, 4]], [[0, 1, 2], [2, 3, 4, 5]]])
def test_init_takes_only_contiguous_blocks_in_worker_order(partition):
    # answers carry no cohort ids, so merge_results relies on this layout
    wl = TargetingWorkload(NonStationaryLP(base=model_n(6)), np.zeros(6),
                           TargetingConfig(points_per_cohort=2, spacing=0.5), 1)
    with pytest.raises(ValueError, match="^the partition must be contiguous cohort blocks"):
        wl.init(2, partition)
    wl.init(2, [[2, 0, 1], [5, 3, 4]])  # each block is sorted first


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
        wl.evaluate(wl.merge_results([bests]))


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
    # nothing travels: delivery and return report the synthetic L
    assert (a.delivery_p50_ns, a.delivery_p90_ns, a.return_p50_ns, a.return_p90_ns) == \
        (123.0,) * 4


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


@pytest.fixture
def no_pool():
    """Start and end the test with no live pool in this process."""
    nslp.bsf._pool.shutdown()
    yield
    nslp.bsf._pool.shutdown()


def test_failed_setup_send_stops_the_started_workers(monkeypatch, no_pool):
    real_send = _Pool.send

    def send(self, w, msg):
        if w == 1:
            raise BsfWorkerError("synthetic send fault")
        real_send(self, w, msg)

    monkeypatch.setattr(_Pool, "send", send)
    with pytest.raises(BsfWorkerError, match="synthetic send fault"):
        with _session([[0], [1]], TrivialSetup()):
            pass
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault", [EOFError, OSError])
def test_failed_worker_start_stops_the_started_workers(monkeypatch, no_pool, fault):
    # a dead or unreachable fork server fails Process.start() this way
    real_start = ForkServerProcess.start
    started = []

    def start(self):
        if started:
            raise fault("synthetic fork server fault")
        started.append(self)
        real_start(self)

    monkeypatch.setattr(ForkServerProcess, "start", start)
    with pytest.raises(BsfWorkerError, match="worker 1 did not start.*synthetic fork server"):
        with _session([[0], [1]], TrivialSetup()):
            pass
    assert multiprocessing.active_children() == []


def test_failed_fork_server_start_raises_worker_error(monkeypatch, no_pool):
    # a session that starts workers first makes sure the server runs
    from multiprocessing import forkserver

    def ensure_running():
        raise OSError(errno.EMFILE, "synthetic: too many open files")

    monkeypatch.setattr(forkserver, "ensure_running", ensure_running)
    with pytest.raises(BsfWorkerError, match="fork server did not start.*too many open files"):
        with _session([[0]], TrivialSetup()):
            pass
    assert multiprocessing.active_children() == []


def test_failed_pipe_stops_the_started_workers(monkeypatch, no_pool):
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


def test_closing_the_pipes_stops_every_worker(no_pool):
    # a worker's only stop is the EOF on its pipe; a worker that missed it
    # would be joined for 10 s and then terminated, with a negative exit code
    with _session([[0], [1]], TrivialSetup()) as pool:
        assert pool.ping_latency_ns(3) > 0.0
    procs = list(pool.procs)
    t0 = time.monotonic()
    pool.shutdown()
    assert time.monotonic() - t0 < 10.0
    assert [proc.exitcode for proc in procs] == [0, 0]
    assert multiprocessing.active_children() == []


def test_an_idle_worker_keeps_no_state_of_its_last_session(no_pool, tmp_path):
    with _session([[0], [1]], DropSetup(tmp_path)) as pool:
        assert pool.ping_latency_ns(1) > 0.0
        assert list(tmp_path.iterdir()) == []
    for w in range(2):  # answered after the session's END frame
        pool.send(w, nslp.bsf.PING_FRAME)
        assert pool.recv(w) == nslp.bsf.PING_FRAME
    assert sorted(path.name for path in tmp_path.iterdir()) == ["0", "1"]


def test_pool_delays_are_nonnegative_and_fit_inside_the_exchange(monkeypatch, no_pool):
    # the master's stamps here bracket its own: the send's start comes
    # before bsf's, the receipt's end after it
    sends, replies = [], []
    real_send, real_recv = _Pool.send, _Pool.recv

    def send(self, w, msg):
        if msg[:1] == nslp.bsf.ORDER_FRAME:
            sends.append((w, time.perf_counter_ns()))
        real_send(self, w, msg)

    def recv(self, w):
        reply = real_recv(self, w)
        if reply[:1] == nslp.bsf.RESULT_FRAME:
            replies.append((w, time.perf_counter_ns(), reply))
        return reply

    monkeypatch.setattr(_Pool, "send", send)
    monkeypatch.setattr(_Pool, "recv", recv)
    problem, z, cfg = _tracking_inputs()
    m = run_targeting(problem, z, cfg, 8, BsfExecutor("worker-pool", 2, latency_rounds=5)).metrics
    assert len(sends) == len(replies) == 2 * 8
    exchange_ns = []
    for i in range(0, len(sends), 2):
        sent = dict(sends[i:i + 2])
        got = replies[i:i + 2]
        exchange = max(t for _, t, _ in got) - min(sent.values())
        exchange_ns.append(exchange)
        for w, received, reply in got:
            t_v, arrived, departed = struct.unpack_from("<QQQ", reply, 1)
            delivery, back = arrived - sent[w], received - departed
            assert delivery >= 0 and back >= 0 and departed - arrived >= t_v
            assert delivery + t_v + back <= exchange
    assert 0.0 <= m.delivery_p50_ns <= m.delivery_p90_ns <= max(exchange_ns)
    assert 0.0 <= m.return_p50_ns <= m.return_p90_ns <= max(exchange_ns)


@pytest.mark.parametrize("size", [1, 2, 3, 10, 11, 200])
def test_delay_quantiles_are_numpys_median_and_percentile(size):
    samples = list(np.random.default_rng(size).integers(0, 10**6, size))
    assert nslp.bsf._median_p90(samples) == pytest.approx(
        (np.median(samples), np.percentile(samples, 90)), rel=1e-12)


@pytest.fixture
def pings(monkeypatch):
    """The round counts of every latency ping this test makes."""
    made = []
    real = _Pool.ping_latency_ns

    def ping_latency_ns(self, rounds):
        made.append(rounds)
        return real(self, rounds)

    monkeypatch.setattr(_Pool, "ping_latency_ns", ping_latency_ns)
    return made


def test_the_sessions_of_one_pool_share_one_ping(no_pool, pings):
    problem, z, cfg = _tracking_inputs()

    def latency(p_workers, rounds=5):
        ex = BsfExecutor("worker-pool", p_workers, latency_rounds=rounds)
        return run_targeting(problem, z, cfg, 3, ex).metrics.latency_ns

    # the second session grows the pool, which keeps worker 0 and its L
    first = [latency(1), latency(2), latency(2)]
    assert pings == [5] and len(set(first)) == 1
    with pytest.raises(BsfWorkerError, match="synthetic worker fault"):
        BsfExecutor("worker-pool", 2, latency_rounds=5).run(FailingWorkload())
    assert pings == [5]
    # the failure shut the pool down and forgot its L
    after_error = latency(2)
    assert pings == [5, 5]
    # another round count measures again, and each count keeps its L
    assert latency(2, rounds=7) == latency(2, rounds=7)
    assert latency(2) == after_error
    assert pings == [5, 5, 7]


def _pool_pids():
    return [proc.pid for proc in nslp.bsf._pool.procs]


def _tracking_inputs():
    n = 6
    problem = NonStationaryLP(base=model_n(n), drift=DriftSpec(
        kind="random-sparse", delta=0.2, magnitude=0.5, seed=5))
    return problem, _near_optimum_start(n), TargetingConfig(points_per_cohort=4, spacing=0.25)


def test_sessions_of_one_two_and_one_workers_match_the_simulator(no_pool):
    problem, z, cfg = _tracking_inputs()
    pids = []
    for p_workers in (1, 2, 1):
        sim = run_targeting(problem, z, cfg, 8, BsfExecutor("sequential-sim", p_workers))
        pool = run_targeting(problem, z, cfg, 8,
                             BsfExecutor("worker-pool", p_workers, latency_rounds=5))
        assert pool.csv_text() == sim.csv_text()
        pids.append(_pool_pids())
    # the second session starts worker 1 only; the third uses worker 0 alone
    assert len(pids[0]) == 1 and pids[1][:1] == pids[0] and pids[2] == pids[1]
    assert len(set(pids[1])) == 2


def test_a_failed_session_or_a_dead_idle_worker_gives_the_next_session_new_workers(no_pool):
    problem, z, cfg = _tracking_inputs()
    sim = run_targeting(problem, z, cfg, 8, BsfExecutor("sequential-sim", 2)).csv_text()

    def session():
        trace = run_targeting(problem, z, cfg, 8, BsfExecutor("worker-pool", 2, latency_rounds=5))
        assert trace.csv_text() == sim
        return _pool_pids()

    first = session()
    with pytest.raises(BsfWorkerError, match="synthetic worker fault"):
        BsfExecutor("worker-pool", 2, latency_rounds=5).run(FailingWorkload())
    after_error = session()
    assert not set(after_error) & set(first)
    idle = nslp.bsf._pool.procs[1]
    os.kill(idle.pid, signal.SIGKILL)
    idle.join(timeout=10)
    assert idle.exitcode == -signal.SIGKILL
    after_kill = session()
    assert not set(after_kill) & set(after_error)


def test_a_session_that_finds_the_pool_busy_raises_at_once(no_pool):
    # two threads must never share the pipes; the lock is another session's
    with nslp.bsf._pool.lock:
        with pytest.raises(RuntimeError, match="already running a session"):
            BsfExecutor("worker-pool", 1).run(FailingWorkload())
    assert multiprocessing.active_children() == []


def _run_driver(*argv, env=os.environ):
    """Run the interpreter on ``argv`` (a script, or ``-m`` and a module with
    its arguments) in a fresh process that imports this nslp."""
    src = str(Path(nslp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], env={**env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_PROBE_DRIVER = """\
import json, os, signal, sys, time
if {src!r} not in sys.path:  # a worker starts with the master's sys.path
    sys.path.insert(1, {src!r})
import numpy as np
from nslp import BsfExecutor, Order, SparseDelta, bsf
{imports}
with open(sys.argv[1], "a") as fh:
    fh.write(f"{{os.getpid()}}\\n")
ARGV, FILE, PATH = sys.argv[1:], __file__, list(sys.path)
CHECKED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH")

# each worker runs this top level too, so it installs its own hook
imported = []


def record_import(event, args):
    if event == "import":
        imported.append((os.getpid(), args[0]))


sys.addaudithook(record_import)


def view():
    return {{"pid": os.getpid(), "ppid": os.getppid(), "argv": ARGV, "file": FILE,
             "path": PATH, "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
             "imported": [name for pid, name in imported if pid == os.getpid()]}}


class ProbeSetup:
    def init_state(self, worker_id, cohorts):
        return None

    def process_order(self, state, order):
        return None, [view()]


class ProbeWorkload:
    cohort_count = 2

    def init(self, p_workers, partition):
        return ProbeSetup()

    def make_order(self):
        return Order(theta=np.zeros(1), delta=SparseDelta(), clock=0)

    def merge_results(self, results):
        return [answer[0] for answer in results]

    def evaluate(self, merged):
        self.seen = merged

    def exit_check(self):
        return True

    def finalize(self):
        return self.seen


if __name__ == "__main__":
    before, runs = dict(os.environ), []
    for i in range(int(sys.argv[2])):
        seen, _ = BsfExecutor("worker-pool", 2, latency_rounds=1).run(ProbeWorkload())
        runs.append(seen)
        if i == 0 and sys.argv[3] == "kill":
            from multiprocessing.forkserver import _forkserver
            os.kill(seen[0]["pid"], signal.SIGKILL)
            bsf._pool.conns[0].poll(10)  # its end of the pipe closed
            os.kill(_forkserver._forkserver_pid, signal.SIGKILL)
            # wait for its exit but leave the reaping to the restart
            os.waitid(os.P_PID, _forkserver._forkserver_pid, os.WEXITED | os.WNOWAIT)
    after = dict(os.environ)
    with open(sys.argv[1]) as fh:
        top_level = [int(pid) for pid in fh]
    print(json.dumps({{
        "master": view(), "runs": runs, "top_level": top_level,
        "env_before": {{var: before.get(var) for var in CHECKED}},
        "env_after": {{var: after.get(var) for var in CHECKED}},
        "others_equal": {{k: v for k, v in before.items() if k not in CHECKED}}
        == {{k: v for k, v in after.items() if k not in CHECKED}},
        "returned": time.monotonic()}}))
"""


def _probe(tmp_path, *args, sessions=1, kill=False, imports="", drop=()):
    """Run a driver, in a fresh process whose environment lacks the
    variables in ``drop``, that makes ``sessions`` 2-worker pool runs
    (``kill``: then SIGKILLs worker 0 and the fork server after the first).
    Each worker reports its pid and parent pid, its view of the driver's
    ``sys.argv[1:]``, ``__file__`` and ``sys.path``, its
    OPENBLAS_NUM_THREADS and the modules it imported itself. Returns that,
    the master's view, the pids that ran the top level, the driver's BLAS
    variables and PYTHONPATH before and after, whether every other variable
    stayed equal, and ``exit_s``, the seconds from its return to the end of
    its last process (each of which holds its stdout)."""
    script = tmp_path / "driver.py"
    src = str(Path(nslp.__file__).resolve().parents[1])
    script.write_text(_PROBE_DRIVER.format(src=src, imports=imports))
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "top_level.pids"), str(sessions),
         "kill" if kill else "-", *args],
        env={k: v for k, v in os.environ.items() if k not in drop},
        capture_output=True, text=True, timeout=60)
    ended = time.monotonic()
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    return {**report, "exit_s": ended - report["returned"]}


@pytest.fixture(scope="module")
def two_pool_runs(tmp_path_factory):
    """Two pool runs of a driver started without the BLAS variables and
    PYTHONPATH, which returns with the pool idle."""
    return _probe(tmp_path_factory.mktemp("probe"), sessions=2, drop=(*_BLAS_VARS, "PYTHONPATH"))


def test_one_fork_server_per_process_is_gone_at_exit(two_pool_runs):
    runs = two_pool_runs["runs"]
    assert len(runs) == 2
    servers = {worker["ppid"] for run in runs for worker in run}
    assert len(servers) == 1, runs
    (server,) = servers
    assert server != two_pool_runs["master"]["pid"]
    # stopped and reaped by the driver itself, not left as a zombie
    with pytest.raises(ProcessLookupError):
        os.kill(server, 0)


def test_a_driver_that_returns_with_the_pool_idle_leaves_no_process(two_pool_runs):
    # the workers stop on the EOF of their pipes, then the server
    assert two_pool_runs["exit_s"] < 5.0
    for run in two_pool_runs["runs"]:
        for worker in run:
            with pytest.raises(ProcessLookupError):
                os.kill(worker["pid"], 0)


def test_sessions_reuse_the_workers_and_each_runs_the_driver_once(two_pool_runs):
    # the master and each worker run the top level, the server never
    first, second = ([worker["pid"] for worker in run] for run in two_pool_runs["runs"])
    assert first == second and len(set(first)) == 2
    assert sorted(two_pool_runs["top_level"]) == sorted([two_pool_runs["master"]["pid"], *first])


def test_pool_workers_run_one_blas_thread(two_pool_runs):
    # byte-identical traces rely on single-threaded reductions in the workers
    assert {worker["blas"] for run in two_pool_runs["runs"] for worker in run} == {"1"}


def test_pool_workers_import_nothing_before_their_first_order(two_pool_runs):
    # the server preloads what unpickling a worker's process object needs
    # (its pipe ends arrive as multiprocessing.popen_forkserver._DupFd), and
    # it ignores an ImportError in a preload, so only this sees a wrong name
    assert [worker["imported"] for run in two_pool_runs["runs"] for worker in run] == [[]] * 4


@pytest.fixture(scope="module", params=[False, True], ids=["one-server", "restarted-server"])
def server_kill_runs(request, tmp_path_factory):
    """``two_pool_runs``, or with ``restarted-server`` the same driver
    SIGKILLing worker 0 and the fork server after its first run, so the
    second starts a new pool and server."""
    if not request.param:
        return {**request.getfixturevalue("two_pool_runs"), "killed": False}
    return {**_probe(tmp_path_factory.mktemp("kill"), sessions=2, kill=True,
                     drop=(*_BLAS_VARS, "PYTHONPATH")), "killed": True}


def test_pool_runs_leave_the_drivers_environment_as_it_was(server_kill_runs):
    # the fork server gets one BLAS thread and this nslp on PYTHONPATH only
    # while it may start, which includes the restart the second run makes
    # after the server and a worker were killed; the driver, started without
    # those four variables, finds nslp through its own sys.path
    run = server_kill_runs
    assert run["env_after"] == run["env_before"]
    assert run["others_equal"]
    assert set(run["env_before"].values()) == {None}
    workers = [worker for seen in run["runs"] for worker in seen]
    assert [worker["blas"] for worker in workers] == ["1"] * 4
    assert len({worker["ppid"] for worker in workers}) == (2 if run["killed"] else 1)


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
    # one pool serves both rows, so they report the L it measured once
    metrics = metrics_from_csv(out / "metrics.csv")
    assert [m.p_workers for m in metrics] == [1, 2]
    assert metrics[0].latency_ns == metrics[1].latency_ns > 0.0


def test_each_workers_run_of_the_driver_sees_what_the_masters_saw(tmp_path):
    run = _probe(tmp_path, "--flag", "two words", "")
    master = run["master"]
    assert master["argv"] == [str(tmp_path / "top_level.pids"), "1", "-", "--flag", "two words",
                              ""]
    assert master["file"] == str(tmp_path / "driver.py")
    assert master["path"][0] == str(tmp_path)
    for worker in run["runs"][0]:
        assert [worker[key] for key in ("argv", "file", "path")] == \
            [master[key] for key in ("argv", "file", "path")]


def test_driver_with_a_sibling_import_is_run_by_each_worker(tmp_path):
    (tmp_path / "helper.py").write_text("TAG = 'sibling'\n")
    run = _probe(tmp_path, imports="import helper")
    # each worker runs the driver as it starts, on the master's sys.path
    assert sorted(run["top_level"]) == sorted(
        view["pid"] for view in [run["master"], *run["runs"][0]])


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
            state, answer = setup.process_order(state, order_from_bytes(frame))
            replayed.append([a.tobytes() for a in answer])
        assert replayed == [[a.tobytes() for a in results[w]] for results in workload.results]


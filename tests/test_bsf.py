import os
import threading

import numpy as np
import pytest

from nslp import (BsfExecutor, BsfRecorder, BsfWorkerError, Cross, DriftSpec,
                  NonStationaryLP, Order, SimTiming, SparseDelta, apply_delta,
                  block_partition, evaluate, make_order, measure_latency, model_n,
                  model_n_optimum, order_from_bytes, order_to_bytes,
                  process_cohorts, replay_orders, run_bsf, run_targeting, snapshot)
from nslp.bsf import WorkerResult, load_order_stream, save_order_stream
from nslp.targeting import TargetingConfig, TargetingState, TargetingWorkload


class FailingSetup:
    """Worker-side setup whose order processing always raises (picklable)."""

    def init_state(self, worker_id, cohorts):
        return None

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
        run_bsf(FailingWorkload(), 2, "worker-pool", latency_rounds=10)


def test_worker_exit_mid_order_raises_worker_error_in_bounded_time():
    outcome = []

    def run():
        try:
            run_bsf(DyingWorkload(), 2, "worker-pool", latency_rounds=10)
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=10.0)
    assert not runner.is_alive(), "dead worker hung the master"
    assert len(outcome) == 1 and isinstance(outcome[0], BsfWorkerError), outcome
    assert "exit code 3" in str(outcome[0])


def test_worker_count_validation(unit_square):
    problem = NonStationaryLP(base=unit_square)
    cfg = TargetingConfig(points_per_cohort=2, spacing=0.25)
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 1, BsfExecutor("sequential-sim", 3))
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 1, BsfExecutor("sequential-sim", 0))
    with pytest.raises(ValueError):
        run_targeting(problem, np.zeros(2), cfg, 1, BsfExecutor("bogus", 1))


def test_record_replay_bit_reproduces_results():
    n = 6
    problem = NonStationaryLP(base=model_n(n),
                              drift=DriftSpec(kind="random-sparse",
                                              delta=0.1, magnitude=0.5, seed=8))
    z = _near_optimum_start(n)
    cfg = TargetingConfig(points_per_cohort=4, spacing=0.25)
    recorder = BsfRecorder()
    workload = TargetingWorkload(problem, z, cfg, 12)
    run_bsf(workload, 2, "sequential-sim", recorder=recorder)
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


def test_measure_latency():
    assert measure_latency("sequential-sim") == 10_000.0
    assert measure_latency("sequential-sim", sim_timing=SimTiming(latency_ns=0.0)) == 0.0
    pool_latency = measure_latency("worker-pool", rounds=50)
    assert 0.0 < pool_latency < 1e9

"""Bulk-synchronous farm skeleton: one master, P workers, per-iteration
macro-steps (send orders, process, receive results, evaluate) separated by
a full barrier.

One master loop drives both backends, which differ only in how an order
frame reaches the workers and their results come back, and must produce
identical outputs: ``sequential-sim`` runs everything in-process with a
deterministic synthetic clock, ``worker-pool`` runs workers in processes
forked from a fork server that has numpy and nslp preloaded (so it needs a
POSIX start method), connected by pipes, and reports measured timings.
``BsfExecutor(backend, p_workers).run(workload)`` is the farm's only entry
point.

Workload protocol (duck-typed):

    workload.cohort_count                      -> int
    workload.init(p_workers, partition)        -> setup  (picklable)
    workload.make_order()                      -> Order
    workload.merge_results(list[WorkerResult]) -> merged
    workload.evaluate(merged)                  -> None
    workload.exit_check()                      -> bool
    workload.finalize()                        -> final state

    setup.init_state(worker_id, cohorts)       -> state
    setup.process_order(state, order)          -> (state, bests)

``process_order`` must be pure in (state, order): replaying a recorded
order stream bit-reproduces the results.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import statistics
import struct
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .lp import DenseLP, SparseDelta, _readonly, delta_between

_PAIR = np.dtype([("i", "<u4"), ("v", "<f8")])

ORDER_FRAME = b"O"
PING_FRAME = b"P"
STOP_FRAME = b"S"
RESULT_FRAME = b"R"
PONG_FRAME = b"p"
ERROR_FRAME = b"E"


class BsfWorkerError(RuntimeError):
    """A worker failed; the run is aborted (no fault tolerance)."""


@dataclass(frozen=True)
class Order:
    """Master-to-worker message: the new cross center plus sparse data deltas."""

    theta: np.ndarray
    delta: SparseDelta
    clock: int

    def __post_init__(self):
        object.__setattr__(self, "theta", _readonly(self.theta))
        if self.clock < 0:
            raise ValueError("clock must be nonnegative")


@dataclass(frozen=True)
class WorkerResult:
    worker_id: int
    bests: tuple


def make_order(prev: DenseLP, next_lp: DenseLP, center, clock: int) -> Order:
    """Order that turns a worker holding ``prev`` into one holding ``next_lp``
    with the cross centered at ``center``. A stationary problem yields empty
    delta sections: only the center is transmitted."""
    return Order(theta=np.asarray(center, dtype=np.float64),
                 delta=delta_between(prev, next_lp), clock=clock)


@dataclass(frozen=True)
class RunMetrics:
    """Per-iteration cost parameters, averaged over the iterative process.

    Durations are nanoseconds. ``t_w_ns`` is always ``p_workers`` times the
    mean per-worker order-execution time ``t_v_ns``.
    """

    p_workers: int
    latency_ns: float
    t_s_ns: float
    t_v_ns: float
    t_r_ns: float
    t_p_ns: float
    t_w_ns: float
    iter_ns: float = 0.0
    t_v_spread_ns: float = 0.0
    iterations: int = 0

    CSV_HEADER = "P,L_ns,ts_ns,tv_ns,tr_ns,tp_ns,tw_ns"

    def csv_row(self) -> str:
        return (f"{self.p_workers},{self.latency_ns!r},{self.t_s_ns!r},{self.t_v_ns!r},"
                f"{self.t_r_ns!r},{self.t_p_ns!r},{self.t_w_ns!r}")


def metrics_to_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(RunMetrics.CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv_row() + "\n")


@dataclass(frozen=True)
class SimTiming:
    """Synthetic per-unit costs charged by the sequential simulator."""

    latency_ns: float = 10_000.0
    send_ns: float = 2_000.0
    work_ns_per_cohort: float = 100_000.0
    recv_ns: float = 2_000.0
    evaluate_ns: float = 10_000.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass
class BsfRecorder:
    """Captures the order stream and per-iteration results for replay."""

    orders: list = field(default_factory=list)
    results: list = field(default_factory=list)


# --- wire format ------------------------------------------------------------
# Orders: little-endian, length-prefixed sections. Layout:
#   u32 n | n x f64 theta | u64 clock
#   u32 count_a | count_a x (u32 row*n+col, f64 value)
#   u32 count_b | count_b x (u32 index, f64 value)
#   u32 count_c | count_c x (u32 index, f64 value)


def _pairs_to_bytes(idx: np.ndarray, vals: np.ndarray) -> bytes:
    rec = np.empty(len(idx), dtype=_PAIR)
    rec["i"] = idx
    rec["v"] = vals
    return struct.pack("<I", len(idx)) + rec.tobytes()


def order_to_bytes(order: Order) -> bytes:
    n = order.theta.shape[0]
    d = order.delta
    head = struct.pack("<I", n) + order.theta.astype("<f8").tobytes()
    head += struct.pack("<Q", order.clock)
    body = _pairs_to_bytes(d.a_rows * n + d.a_cols, d.a_vals)
    body += _pairs_to_bytes(d.b_idx, d.b_vals)
    body += _pairs_to_bytes(d.c_idx, d.c_vals)
    return head + body


def order_from_bytes(buf: bytes) -> Order:
    (n,) = struct.unpack_from("<I", buf, 0)
    off = 4
    theta = np.frombuffer(buf, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    (clock,) = struct.unpack_from("<Q", buf, off)
    off += 8
    sections = []
    for _ in range(3):
        (count,) = struct.unpack_from("<I", buf, off)
        off += 4
        rec = np.frombuffer(buf, dtype=_PAIR, count=count, offset=off)
        off += count * _PAIR.itemsize
        sections.append((rec["i"].astype(np.int64), rec["v"].astype(np.float64)))
    if off != len(buf):
        raise ValueError("trailing bytes in order frame")
    (a_idx, a_vals), (b_idx, b_vals), (c_idx, c_vals) = sections
    delta = SparseDelta(a_idx // n, a_idx % n, a_vals, b_idx, b_vals, c_idx, c_vals)
    return Order(theta=theta, delta=delta, clock=int(clock))


def save_order_stream(path, orders) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(orders)))
        for frame in orders:
            fh.write(struct.pack("<I", len(frame)))
            fh.write(frame)


def load_order_stream(path) -> list[bytes]:
    with open(path, "rb") as fh:
        (count,) = struct.unpack("<I", fh.read(4))
        frames = []
        for _ in range(count):
            (size,) = struct.unpack("<I", fh.read(4))
            frames.append(fh.read(size))
    return frames


def replay_orders(setup, worker_id: int, cohorts, order_frames) -> list[tuple]:
    """Re-run a recorded order stream against a fresh worker state."""
    state = setup.init_state(worker_id, tuple(cohorts))
    out = []
    for frame in order_frames:
        state, bests = setup.process_order(state, order_from_bytes(frame))
        out.append(tuple(bests))
    return out


# --- partitioning -----------------------------------------------------------


def block_partition(n_items: int, p: int) -> list[list[int]]:
    """Contiguous blocks; the first ``n_items % p`` workers take one extra."""
    if p < 1:
        raise ValueError("need at least one worker")
    if n_items < p:
        raise ValueError(f"cannot split {n_items} cohorts over {p} workers")
    base, extra = divmod(n_items, p)
    parts = []
    start = 0
    for w in range(p):
        size = base + (1 if w < extra else 0)
        parts.append(list(range(start, start + size)))
        start += size
    return parts


# --- the macro-step loop -----------------------------------------------------


def _run(workload, exchange, recorder: BsfRecorder | None):
    """The BSF master loop shared by both backends. Each iteration encodes
    the order, hands the frame to ``exchange`` (which returns one
    ``WorkerResult`` per worker, in worker order: the barrier), then merges
    and evaluates, until ``exit_check``. Returns the per-iteration evaluate
    and whole-iteration times (ns)."""
    eval_ns, iter_ns = [], []
    while True:
        start = time.perf_counter_ns()
        frame = order_to_bytes(workload.make_order())
        if recorder is not None:
            recorder.orders.append(frame)
        results = exchange(frame)
        if recorder is not None:
            recorder.results.append(list(results))
        t0 = time.perf_counter_ns()
        workload.evaluate(workload.merge_results(results))
        end = time.perf_counter_ns()
        eval_ns.append(end - t0)
        iter_ns.append(end - start)
        if workload.exit_check():
            return eval_ns, iter_ns


def _run_sim(workload, setup, partition, timing: SimTiming, recorder: BsfRecorder | None):
    """In-process exchange; the metrics are the closed-form ``timing`` charges."""
    p_workers = len(partition)
    states = [setup.init_state(w, tuple(part)) for w, part in enumerate(partition)]

    def exchange(frame: bytes) -> list[WorkerResult]:
        results = []
        for w in range(p_workers):
            states[w], bests = setup.process_order(states[w], order_from_bytes(frame))
            results.append(WorkerResult(w, tuple(bests)))
        return results

    _, iter_ns = _run(workload, exchange, recorder)
    work_ns = [timing.work_ns_per_cohort * len(part) for part in partition]
    t_v = statistics.fmean(work_ns)
    metrics = RunMetrics(
        p_workers=p_workers,
        latency_ns=timing.latency_ns,
        t_s_ns=timing.send_ns,
        t_v_ns=t_v,
        t_r_ns=p_workers * timing.recv_ns,
        t_p_ns=timing.evaluate_ns,
        t_w_ns=p_workers * t_v,
        iter_ns=(p_workers * (timing.send_ns + timing.latency_ns) + max(work_ns)
                 + timing.latency_ns + p_workers * timing.recv_ns + timing.evaluate_ns),
        t_v_spread_ns=float(max(work_ns) - min(work_ns)),
        iterations=len(iter_ns),
    )
    return workload.finalize(), metrics


# --- worker pool ------------------------------------------------------------


def _worker_main(conn, worker_id: int, cohorts) -> None:
    try:
        setup = pickle.loads(conn.recv_bytes())
        state = setup.init_state(worker_id, tuple(cohorts))
        while True:
            msg = conn.recv_bytes()
            tag = msg[:1]
            if tag == ORDER_FRAME:
                t0 = time.perf_counter_ns()
                order = order_from_bytes(msg[1:])
                state, bests = setup.process_order(state, order)
                t_v = time.perf_counter_ns() - t0
                payload = pickle.dumps((worker_id, tuple(bests)), protocol=pickle.HIGHEST_PROTOCOL)
                conn.send_bytes(RESULT_FRAME + struct.pack("<Q", t_v) + payload)
            elif tag == PING_FRAME:
                conn.send_bytes(PONG_FRAME)
            elif tag == STOP_FRAME:
                return
            else:
                raise RuntimeError(f"unknown frame tag {tag!r}")
    except EOFError:
        pass
    except BaseException:
        try:
            conn.send_bytes(ERROR_FRAME + traceback.format_exc().encode())
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


@functools.cache
def _pool_context():
    """The start method of every pool in this process: one fork server,
    started at the first pool, that forks each worker with numpy and nslp
    already imported. It never imports the driver's ``__main__``, and it is
    stopped and reaped when this process exits."""
    import multiprocessing as mp
    from multiprocessing import forkserver, util

    # workers inherit the server's environment, not the master's: keep their
    # math on one BLAS thread (deterministic reductions, no oversubscription
    # underneath the process-level parallelism) before the server starts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # the server does not take the master's sys.path: point it at this nslp,
    # unless that sits in a site directory a fresh interpreter searches anyway
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.path.basename(root) not in ("site-packages", "dist-packages"):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")]))
    ctx = mp.get_context("forkserver")
    ctx.set_forkserver_preload(["numpy", "nslp"])
    # priority < 0 runs after multiprocessing has joined the live children
    util.Finalize(None, forkserver._forkserver._stop, exitpriority=-1)
    return ctx


class _Pool:
    """Worker processes forked by the fork server, one duplex pipe each.
    Every start or pipe error on the master side surfaces as
    ``BsfWorkerError``."""

    def __init__(self, partition, setup):
        ctx = _pool_context()
        self.conns = []
        self.procs = []
        children = []
        try:
            for w, part in enumerate(partition):
                parent, child = ctx.Pipe(duplex=True)
                self.conns.append(parent)
                children.append(child)
                proc = ctx.Process(target=_worker_main, args=(child, w, tuple(part)),
                                   daemon=True)
                try:
                    proc.start()
                except (EOFError, OSError) as exc:
                    raise BsfWorkerError(f"worker {w} did not start: {exc!r}") from exc
                self.procs.append(proc)
            for child in children:
                child.close()
            # the setup goes out as each worker's first frame once all have
            # started: start() stays cheap, the workers boot side by side, and
            # a child that dies at bootstrap breaks its pipe instead of
            # blocking the master
            blob = pickle.dumps(setup, protocol=pickle.HIGHEST_PROTOCOL)
            for w in range(len(self.conns)):
                self.send(w, blob)
        except BaseException:
            for child in children:
                child.close()
            self.shutdown()
            raise

    def _exit_code(self, w: int):
        self.procs[w].join(timeout=1)
        return self.procs[w].exitcode

    def send(self, w: int, msg: bytes) -> None:
        try:
            self.conns[w].send_bytes(msg)
        except OSError as exc:
            raise BsfWorkerError(f"worker {w} pipe closed: {exc} "
                                 f"(exit code {self._exit_code(w)})") from exc

    def recv(self, w: int) -> bytes:
        try:
            msg = self.conns[w].recv_bytes()
        except (EOFError, OSError) as exc:
            raise BsfWorkerError(f"worker {w} exited before answering "
                                 f"(exit code {self._exit_code(w)})") from exc
        if msg[:1] == ERROR_FRAME:
            raise BsfWorkerError(f"worker {w} failed:\n{msg[1:].decode(errors='replace')}")
        return msg

    def ping_latency_ns(self, rounds: int) -> float:
        """Median one-byte ping-pong round trip over worker 0, halved."""
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter_ns()
            self.send(0, PING_FRAME)
            if self.recv(0) != PONG_FRAME:
                raise BsfWorkerError("unexpected reply to ping")
            samples.append(time.perf_counter_ns() - t0)
        return statistics.median(samples) / 2.0

    def shutdown(self) -> None:
        for conn in self.conns:
            try:
                conn.send_bytes(STOP_FRAME)
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass


def _run_pool(workload, setup, partition, recorder: BsfRecorder | None, latency_rounds: int):
    """Pipe exchange; the metrics are measured on the master."""
    from multiprocessing.connection import wait

    p_workers = len(partition)
    pool = _Pool(partition, setup)
    try:
        latency = pool.ping_latency_ns(latency_rounds)
        send_ns, recv_ns = [], []
        tv_by_worker = [[] for _ in range(p_workers)]

        def exchange(frame: bytes) -> list[WorkerResult]:
            msg = ORDER_FRAME + frame
            for w in range(p_workers):
                t0 = time.perf_counter_ns()
                pool.send(w, msg)
                send_ns.append(time.perf_counter_ns() - t0)
            results = [None] * p_workers
            pending = dict(zip(pool.conns, range(p_workers)))
            while pending:
                for conn in wait(list(pending)):
                    w = pending.pop(conn)
                    t0 = time.perf_counter_ns()
                    reply = pool.recv(w)
                    recv_ns.append(time.perf_counter_ns() - t0)
                    if reply[:1] != RESULT_FRAME:
                        raise BsfWorkerError(f"unexpected frame {reply[:1]!r} from worker {w}")
                    (t_v,) = struct.unpack_from("<Q", reply, 1)
                    tv_by_worker[w].append(t_v)
                    results[w] = WorkerResult(*pickle.loads(reply[9:]))
            return results

        eval_ns, iter_ns = _run(workload, exchange, recorder)
        worker_means = [statistics.fmean(v) for v in tv_by_worker]
        t_v = statistics.fmean(worker_means)
        metrics = RunMetrics(
            p_workers=p_workers,
            latency_ns=latency,
            t_s_ns=max(0.0, statistics.fmean(send_ns) - latency),
            t_v_ns=t_v,
            t_r_ns=max(0.0, sum(recv_ns) / len(iter_ns) - p_workers * latency),
            t_p_ns=statistics.fmean(eval_ns),
            t_w_ns=p_workers * t_v,
            iter_ns=statistics.fmean(iter_ns),
            t_v_spread_ns=float(max(worker_means) - min(worker_means)),
            iterations=len(iter_ns),
        )
        return workload.finalize(), metrics
    finally:
        pool.shutdown()


BACKENDS = ("sequential-sim", "worker-pool")


@dataclass(frozen=True)
class BsfExecutor:
    """A configured backend choice, passed to the solvers that need one."""

    backend: str = "sequential-sim"
    p_workers: int = 1
    sim_timing: SimTiming = field(default_factory=SimTiming)
    latency_rounds: int = 1000

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")

    def run(self, workload, recorder: BsfRecorder | None = None):
        """Run a workload through the farm; returns (final state, RunMetrics).

        Both backends produce identical workload outputs; only the metrics
        differ (synthetic for the simulator, measured for the pool).
        """
        partition = block_partition(workload.cohort_count, self.p_workers)
        setup = workload.init(self.p_workers, partition)
        if self.backend == "sequential-sim":
            return _run_sim(workload, setup, partition, self.sim_timing, recorder)
        return _run_pool(workload, setup, partition, recorder, self.latency_rounds)

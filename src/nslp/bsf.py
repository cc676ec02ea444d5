"""Bulk-synchronous farm skeleton: one master, P workers, per-iteration
macro-steps (send orders, process, receive results, evaluate) separated by
a full barrier.

One master loop drives both backends, which differ only in how an order
frame reaches the workers and their results come back, and must produce
identical outputs: ``sequential-sim`` runs everything in-process with a
deterministic synthetic clock (the latency ``sim_latency_ns`` plus fixed
charges), ``worker-pool`` runs workers that live for the whole process,
connected by pipes, and reports measured timings. The pool's workers are
forked from a fork server (so it needs a POSIX start method) by the first
session, and by a later one that asks for more workers; each session sends
them its setup as a first frame. ``BsfExecutor(backend, p_workers).run(workload)``
is the farm's only entry point.

Workload protocol (duck-typed):

    workload.cohort_count                      -> int
    workload.init(p_workers, partition)        -> setup  (picklable)
    workload.make_order()                      -> Order
    workload.merge_results(list[WorkerResult]) -> merged  (in worker order)
    workload.evaluate(merged)                  -> None
    workload.exit_check()                      -> bool
    workload.finalize()                        -> final state

    setup.init_state(worker_id, cohorts)       -> state
    setup.process_order(state, order)          -> (state, bests)

``process_order`` must be pure in (state, order): replaying a recorded
order stream bit-reproduces the results. ``merge_results`` gets one
``WorkerResult`` per worker, in worker order, and may rely on that order.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import statistics
import struct
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .lp import EMPTY_DELTA, DenseLP, SparseDelta, _check_count, _readonly, delta_between

_PAIR = np.dtype([("i", "<u4"), ("v", "<f8")])
_U32, _U64, _F64 = np.dtype("<u4"), np.dtype("<u8"), np.dtype("<f8")

ORDER_FRAME = b"O"
PING_FRAME = b"P"
RESULT_FRAME = b"R"
ERROR_FRAME = b"E"
SETUP_FRAME = b"S"
END_FRAME = b"D"


class BsfWorkerError(RuntimeError):
    """A worker failed; the run is aborted (no fault tolerance)."""


@dataclass(frozen=True)
class Order:
    """Master-to-worker message: the new cross center plus sparse data deltas.

    Like ``DenseLP``, it keeps a contiguous float64 ``theta`` as given, not
    a copy, and makes it read-only."""

    theta: np.ndarray
    delta: SparseDelta
    clock: int

    def __post_init__(self):
        object.__setattr__(self, "theta", _readonly(self.theta))
        if self.clock < 0:
            raise ValueError("clock must be nonnegative")


@dataclass(frozen=True)
class WorkerResult:
    """One worker's answer to an order; compares by value."""

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
    mean per-worker order-execution time ``t_v_ns``. ``delivery_*`` (an
    order's send by the master to its receipt by a worker) and ``return_*``
    (a result's send by a worker to its receipt by the master) are the
    median and 90th percentile over every worker's every order: the link as
    each iteration met it, beside the hot ping's ``L``. Only the CSV's
    seven fields survive ``metrics_from_csv``.
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
    delivery_p50_ns: float = 0.0
    delivery_p90_ns: float = 0.0
    return_p50_ns: float = 0.0
    return_p90_ns: float = 0.0

    CSV_HEADER = "P,L_ns,ts_ns,tv_ns,tr_ns,tp_ns,tw_ns"

    def csv_row(self) -> str:
        return (f"{self.p_workers},{self.latency_ns!r},{self.t_s_ns!r},{self.t_v_ns!r},"
                f"{self.t_r_ns!r},{self.t_p_ns!r},{self.t_w_ns!r}")


def metrics_to_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(RunMetrics.CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv_row() + "\n")


def metrics_from_csv(path) -> list[RunMetrics]:
    """The rows ``metrics_to_csv`` wrote, with the seven CSV fields set;
    blank lines are skipped."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RunMetrics.CSV_HEADER:
            raise ValueError(f"unexpected metrics header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            fields = line.strip().split(",")
            if len(fields) != 7:
                raise ValueError(f"metrics line {lineno} has {len(fields)} fields, expected 7")
            p, latency, ts, tv, tr, tp, tw = fields
            rows.append(RunMetrics(p_workers=int(p), latency_ns=float(latency),
                                   t_s_ns=float(ts), t_v_ns=float(tv), t_r_ns=float(tr),
                                   t_p_ns=float(tp), t_w_ns=float(tw)))
    if not rows:
        raise ValueError("metrics file has no rows")
    return rows


# --- wire format ------------------------------------------------------------
# Orders: little-endian, length-prefixed sections, one per SparseDelta
# section; an A index is the flat position row*n+col. Layout:
#   u32 n | n x f64 theta | u64 clock
#   u32 count_a | count_a x (u32 A index, f64 value)
#   u32 count_b | count_b x (u32 b index, f64 value)
#   u32 count_c | count_c x (u32 c index, f64 value)
# A worker echoes a PING frame and answers an ORDER with a RESULT frame: its
# t_v, its receipt of the order and its send of the result (three u64 ns,
# the last two read from the host-wide perf_counter_ns clock) and pickled
# bests, per cohort the winning marker's offset and value, which the master
# turns back into a point on its own cross. The pipe
# names the worker, which lives until the master closes that pipe. A session
# opens with a SETUP frame (u32 worker id | u32 count | count x u32 cohort |
# the pickled setup) and closes with a one-byte END frame.


def _pairs_to_bytes(idx: np.ndarray, vals: np.ndarray) -> bytes:
    rec = np.empty(len(idx), dtype=_PAIR)
    rec["i"] = idx
    rec["v"] = vals
    return struct.pack("<I", len(idx)) + rec.tobytes()


def order_to_bytes(order: Order) -> bytes:
    d = order.delta
    head = struct.pack("<I", order.theta.shape[0]) + order.theta.astype("<f8").tobytes()
    head += struct.pack("<Q", order.clock)
    body = _pairs_to_bytes(d.a_idx, d.a_vals)
    body += _pairs_to_bytes(d.b_idx, d.b_vals)
    body += _pairs_to_bytes(d.c_idx, d.c_vals)
    return head + body


def order_from_bytes(buf: bytes) -> Order:
    """The order a frame carries. A frame cut short anywhere, or with bytes
    past its last section, raises ValueError. A frame whose three sections
    are empty decodes to the shared ``EMPTY_DELTA``."""
    off = 0

    def take(dtype: np.dtype, count: int) -> np.ndarray:
        nonlocal off
        end = off + dtype.itemsize * count
        if end > len(buf):
            raise ValueError(f"order frame is truncated: {len(buf)} bytes, "
                             f"needs at least {end}")
        got = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
        off = end
        return got

    n = int(take(_U32, 1)[0])
    theta = take(_F64, n).copy()
    clock = int(take(_U64, 1)[0])
    recs = [take(_PAIR, int(take(_U32, 1)[0])) for _ in range(3)]
    if off != len(buf):
        raise ValueError("trailing bytes in order frame")
    if not any(len(rec) for rec in recs):
        return Order(theta=theta, delta=EMPTY_DELTA, clock=clock)
    sections = [a for r in recs for a in (r["i"].astype(np.int64), r["v"].astype(np.float64))]
    return Order(theta=theta, delta=SparseDelta(*sections), clock=clock)


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


def _run(workload, exchange):
    """The BSF master loop shared by both backends. Each iteration encodes
    the order, hands the frame to ``exchange`` (which returns one
    ``WorkerResult`` per worker, in worker order: the barrier), then merges
    and evaluates, until ``exit_check``. ``merge_results`` gets the results
    in that order and may rely on it. Returns the per-iteration evaluate and
    whole-iteration times (ns)."""
    eval_ns, iter_ns = [], []
    while True:
        start = time.perf_counter_ns()
        results = exchange(order_to_bytes(workload.make_order()))
        t0 = time.perf_counter_ns()
        workload.evaluate(workload.merge_results(results))
        end = time.perf_counter_ns()
        eval_ns.append(end - t0)
        iter_ns.append(end - start)
        if workload.exit_check():
            return eval_ns, iter_ns


# the simulator's one-byte latency L unless ``BsfExecutor.sim_latency_ns``
# sets it, and its fixed synthetic charges besides L (ns)
DEFAULT_LATENCY_NS = 10_000.0
_SIM_SEND_NS = 2_000.0
_SIM_WORK_NS_PER_COHORT = 100_000.0
_SIM_RECV_NS = 2_000.0
_SIM_EVALUATE_NS = 10_000.0


def _run_sim(workload, setup, partition, latency_ns: float):
    """In-process exchange: each frame is decoded once and the read-only
    ``Order`` goes to every worker. The metrics are closed-form charges: the
    ``latency_ns`` given and the fixed ``_SIM_*`` costs. Nothing travels, so
    delivery and return report that synthetic ``L`` too."""
    p_workers = len(partition)
    states = [setup.init_state(w, tuple(part)) for w, part in enumerate(partition)]

    def exchange(frame: bytes) -> list[WorkerResult]:
        order = order_from_bytes(frame)
        results = []
        for w in range(p_workers):
            states[w], bests = setup.process_order(states[w], order)
            results.append(WorkerResult(w, tuple(bests)))
        return results

    _, iter_ns = _run(workload, exchange)
    work_ns = [_SIM_WORK_NS_PER_COHORT * len(part) for part in partition]
    t_v = statistics.fmean(work_ns)
    metrics = RunMetrics(
        p_workers=p_workers,
        latency_ns=latency_ns,
        t_s_ns=_SIM_SEND_NS,
        t_v_ns=t_v,
        t_r_ns=p_workers * _SIM_RECV_NS,
        t_p_ns=_SIM_EVALUATE_NS,
        t_w_ns=p_workers * t_v,
        iter_ns=(p_workers * (_SIM_SEND_NS + latency_ns) + max(work_ns)
                 + latency_ns + p_workers * _SIM_RECV_NS + _SIM_EVALUATE_NS),
        t_v_spread_ns=float(max(work_ns) - min(work_ns)),
        iterations=len(iter_ns),
        delivery_p50_ns=latency_ns,
        delivery_p90_ns=latency_ns,
        return_p50_ns=latency_ns,
        return_p90_ns=latency_ns,
    )
    return workload.finalize(), metrics


# --- worker pool ------------------------------------------------------------


def _worker_main(conn) -> None:
    """A pool worker: it serves one session after another until the master
    closes its pipe. A SETUP frame replaces its setup and state, and an END
    frame drops them, so an idle worker keeps no session's data."""
    setup = state = None
    try:
        while True:
            msg = conn.recv_bytes()
            tag = msg[:1]
            if tag == ORDER_FRAME:
                t0 = time.perf_counter_ns()  # the order's receipt, and t_v's start
                state, bests = setup.process_order(state, order_from_bytes(msg[1:]))
                t_v = time.perf_counter_ns() - t0
                payload = pickle.dumps(tuple(bests), protocol=pickle.HIGHEST_PROTOCOL)
                stamps = struct.pack("<QQQ", t_v, t0, time.perf_counter_ns())
                conn.send_bytes(RESULT_FRAME + stamps + payload)
            elif tag == PING_FRAME:
                conn.send_bytes(PING_FRAME)
            elif tag == SETUP_FRAME:
                worker_id, count = struct.unpack_from("<II", msg, 1)
                cohorts = struct.unpack_from(f"<{count}I", msg, 9)
                setup = pickle.loads(memoryview(msg)[9 + 4 * count:])
                state = setup.init_state(worker_id, cohorts)
            elif tag == END_FRAME:
                setup = state = None
            else:
                raise RuntimeError(f"unknown frame tag {tag!r}")
    except EOFError:  # the master closed the pipe: stop
        pass
    except BaseException:
        try:
            conn.send_bytes(ERROR_FRAME + traceback.format_exc().encode())
        except Exception:
            pass
    finally:
        conn.close()


@functools.cache
def _pool_context():
    """The start method of the process's pool: one fork server, started by
    the first session (about 0.3 s for a fresh interpreter importing numpy
    and nslp), that forks each worker with numpy, nslp and
    ``multiprocessing.popen_forkserver`` already loaded (a worker's pipe
    ends arrive pickled as that module's ``_DupFd``). A worker runs a
    script driver's top level once, as ``__mp_main__``, as it starts, so a
    driver needs a ``__main__`` guard; a worker lives for the process, so
    that cost is paid once per worker. At exit the workers stop on EOF,
    then the server is stopped and reaped."""
    import multiprocessing as mp
    from multiprocessing import forkserver, spawn, util

    # first: in a process still bootstrapping (a worker running a driver
    # without a __main__ guard) this raises before any process starts
    spawn._check_not_importing_main()
    ctx = mp.get_context("forkserver")
    ctx.set_forkserver_preload(["numpy", "nslp", "multiprocessing.popen_forkserver"])
    # priority >= 0 runs before multiprocessing terminates the daemonic
    # children left alive, < 0 after it has joined them
    util.Finalize(None, _discard_pool, exitpriority=0)
    util.Finalize(None, forkserver._forkserver._stop, exitpriority=-1)
    return ctx


_SERVER_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH")


@contextlib.contextmanager
def _server_environ():
    """The fork server's environment, set in this process only while the
    pool grows, since ``ensure_running()`` and each ``Process.start()``
    start a server that is not running; the caller's values come back
    afterwards. Workers inherit the server's environment, not the master's:
    their math runs on one BLAS thread (deterministic reductions, no
    oversubscription underneath the process-level parallelism), and the
    server, which does not take the master's sys.path, finds this nslp
    unless it sits in a site directory a fresh interpreter searches
    anyway."""
    saved = {var: os.environ.get(var) for var in _SERVER_VARS}
    for var in _SERVER_VARS[:3]:
        os.environ.setdefault(var, "1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.path.basename(root) not in ("site-packages", "dist-packages"):
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [root, saved["PYTHONPATH"]]))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


class _Pool:
    """Worker processes forked by the fork server, one duplex pipe each,
    numbered in start order. Every start or pipe error on the master side
    surfaces as ``BsfWorkerError``. ``latency`` maps a ping's round count
    to the ``L`` (ns) it measured on worker 0: ``L`` is a constant of the
    link, so it lives as long as the pool, a grown pool keeps it (worker 0
    stays) and a replaced pool measures its own."""

    def __init__(self):
        self.conns = []
        self.procs = []
        self.latency = {}

    def begin(self, partition, setup) -> None:
        """Start the workers the session lacks, then send worker ``w`` its
        SETUP frame: its id, its cohorts and the setup, pickled once. The
        setup goes out once all have started, so they boot side by side and
        one that dies at bootstrap breaks its pipe instead of blocking the
        master."""
        if len(self.procs) < len(partition):
            from multiprocessing import forkserver

            ctx = _pool_context()
            with _server_environ():
                try:
                    forkserver.ensure_running()
                except OSError as exc:
                    raise BsfWorkerError(f"fork server did not start: {exc!r}") from exc
                for w in range(len(self.procs), len(partition)):
                    try:
                        parent, child = ctx.Pipe(duplex=True)
                        self.conns.append(parent)
                        with child:  # the worker's end, sent to the server by start()
                            proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
                            proc.start()
                    except (EOFError, OSError) as exc:
                        raise BsfWorkerError(f"worker {w} did not start: {exc!r}") from exc
                    self.procs.append(proc)
        blob = pickle.dumps(setup, protocol=pickle.HIGHEST_PROTOCOL)
        for w, part in enumerate(partition):
            self.send(w, SETUP_FRAME + struct.pack(f"<II{len(part)}I", w, len(part), *part) + blob)

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
        """Median round trip of a one-byte ping echoed by worker 0, halved."""
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter_ns()
            self.send(0, PING_FRAME)
            if self.recv(0) != PING_FRAME:
                raise BsfWorkerError("unexpected reply to ping")
            samples.append(time.perf_counter_ns() - t0)
        return statistics.median(samples) / 2.0

    def shutdown(self) -> None:
        """Close every pipe (a worker's stop), join each, terminate stragglers."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


# the process's pool, kept between sessions, and the lock a session holds
_live_pool: _Pool | None = None
_session_lock = threading.Lock()


def _discard_pool() -> None:
    """Stop the process's pool, if there is one; the next session starts a
    new one."""
    global _live_pool
    pool, _live_pool = _live_pool, None
    if pool is not None:
        pool.shutdown()


@contextlib.contextmanager
def _session(partition, setup):
    """The process's pool for one session of ``len(partition)`` workers
    (``_Pool.begin``), which are sent an END frame when the session ends; a
    session of fewer workers than the pool has uses the first ones. A pool
    with a worker that died or wrote while idle is replaced first, and any
    exception in the session discards the pool, so the next session starts
    clean. A session that finds the pool busy raises at once, since two
    threads must never share its pipes."""
    global _live_pool
    if not _session_lock.acquire(blocking=False):
        raise RuntimeError("the worker pool is already running a session")
    try:
        if _live_pool is not None and any(conn.poll() for conn in _live_pool.conns):
            _discard_pool()
        if _live_pool is None:
            _live_pool = _Pool()
        pool = _live_pool
        pool.begin(partition, setup)
        yield pool
        for w in range(len(partition)):
            pool.send(w, END_FRAME)
    except BaseException:
        _discard_pool()
        raise
    finally:
        _session_lock.release()


def _median_p90(samples: list) -> tuple[float, float]:
    """The median and the 90th percentile, interpolated as numpy's default
    does; read with the standard library, since numpy's percentile imports
    ``numpy.ma`` (0.9 MB more resident memory in the master)."""
    if len(samples) < 2:  # statistics.quantiles wants two before Python 3.13
        return float(samples[0]), float(samples[0])
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    return float(statistics.median(samples)), float(p90)


def _run_pool(workload, setup, partition, latency_rounds: int):
    """Pipe exchange on the process's pool; the metrics are measured on the
    master. ``L`` is the median of ``latency_rounds`` one-byte round trips
    to worker 0, halved, measured after the SETUP frames by the first
    session of a pool that asks for that round count; the pool's other
    sessions report the ``L`` it keeps."""
    from multiprocessing.connection import wait

    p_workers = len(partition)
    with _session(partition, setup) as pool:
        if latency_rounds not in pool.latency:
            pool.latency[latency_rounds] = pool.ping_latency_ns(latency_rounds)
        latency = pool.latency[latency_rounds]
        send_ns, recv_ns, delivery_ns, return_ns = [], [], [], []
        tv_by_worker = [[] for _ in range(p_workers)]

        def exchange(frame: bytes) -> list[WorkerResult]:
            msg = ORDER_FRAME + frame
            sent = []
            for w in range(p_workers):
                t0 = time.perf_counter_ns()
                pool.send(w, msg)
                sent.append(t0)
                send_ns.append(time.perf_counter_ns() - t0)
            results = [None] * p_workers
            pending = dict(zip(pool.conns, range(p_workers)))
            while pending:
                for conn in wait(list(pending)):
                    w = pending.pop(conn)
                    t0 = time.perf_counter_ns()
                    reply = pool.recv(w)
                    t1 = time.perf_counter_ns()
                    recv_ns.append(t1 - t0)
                    if reply[:1] != RESULT_FRAME:
                        raise BsfWorkerError(f"unexpected frame {reply[:1]!r} from worker {w}")
                    t_v, arrived, departed = struct.unpack_from("<QQQ", reply, 1)
                    tv_by_worker[w].append(t_v)
                    delivery_ns.append(arrived - sent[w])
                    return_ns.append(t1 - departed)
                    results[w] = WorkerResult(w, pickle.loads(reply[25:]))
            return results

        eval_ns, iter_ns = _run(workload, exchange)
        worker_means = [statistics.fmean(v) for v in tv_by_worker]
        t_v = statistics.fmean(worker_means)
        delivery, back = _median_p90(delivery_ns), _median_p90(return_ns)
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
            delivery_p50_ns=delivery[0],
            delivery_p90_ns=delivery[1],
            return_p50_ns=back[0],
            return_p90_ns=back[1],
        )
        return workload.finalize(), metrics


BACKENDS = ("sequential-sim", "worker-pool")


@dataclass(frozen=True)
class BsfExecutor:
    """A configured backend choice, passed to the solvers that need one.
    ``sim_latency_ns`` is the simulator's ``L``; the pool measures its own
    over ``latency_rounds`` ping round trips, once per pool and round count,
    so the sessions of one pool report one ``L``."""

    backend: str = "sequential-sim"
    p_workers: int = 1
    sim_latency_ns: float = DEFAULT_LATENCY_NS
    latency_rounds: int = 64

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        for name in ("p_workers", "latency_rounds"):
            _check_count(name, getattr(self, name))
        if not 0.0 <= self.sim_latency_ns < math.inf:
            raise ValueError("sim_latency_ns must be finite and nonnegative, "
                             f"got {self.sim_latency_ns!r}")

    def run(self, workload):
        """Run a workload through the farm; returns (final state, RunMetrics).

        Both backends produce identical workload outputs; only the metrics
        differ (synthetic for the simulator, measured for the pool).
        """
        partition = block_partition(workload.cohort_count, self.p_workers)
        setup = workload.init(self.p_workers, partition)
        if self.backend == "sequential-sim":
            return _run_sim(workload, setup, partition, self.sim_latency_ns)
        return _run_pool(workload, setup, partition, self.latency_rounds)

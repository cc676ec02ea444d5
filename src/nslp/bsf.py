"""Bulk-synchronous farm skeleton: one master, P workers, per-iteration
macro-steps (send orders, process, receive results, evaluate) separated by
a full barrier.

One master loop drives both backends, which differ only in how an order
frame reaches the workers and their results come back, and must produce
identical outputs: ``sequential-sim`` runs everything in-process with a
deterministic synthetic clock (the latency ``sim_latency_ns`` plus fixed
charges), ``worker-pool`` runs workers in processes forked from a fork
server that has numpy, nslp and ``multiprocessing.popen_forkserver`` (the
module that unpickles a worker's pipe ends) preloaded, and the top level
of a driver script that imports nothing else already run (so it needs a
POSIX start method), connected by pipes, and reports measured timings.
``BsfExecutor(backend, p_workers).run(workload)`` is the farm's only entry
point.

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
import json
import math
import os
import pickle
import statistics
import struct
import sys
import time
import traceback
import types
from dataclasses import dataclass

import numpy as np

from .lp import EMPTY_DELTA, DenseLP, SparseDelta, _check_count, _readonly, delta_between

_PAIR = np.dtype([("i", "<u4"), ("v", "<f8")])
_U32, _U64, _F64 = np.dtype("<u4"), np.dtype("<u8"), np.dtype("<f8")

ORDER_FRAME = b"O"
PING_FRAME = b"P"
RESULT_FRAME = b"R"
ERROR_FRAME = b"E"


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
# t_v (u64 ns) and pickled bests, per cohort the winning marker's offset and
# value, which the master turns back into a point on its own cross. The pipe
# names the worker, which lives until the master closes that pipe.


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
    ``latency_ns`` given and the fixed ``_SIM_*`` costs."""
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
                payload = pickle.dumps(tuple(bests), protocol=pickle.HIGHEST_PROTOCOL)
                conn.send_bytes(RESULT_FRAME + struct.pack("<Q", t_v) + payload)
            elif tag == PING_FRAME:
                conn.send_bytes(PING_FRAME)
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


def _server_may_run_main(namespace: dict) -> bool:
    """Whether the fork server may run the driver's top level: when every
    module bound in its ``namespace`` (each module by its name, each
    function or class by its ``__module__``, ``__main__`` for the driver's
    own) is standard-library, numpy, nslp or the driver itself. Other
    modules may start threads or fail with more than the ``ImportError`` a
    fork server forgives, which would fork workers from a threaded server
    or kill it."""
    known = sys.stdlib_module_names | {"numpy", "nslp", "__main__"}
    for value in namespace.values():
        if isinstance(value, types.ModuleType):
            name = value.__name__
        elif isinstance(value, (type, types.FunctionType, types.BuiltinFunctionType)):
            name = value.__module__
        else:
            continue
        if isinstance(name, str) and name.partition(".")[0] not in known:
            return False
    return True


# the master's hand-off to ``nslp._server_main``: set only while a pool may
# start the fork server, and popped by the server as it reads it
_SERVER_MAIN_VAR = "_NSLP_FORKSERVER_MAIN"


@functools.cache
def _hand_off() -> str | None:
    """The hand-off, worked out once per process: the driver script's path
    and the master's ``sys.argv`` and ``sys.path`` when the server may run
    its top level (``_server_may_run_main``; never under ``python -m``),
    otherwise None."""
    from multiprocessing import spawn

    data = spawn.get_preparation_data("forkserver")
    main_path = data.get("init_main_from_path")
    if main_path is None or not _server_may_run_main(vars(sys.modules["__main__"])):
        return None
    return json.dumps([main_path, data["sys_argv"], data["sys_path"]], default=os.fspath)


@functools.cache
def _pool_context():
    """The start method of every pool in this process: one fork server,
    started by the first pool (which pays the server's start, about 0.3 s
    for a fresh interpreter importing numpy and nslp), that forks each
    worker with numpy, nslp and ``multiprocessing.popen_forkserver`` already
    loaded (a worker's pipe ends arrive pickled as that module's ``_DupFd``,
    so without it every worker would import it before its first order).
    With a hand-off (``_hand_off``) each server, a restarted one too,
    runs the driver's top level once, as ``__mp_main__``, and the workers it
    forks find it done. Any other driver, or one whose top level raises in
    the server (a driver without a ``__main__`` guard starts a pool there,
    which multiprocessing refuses), is run again by each worker as it
    starts. Either way the top level runs outside the master, so a driver
    needs a ``__main__`` guard. The server is stopped and reaped when this
    process exits. Each pool measures ``L`` once per start, before the first
    order: the median of ``BsfExecutor.latency_rounds`` (64 by default)
    one-byte round trips to worker 0, halved."""
    import multiprocessing as mp
    from multiprocessing import forkserver, util

    # first: in a process still bootstrapping (a worker or the server running
    # an unguarded driver) this raises before any process starts
    _hand_off()
    ctx = mp.get_context("forkserver")
    ctx.set_forkserver_preload(
        ["numpy", "nslp", "multiprocessing.popen_forkserver", "nslp._server_main"])
    # priority < 0 runs after multiprocessing has joined the live children
    util.Finalize(None, forkserver._forkserver._stop, exitpriority=-1)
    return ctx


_SERVER_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH")


@contextlib.contextmanager
def _server_environ():
    """The fork server's environment, hand-off included, set in this process
    only while a pool starts, since ``ensure_running()`` and each
    ``Process.start()`` start a server that is not running. The caller's
    values come back afterwards, except the hand-off, which is removed
    whatever the caller had set. Workers inherit the server's environment,
    not the master's: their math runs on one BLAS thread (deterministic
    reductions, no oversubscription underneath the process-level
    parallelism), and the server, which does not take the master's
    sys.path, finds this nslp unless it sits in a site directory a fresh
    interpreter searches anyway."""
    saved = {var: os.environ.get(var) for var in _SERVER_VARS}
    for var in _SERVER_VARS[:3]:
        os.environ.setdefault(var, "1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.path.basename(root) not in ("site-packages", "dist-packages"):
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [root, saved["PYTHONPATH"]]))
    os.environ.pop(_SERVER_MAIN_VAR, None)
    if (handoff := _hand_off()) is not None:
        os.environ[_SERVER_MAIN_VAR] = handoff
    try:
        yield
    finally:
        os.environ.pop(_SERVER_MAIN_VAR, None)
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


class _Pool:
    """Worker processes forked by the fork server, one duplex pipe each.
    Every start or pipe error on the master side surfaces as
    ``BsfWorkerError``."""

    def __init__(self, partition, setup):
        from multiprocessing import forkserver

        ctx = _pool_context()
        self.conns = []
        self.procs = []
        try:
            with _server_environ():
                try:
                    forkserver.ensure_running()
                except OSError as exc:
                    raise BsfWorkerError(f"fork server did not start: {exc!r}") from exc
                for w, part in enumerate(partition):
                    try:
                        parent, child = ctx.Pipe(duplex=True)
                        self.conns.append(parent)
                        with child:  # the worker's end, sent to the server by start()
                            proc = ctx.Process(target=_worker_main,
                                               args=(child, w, tuple(part)), daemon=True)
                            proc.start()
                    except (EOFError, OSError) as exc:
                        raise BsfWorkerError(f"worker {w} did not start: {exc!r}") from exc
                    self.procs.append(proc)
            # the setup goes out as each worker's first frame once all have
            # started: start() stays cheap, the workers boot side by side, and
            # a child that dies at bootstrap breaks its pipe instead of
            # blocking the master
            blob = pickle.dumps(setup, protocol=pickle.HIGHEST_PROTOCOL)
            for w in range(len(self.conns)):
                self.send(w, blob)
        except BaseException:
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


def _run_pool(workload, setup, partition, latency_rounds: int):
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
                    results[w] = WorkerResult(w, pickle.loads(reply[9:]))
            return results

        eval_ns, iter_ns = _run(workload, exchange)
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
    """A configured backend choice, passed to the solvers that need one.
    ``sim_latency_ns`` is the simulator's ``L``; the pool measures its own
    over ``latency_rounds`` ping round trips."""

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

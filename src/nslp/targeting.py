"""The tracking loop: per-cohort feasibility filtering and argmax on the
cross, master-side aggregation and conditional recentering, bounded to a
fixed iteration budget and run through the farm skeleton."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bsf import Order, RunMetrics, WorkerResult, make_order
from .cross import Cross, cohort_markers, point_of, recenter
from .lp import (DenseLP, NonStationaryLP, advance, apply_delta, max_violation,
                 objective_value, snapshot)
from .quest import FejerConfig, pseudo_project


@dataclass(frozen=True)
class CohortBest:
    """The feasible argmax point of one cohort; empty when the whole cohort
    lies outside the polytope."""

    cohort: int
    point: np.ndarray | None = None
    value: float | None = None

    def __post_init__(self):
        if (self.point is None) != (self.value is None):
            raise ValueError("point and value must be present together")
        if self.point is not None:
            object.__setattr__(self, "point", np.asarray(self.point, dtype=np.float64))


@dataclass(frozen=True)
class TargetingConfig:
    points_per_cohort: int = 8      # K, even
    spacing: float = 1.0            # s
    stall_limit: int = 10
    quest: FejerConfig = field(default_factory=FejerConfig)
    oracle_gap: bool = False

    def __post_init__(self):
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")


@dataclass(frozen=True)
class TargetingState:
    cross: Cross
    clock: int
    last_q_size: int = 0
    moved: bool = False
    stalls: int = 0


# Screen verdicts for one cross point.
_INFEASIBLE, _FEASIBLE, _UNSURE = 0, 1, 2


def _screen(lp: DenseLP, cross: Cross, cohorts: list[int], steps: np.ndarray) -> np.ndarray:
    """Feasibility verdicts for the points ``center + steps[k] * e_chi`` of
    the given cohorts, shape (cohorts, steps), from one product
    ``r0 = A @ center - b`` for all of them.

    A point on axis ``j`` has residual ``r0 + t * A[:, j]``, with ``t`` its
    move. Rows with ``A[i, j] == 0`` get an exact zero term for column ``j``
    in ``A @ p``, so they keep ``r0[i]`` (up to the sign of zero) and decide
    on its sign. Every other row decides only when its rank-1 estimate lies
    outside the guard ``2(n+2)eps * (|A_i|@|center| + |b_i| + |a t|)``,
    twice the first-order bound on the rounding error of the two dot
    products and the update. A point with no row over the guard and some
    row inside it is _UNSURE; so is every point when ``r0`` or a coordinate
    is not finite.
    """
    A, center = lp.A, cross.center
    cols = np.asarray(cohorts, dtype=np.intp)
    r0 = A @ center - lp.b
    c = center[cols, None]
    coords = c + steps        # the coordinate point_of writes, bit for bit
    if not (np.isfinite(r0).all() and np.isfinite(coords).all()):
        return np.full(coords.shape, _UNSURE, dtype=np.int8)
    t = coords - c
    # nonnegativity: the point copies the center everywhere but on its axis
    negative = center < 0.0
    ok = ((np.count_nonzero(negative) - negative[cols]) == 0)[:, None] & (coords >= 0.0)
    ri, ci = np.nonzero((A != 0.0)[:, cols])
    # zero rows: no row over b at the center may be zero in the column
    positive = r0 > 0.0
    zero_over = np.count_nonzero(positive) - np.bincount(ci[positive[ri]], minlength=len(cols))
    ok &= (zero_over == 0)[:, None]
    a = A[ri, cols[ci]]
    r0_nz = r0[ri]
    new_row = np.diff(ri, prepend=-1) != 0  # ri comes sorted from np.nonzero
    rows = ri[new_row]
    row_of = np.cumsum(new_row) - 1
    mag = A[rows]
    np.abs(mag, out=mag)
    scale = (mag @ np.abs(center) + np.abs(lp.b[rows]))[row_of]
    gamma = 2.0 * (lp.n + 2) * np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).tiny  # absorbs underflow in the products
    over = np.zeros(coords.shape, dtype=bool)
    unsure = np.zeros(coords.shape, dtype=bool)
    for k in range(coords.shape[1]):
        at = a * t[ci, k]
        est = r0_nz + at
        guard = gamma * (scale + np.abs(at)) + tiny
        over[:, k] = np.bincount(ci[est > guard], minlength=len(cols)) > 0
        unsure[:, k] = np.bincount(ci[~(np.abs(est) > guard)], minlength=len(cols)) > 0
    ok &= ~over
    return np.where(ok, np.where(unsure, _UNSURE, _FEASIBLE), _INFEASIBLE).astype(np.int8)


def _value_candidates(lp: DenseLP, cross: Cross, cohorts: list[int], steps: np.ndarray,
                      verdicts: np.ndarray) -> np.ndarray:
    """Which points of the (cohorts, steps) grid may hold their cohort's
    best value, from one ``c @ center`` for all of them.

    A point on axis ``j`` with move ``t`` has the rank-1 value estimate
    ``est = c @ center + c_j * t``. It and the exact ``objective_value``
    each lie within ``(n+2)(eps/2) * (|c|@|center| + |c_j t|)`` of the true
    value, so the guard ``2(n+2)eps * (|c|@|center| + |c_j t|) + tiny`` is
    twice their distance and also covers rounding in the comparisons.
    Each cohort's floor is the largest ``est - guard`` among its _FEASIBLE
    points, which no exact best falls below; a point whose ``est + guard``
    is below the floor is strictly worse than that best and can neither
    win nor tie. _INFEASIBLE points are never candidates. A value that is
    not finite, or a bound within a factor two of overflow, makes every
    other point a candidate.
    """
    center = cross.center
    cols = np.asarray(cohorts, dtype=np.intp)
    c = center[cols, None]
    ct = lp.c[cols, None] * ((c + steps) - c)
    est = lp.c @ center + ct
    bound = np.abs(lp.c) @ np.abs(center) + np.abs(ct)
    maybe = verdicts != _INFEASIBLE
    f64 = np.finfo(np.float64)
    # below half the largest float, no partial sum of the exact product overflows
    if not (np.isfinite(est).all() and (bound < f64.max / 2.0).all()):
        return maybe
    guard = 2.0 * (lp.n + 2) * f64.eps * bound + f64.tiny
    floor = np.where(verdicts == _FEASIBLE, est - guard, -np.inf).max(axis=1, keepdims=True)
    return maybe & (est + guard >= floor)


def process_cohorts(lp: DenseLP, cross: Cross, cohorts) -> list[CohortBest]:
    """Steps 2-4 restricted to the given cohorts: reconstruct each cohort's
    points, drop the infeasible ones, and keep the feasible point with the
    largest objective value.

    Feasibility gives the same verdict as ``max_violation(lp, p) == 0.0``
    on every point, without a full ``A @ p`` each. One ``A @ center - b``
    per call screens all points through their rank-1 residuals (see
    ``_screen``). Rows with a zero in the point's column decide on the
    center's residual; that relies on BLAS summing a row in an order that
    does not depend on the vector's values. Other rows decide outside a
    rounding guard of ``2(n+2)eps * (|A|@|center| + |b| + |a t|)``; a point
    with a row inside the guard and none over it falls back to the exact
    ``max_violation``. Nonnegativity is checked exactly, on the coordinate
    ``point_of`` writes.

    Values are screened the same way (see ``_value_candidates``): only the
    points whose rank-1 value lies within a rounding guard of their
    cohort's best get the exact ``max_violation`` fallback and an exact
    ``objective_value`` on the built point; every point is still built.

    Ties break deterministically: smallest |offset| first, negative before
    positive, so results are independent of how cohorts are partitioned
    across workers.
    """
    if lp.n != cross.dimension:
        raise ValueError(f"problem dimension {lp.n} != cross dimension {cross.dimension}")
    chis = sorted(int(c) for c in cohorts)
    cohort_ms = [cohort_markers(cross, chi) for chi in chis]
    if not chis:
        return []
    offsets = [m.offset for m in cohort_ms[0]]
    steps = np.array(offsets) * cross.spacing
    verdicts = _screen(lp, cross, chis, steps)
    candidates = _value_candidates(lp, cross, chis, steps, verdicts).tolist()
    order = sorted(range(len(offsets)), key=lambda k: (abs(offsets[k]), offsets[k] > 0))
    out = []
    for chi, ms, verdict, maybe in zip(chis, cohort_ms, verdicts.tolist(), candidates):
        best_point = None
        best_value = -math.inf
        for k in order:
            p = point_of(cross, ms[k])
            if not maybe[k] or (verdict[k] == _UNSURE and max_violation(lp, p) != 0.0):
                continue
            v = objective_value(lp, p)
            if v > best_value:
                best_point, best_value = p, v
        if best_point is None:
            out.append(CohortBest(chi))
        else:
            out.append(CohortBest(chi, best_point, best_value))
    return out


def evaluate(lp: DenseLP, state: TargetingState, bests: list[CohortBest]) -> TargetingState:
    """Steps 5-7: hold the center when it is feasible and at least as good
    as every cohort best; otherwise move it to the centroid of the cohort
    bests. When every cohort came back empty the center holds and a stall
    counter is bumped. The clock advances by one either way.
    """
    seen = sorted(b.cohort for b in bests)
    if seen != list(range(lp.n)):
        raise ValueError("bests must cover every cohort exactly once")
    in_order = sorted(bests, key=lambda b: b.cohort)
    q_points = [b.point for b in in_order if b.point is not None]
    clock = state.clock + 1
    if not q_points:
        return replace(state, clock=clock, last_q_size=0, moved=False,
                       stalls=state.stalls + 1)
    q_max = max(b.value for b in in_order if b.value is not None)
    center = state.cross.center
    if max_violation(lp, center) == 0.0 and objective_value(lp, center) >= q_max:
        return replace(state, clock=clock, last_q_size=len(q_points), moved=False, stalls=0)
    centroid = np.mean(np.vstack(q_points), axis=0)
    return replace(state, cross=recenter(state.cross, centroid), clock=clock,
                   last_q_size=len(q_points), moved=True, stalls=0)


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    clock: int
    center: np.ndarray
    objective: float
    residual: float
    moved: bool
    oracle_gap: float = math.nan
    q_size: int = 0  # cohorts that returned a feasible candidate


@dataclass
class TrackingTrace:
    rows: list[TraceRow] = field(default_factory=list)
    metrics: RunMetrics | None = None
    requests: int = 0  # how many times the feasibility recovery re-ran

    def csv_text(self) -> str:
        if not self.rows:
            return "iter,clock,objective,residual,moved,oracle_gap\n"
        n = self.rows[0].center.shape[0]
        coords = ",".join(f"center_{i}" for i in range(n))
        lines = [f"iter,clock,{coords},objective,residual,moved,oracle_gap"]
        for r in self.rows:
            cs = ",".join(repr(v) for v in r.center.tolist())
            lines.append(f"{r.iteration},{r.clock},{cs},{r.objective!r},"
                         f"{r.residual!r},{int(r.moved)},{r.oracle_gap!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


@dataclass(frozen=True)
class _WorkerState:
    lp: DenseLP
    cohorts: tuple


@dataclass(frozen=True)
class TargetingWorkerSetup:
    """Worker-side half of the workload; picklable, pure in (state, order)."""

    lp0: DenseLP
    spacing: float
    points_per_cohort: int

    def init_state(self, worker_id: int, cohorts) -> _WorkerState:
        return _WorkerState(self.lp0, tuple(int(c) for c in cohorts))

    def process_order(self, state: _WorkerState, order: Order):
        lp = apply_delta(state.lp, order.delta)
        cross = Cross(order.theta, self.spacing, self.points_per_cohort)
        bests = process_cohorts(lp, cross, state.cohorts)
        return _WorkerState(lp, state.cohorts), tuple(bests)


class TargetingWorkload:
    """Master-side state machine driving one tracking session."""

    def __init__(self, problem: NonStationaryLP, z, cfg: TargetingConfig, iterations: int):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (problem.base.n,):
            raise ValueError(f"start point has length {z.shape}, expected {problem.base.n}")
        self.problem = problem
        self.cfg = cfg
        self.iterations = int(iterations)
        self.lp = snapshot(problem, problem.clock)
        self.state = TargetingState(
            cross=Cross(z, cfg.spacing, cfg.points_per_cohort), clock=problem.clock)
        self._worker_lp = None
        self._partition: list[list[int]] | None = None
        self.rows: list[TraceRow] = []
        self.done = 0
        self.requests = 0
        self._opt_cache: dict[int, float] = {}

    @property
    def cohort_count(self) -> int:
        return self.lp.n

    def init(self, p_workers: int, partition) -> TargetingWorkerSetup:
        self._worker_lp = self.lp
        self._partition = [sorted(int(c) for c in part) for part in partition]
        return TargetingWorkerSetup(self.lp, self.cfg.spacing, self.cfg.points_per_cohort)

    def make_order(self) -> Order:
        order = make_order(self._worker_lp, self.lp, self.state.cross.center,
                           self.state.clock)
        self._worker_lp = self.lp
        return order

    def merge_results(self, results: list[WorkerResult]) -> list[CohortBest]:
        for r in results:
            if sorted(b.cohort for b in r.bests) != self._partition[r.worker_id]:
                raise ValueError(
                    f"worker {r.worker_id} answered outside its cohort assignment")
        bests = [b for r in sorted(results, key=lambda r: r.worker_id) for b in r.bests]
        bests.sort(key=lambda b: b.cohort)
        return bests

    def evaluate(self, bests: list[CohortBest]) -> None:
        lp = self.lp
        prev_clock = self.state.clock
        next_lp = advance(self.problem, lp, prev_clock)
        state = evaluate(lp, self.state, bests)
        if state.stalls >= self.cfg.stall_limit:
            # The whole cross has been outside the polytope for a while:
            # re-acquire it from the current center. The recovery only needs
            # the cross to straddle the region again, which is a spacing-scale
            # goal; chasing the configured epsilon while the data keeps
            # drifting would burn unbounded time inside one iteration.
            recovery = replace(self.cfg.quest,
                               tolerance=max(self.cfg.quest.tolerance,
                                             self.cfg.spacing / 4.0))
            res = pseudo_project(self.problem, state.cross.center, recovery,
                                 clock=state.clock, lp=next_lp)
            state = replace(state, cross=recenter(state.cross, res.z), stalls=0)
            self.requests += 1
        center = state.cross.center
        gap = math.nan
        if self.cfg.oracle_gap:
            gap = self._optimum(prev_clock) - objective_value(lp, center)
        self.rows.append(TraceRow(self.done, prev_clock, center,
                                  objective_value(lp, center),
                                  max_violation(lp, center), state.moved, gap,
                                  state.last_q_size))
        self.state = state
        self.done += 1
        self.lp = next_lp

    def exit_check(self) -> bool:
        return self.done >= self.iterations

    def finalize(self) -> TrackingTrace:
        return TrackingTrace(rows=self.rows, requests=self.requests)

    def _optimum(self, clock: int) -> float:
        """The snapshot's exact optimum; NaN where it has none (infeasible or
        unbounded), so that row's gap reads NaN as when the gap is off."""
        if clock not in self._opt_cache:
            from .oracle import solve_simplex

            res = solve_simplex(self.lp)
            self._opt_cache[clock] = res.value if res.status == "optimal" else math.nan
        return self._opt_cache[clock]


def run_targeting(problem: NonStationaryLP, z, cfg: TargetingConfig,
                  iterations: int, executor) -> TrackingTrace:
    """Run ``iterations`` tracking iterations over the drifting problem.

    The executor decides worker count and backend; the resulting trace is
    identical for every worker count and for both backends (only the
    attached metrics differ).
    """
    workload = TargetingWorkload(problem, z, cfg, iterations)
    trace, metrics = executor.run(workload)
    trace.metrics = metrics
    return trace

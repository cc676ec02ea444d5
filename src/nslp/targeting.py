"""The tracking loop: per-cohort feasibility filtering and argmax on the
cross, master-side aggregation and conditional recentering, bounded to a
fixed iteration budget and run through the farm skeleton."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bsf import Order, RunMetrics, WorkerResult, make_order
from .cross import Cross, _cohort_markers, _offsets, recenter
from .cross import _point as point_of  # in-range builds, counted under this name
from .lp import (DenseLP, NonStationaryLP, advance, apply_delta, max_violation,
                 objective_value, snapshot)
from .quest import FejerConfig, pseudo_project


@dataclass(frozen=True)
class CohortBest:
    """One cohort's feasible argmax: the signed marker offset of the point
    and its objective value, both empty when the whole cohort lies outside
    the polytope. The point is ``point_of(cross, Marker(cohort, offset))``
    on the cross the order was processed on."""

    cohort: int
    offset: int | None = None
    value: float | None = None

    def __post_init__(self):
        if (self.offset is None) != (self.value is None):
            raise ValueError("offset and value must be present together")


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
        # the cross checks K and the spacing; any center of dimension 2 will do
        Cross(np.zeros(2), self.spacing, self.points_per_cohort)


@dataclass(frozen=True)
class TargetingState:
    cross: Cross
    clock: int
    last_q_size: int = 0
    moved: bool = False
    stalls: int = 0


# Screen verdicts for one cross point.
_INFEASIBLE, _FEASIBLE, _UNSURE = 0, 1, 2


class _ScreenPlan:
    """What ``process_cohorts`` and ``_screen`` need that does not change
    between calls, kept for the last cohort list and the last ``A`` seen.
    A worker keeps one plan across orders.

    ``layout`` keeps what depends only on the cohort list, K, the spacing
    and the dimension: the sorted cohorts, range-checked when they are laid
    out, their marker lists, the offsets, the steps and the tie order. It
    lays them out again whenever any of the four differs from the last call.

    ``fit`` keeps what depends on the cohort columns and ``A``: the index of
    those columns' nonzeros, the rows they touch and ``|A[rows]|``. Handed
    the same ``A`` object and columns again, it does nothing. That is safe
    because ``DenseLP`` makes its arrays read-only, so the object still holds
    the values the plan read, and the plan's own reference keeps the object
    from being freed and its address reused. For any other ``A`` object it
    compares the zero mask and the columns with the kept ones and rebuilds
    the index when either differs, so a stale index is never used; then it
    refills ``|A[rows]|`` in place."""

    def __init__(self):
        self.key = self.A = self.index_cols = self.zero = None

    def layout(self, cross: Cross, cohorts) -> _ScreenPlan:
        key = (tuple(cohorts), cross.points_per_cohort, cross.spacing, cross.dimension)
        if key == self.key:
            return self
        chis = sorted(int(c) for c in key[0])
        if chis and not 0 <= chis[0] <= chis[-1] < cross.dimension:
            chi = chis[0] if chis[0] < 0 else chis[-1]
            raise ValueError(f"cohort {chi} out of range for dimension {cross.dimension}")
        k = cross.points_per_cohort
        self.chis, self.cols = chis, np.array(chis, dtype=np.intp)
        self.markers = [_cohort_markers(k, chi) for chi in chis]
        self.offsets = offsets = _offsets(k)
        self.steps = np.array(offsets) * cross.spacing
        self.tie_order = sorted(range(k), key=lambda i: (abs(offsets[i]), offsets[i] > 0))
        self.key = key
        return self

    def fit(self, A: np.ndarray, cols: np.ndarray) -> _ScreenPlan:
        same_cols = np.array_equal(cols, self.index_cols)
        if A is self.A and same_cols:
            return self
        zero = A == 0.0
        if not (same_cols and np.array_equal(zero, self.zero)):
            coh, ri = np.nonzero(~zero.T[cols])  # the nonzeros by cohort, then row
            counts = np.bincount(coh, minlength=len(cols))
            self.index_cols, self.zero, self.ri = cols.copy(), zero, ri
            self.pos = ri * A.shape[1] + cols[coh]  # flat A positions
            self.nonempty = counts > 0
            self.starts = (np.cumsum(counts) - counts)[self.nonempty]  # reduceat starts
            self.rows = np.flatnonzero(~zero[:, cols].all(axis=1))  # the rows they touch
            self.a, self.x = np.empty(len(ri)), np.empty((4, len(ri)))
            self.mag = np.empty((len(self.rows), A.shape[1]))  # |A[rows]|
        self.A = A
        # the plan's indices are in range: "clip" only skips take's buffered check
        np.abs(A.take(self.rows, axis=0, out=self.mag, mode="clip"), out=self.mag)
        return self


def _screen(lp: DenseLP, cross: Cross, cohorts: list[int], steps: np.ndarray,
            plan: _ScreenPlan | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Feasibility verdicts and value candidates for the points ``center +
    steps[k] * e_chi`` of the given cohorts, two arrays of shape (cohorts,
    steps), from one product ``r0 = A @ center - b``, one pass over the
    cohort columns' nonzeros and one ``c @ center``.

    A point on axis ``j`` has residual ``r0 + t * A[:, j]``, with ``t`` its
    move. Rows with ``A[i, j] == 0`` get an exact zero term for column ``j``
    in ``A @ p``, so they keep ``r0[i]`` (up to the sign of zero) and decide
    on its sign. A row with ``a = A[i, j] != 0`` decides outside the guard
    ``g_i + gamma|a t|``, ``g_i = gamma(|A_i|@|center| + |b_i|) + tiny`` and
    ``gamma = 2(n+2)eps``, twice the first-order bound on the rounding error.
    Sure, ``t(a + gamma|a| sgn t) < -(r0_i + g_i)``, and not over, ``t(a -
    gamma|a| sgn t) <= g_i - r0_i``, bound ``t`` above where ``a > 0`` and
    below where ``a < 0``: per side of ``t = 0`` a cohort has a sure and a
    wider not-over interval. Finite ends move in (sure) or out (not-over) by
    ``8eps|end| + tiny``, more than their quotients round, so a point inside
    the first is surely _FEASIBLE and one outside the second is surely
    _INFEASIBLE. Others are _UNSURE.

    A point's rank-1 value estimate ``est = c @ center + c_j t`` and its
    exact ``objective_value`` each lie within ``(n+2)(eps/2) * bound``,
    ``bound = |c|@|center| + |c_j t|``, of the true value, so the guard
    ``gamma * bound + tiny`` is twice their distance and also covers
    rounding in the comparisons. Each cohort's floor is the largest ``est -
    guard`` among its _FEASIBLE points, which no exact best falls below; a
    point whose ``est + guard`` is below the floor is strictly worse than
    that best and can neither win nor tie. Candidates are the points that
    are not _INFEASIBLE and not below the floor. A value that is not
    finite, or a bound within a factor two of overflow, makes every point
    that is not _INFEASIBLE a candidate. When ``r0`` or a coordinate is not
    finite, every point is _UNSURE and a candidate.

    The nonzero index and ``|A[rows]|`` come from ``plan`` fitted to this
    ``A`` object, or from one built for this call; the nonzero values are
    read from ``A`` on every call. A fitted plan matches its ``A`` object
    for as long as the plan holds it (see ``_ScreenPlan``), so the result
    does not depend on the plan's age. The returned arrays are new."""
    A, center = lp.A, cross.center
    cols = np.asarray(cohorts, dtype=np.intp)
    r0 = A @ center - lp.b
    c = center[cols, None]
    coords = c + steps        # the coordinate point_of writes, bit for bit
    if not (np.isfinite(r0).all() and np.isfinite(coords).all()):
        return (np.full(coords.shape, _UNSURE, dtype=np.int8),
                np.ones(coords.shape, dtype=bool))
    plan = (plan or _ScreenPlan()).fit(A, cols)
    t = coords - c
    # nonnegativity: the point copies the center everywhere but on its axis
    negative = center < 0.0
    ok = ((np.count_nonzero(negative) - negative[cols]) == 0)[:, None] & (coords >= 0.0)
    # zero rows: no row over b at the center may be zero in the column
    ok &= ~plan.zero[r0 > 0.0].any(axis=0)[cols, None]
    rows, mag, a, x = plan.rows, plan.mag, plan.a, plan.x
    f64 = np.finfo(np.float64)
    gamma = 2.0 * (lp.n + 2) * f64.eps
    g = np.zeros_like(r0)
    g[rows] = gamma * (mag @ np.abs(center) + np.abs(lp.b[rows])) + f64.tiny
    A.take(plan.pos, out=a, mode="clip")  # in range, as in ``fit``
    # per nonzero: the sure and not-over ends, upper ones and then minus lower
    # ones; x / a is -(x / |a|) exactly where a < 0
    with np.errstate(over="ignore"):
        np.stack([-(r0 + g), g - r0]).take(plan.ri, axis=1, out=x[:2], mode="clip")
        x[:2] /= a
        inf = np.copysign(np.inf, a, out=a)
        np.maximum(np.negative(x[:2], out=x[2:]), inf, out=x[2:])  # kept where a < 0
        np.maximum(x[:2], np.negative(inf, out=inf), out=x[:2])  # kept where a > 0
        ends = np.full((4, len(cols)), np.inf)
        ends[:, plan.nonempty] = np.minimum.reduceat(x, plan.starts, axis=1)
        ends += np.array([[-1.0], [1.0], [-1.0], [1.0]]) * np.where(  # sure ends shrink
            np.isfinite(ends), 8.0 * f64.eps * np.abs(ends) + f64.tiny, 0.0)
        # sure ends over 1 + gamma sgn(a) sgn(t), not-over ends over 1 - ...
        div = 1.0 + gamma * np.array([[1.0], [-1.0], [-1.0], [1.0]]) * np.sign(steps)
        e = ends[:, :, None] / div[:, None, :]
    ok &= (t <= e[1]) & (-t <= e[3])
    sure = (t < e[0]) & (-t < e[2])
    verdicts = np.where(ok, np.where(sure, _FEASIBLE, _UNSURE), _INFEASIBLE).astype(np.int8)
    ct = lp.c[cols, None] * t
    est = lp.c @ center + ct
    bound = np.abs(lp.c) @ np.abs(center) + np.abs(ct)
    # below half the largest float, no partial sum of the exact product overflows
    if not (np.isfinite(est).all() and (bound < f64.max / 2.0).all()):
        return verdicts, ok
    guard = gamma * bound + f64.tiny
    floor = np.where(ok & sure, est - guard, -np.inf).max(axis=1, keepdims=True)
    return verdicts, ok & (est + guard >= floor)


def process_cohorts(lp: DenseLP, cross: Cross, cohorts,
                    plan: _ScreenPlan | None = None) -> list[CohortBest]:
    """Steps 2-4 restricted to the given cohorts: reconstruct each cohort's
    points, drop the infeasible ones, and keep the marker offset and value
    of the feasible point with the largest objective value.

    ``_screen`` gives every point a feasibility verdict and a value
    candidate flag. Only candidates are checked further: an _UNSURE one
    falls back to the exact ``max_violation``, and each feasible one gets an
    exact ``objective_value`` on the built point. So feasibility is the
    verdict of ``max_violation(lp, p) == 0.0`` on every point; for rows
    with a zero in the point's column that relies on BLAS summing a row in
    an order that does not depend on the vector's values. Every point is
    still built, once, though only the candidates need it: the plan's layout
    has range-checked the cohorts, so the builds skip ``point_of``'s checks.

    A worker passes the screen plan it keeps across orders: it lays the
    cohorts out once per cohort list and reads ``A`` once per LP object (see
    ``_ScreenPlan``). Without one, a plan is built for this call.

    Ties break deterministically: smallest |offset| first, negative before
    positive, so results are independent of how cohorts are partitioned
    across workers.
    """
    if lp.n != cross.dimension:
        raise ValueError(f"problem dimension {lp.n} != cross dimension {cross.dimension}")
    plan = (plan or _ScreenPlan()).layout(cross, cohorts)
    if not plan.chis:
        return []
    offsets = plan.offsets
    screened = _screen(lp, cross, plan.cols, plan.steps, plan)
    verdicts, candidates = (a.tolist() for a in screened)
    out = []
    for chi, ms, verdict, maybe in zip(plan.chis, plan.markers, verdicts, candidates):
        best_offset, best_value = None, -math.inf
        for k in plan.tie_order:
            p = point_of(cross, ms[k])
            if not maybe[k] or (verdict[k] == _UNSURE and max_violation(lp, p) != 0.0):
                continue
            v = objective_value(lp, p)
            if v > best_value:
                best_offset, best_value = offsets[k], v
        out.append(CohortBest(chi) if best_offset is None
                   else CohortBest(chi, best_offset, best_value))
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
    q = sorted((b for b in bests if b.offset is not None), key=lambda b: b.cohort)
    clock = state.clock + 1
    if not q:
        return replace(state, clock=clock, last_q_size=0, moved=False,
                       stalls=state.stalls + 1)
    q_max = max(b.value for b in q)
    cross = state.cross
    if max_violation(lp, cross.center) == 0.0 and objective_value(lp, cross.center) >= q_max:
        return replace(state, clock=clock, last_q_size=len(q), moved=False, stalls=0)
    # the q winners, built as point_of builds them: center plus offset * spacing
    points = np.tile(cross.center, (len(q), 1))
    points[np.arange(len(q)), [b.cohort for b in q]] += (
        np.array([b.offset for b in q]) * cross.spacing)
    return replace(state, cross=recenter(cross, points.mean(axis=0)), clock=clock,
                   last_q_size=len(q), moved=True, stalls=0)


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
    plan: _ScreenPlan = field(default_factory=_ScreenPlan, compare=False)


@dataclass(frozen=True)
class TargetingWorkerSetup:
    """Worker-side half of the workload; picklable, pure in (state, order).
    The state's screen plan is a cache that every call checks against its
    cohorts, cross and LP. An empty delta keeps the LP object, so on a
    stationary problem the plan reads ``A`` only for the first order."""

    lp0: DenseLP
    spacing: float
    points_per_cohort: int

    def init_state(self, worker_id: int, cohorts) -> _WorkerState:
        return _WorkerState(self.lp0, tuple(int(c) for c in cohorts))

    def process_order(self, state: _WorkerState, order: Order):
        lp = apply_delta(state.lp, order.delta)
        cross = Cross(order.theta, self.spacing, self.points_per_cohort)
        bests = process_cohorts(lp, cross, state.cohorts, state.plan)
        return replace(state, lp=lp), tuple(bests)


class TargetingWorkload:
    """Master-side state machine driving one tracking session."""

    def __init__(self, problem: NonStationaryLP, z, cfg: TargetingConfig, iterations: int):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        z = np.array(z, dtype=np.float64)  # the cross makes its center read-only
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
        self.requests = 0

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
        """Every worker's bests in farm (worker) order; ``evaluate`` sorts them."""
        for r in results:
            if sorted(b.cohort for b in r.bests) != self._partition[r.worker_id]:
                raise ValueError(
                    f"worker {r.worker_id} answered outside its cohort assignment")
        return [b for r in results for b in r.bests]

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
            gap = self._optimum() - objective_value(lp, center)
        self.rows.append(TraceRow(len(self.rows), prev_clock, center,
                                  objective_value(lp, center),
                                  max_violation(lp, center), state.moved, gap,
                                  state.last_q_size))
        self.state = state
        self.lp = next_lp

    def exit_check(self) -> bool:
        return len(self.rows) >= self.iterations

    def finalize(self) -> TrackingTrace:
        return TrackingTrace(rows=self.rows, requests=self.requests)

    def _optimum(self) -> float:
        """The current snapshot's exact optimum; NaN where there is none
        (infeasible, unbounded or the solver failed), so that row's gap
        reads NaN as when the gap is off."""
        from .oracle import solve_simplex

        res = solve_simplex(self.lp)
        return res.value if res.status == "optimal" else math.nan


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

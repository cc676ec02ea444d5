"""Analytic cost model for the farm: scalability bound, speedup and
parallel efficiency, plus parameterized per-dimension cost scenarios for
the two canonical data-change regimes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .bsf import RunMetrics

DELTA_MODES = ("full", "one-row", "custom")
DEFAULT_LATENCY_NS = 10_000.0


@dataclass(frozen=True)
class CostParams:
    """Inputs to the cost formulas; measured (RunMetrics) or synthetic."""

    p_workers: int
    latency_ns: float
    t_s_ns: float
    t_r_ns: float
    t_p_ns: float
    t_w_ns: float

    def __post_init__(self):
        if self.p_workers < 1:
            raise ValueError("p_workers must be >= 1")
        for name in ("latency_ns", "t_s_ns", "t_r_ns", "t_p_ns", "t_w_ns"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


def scalability_bound(p: CostParams) -> float:
    """Worker count beyond which adding workers reduces speedup:
    sqrt(t_w / (2L + t_s))."""
    denom = 2.0 * p.latency_ns + p.t_s_ns
    if denom <= 0.0:
        raise ZeroDivisionError("2L + t_s must be positive")
    return math.sqrt(p.t_w_ns / denom)


def speedup(p: CostParams) -> float:
    """Predicted speedup over the one-worker configuration.

    The sums on both sides are associated identically so that the value is
    exactly 1.0 at P = 1 for any parameters.
    """
    P = float(p.p_workers)
    head = 2.0 * p.latency_ns + p.t_s_ns
    numerator = P * (((head + p.t_r_ns) + p.t_p_ns) + p.t_w_ns)
    denominator = (((P * P) * head + P * p.t_r_ns) + P * p.t_p_ns) + p.t_w_ns
    if denominator <= 0.0:
        raise ZeroDivisionError("cost denominator must be positive")
    return numerator / denominator


def efficiency(p: CostParams) -> float:
    """Approximate parallel efficiency: 1 / (1 + overhead / t_w)."""
    if p.t_w_ns <= 0.0:
        raise ZeroDivisionError("t_w must be positive")
    P = float(p.p_workers)
    overhead = (P * P) * (2.0 * p.latency_ns + p.t_s_ns) + P * (p.t_r_ns + p.t_p_ns)
    return 1.0 / (1.0 + overhead / p.t_w_ns)


@dataclass(frozen=True)
class ScenarioModel:
    """Cost scenario for dimension n: asymptotic complexity shapes made
    concrete with calibration constants (ns per unit of each shape)."""

    n: int
    delta_mode: str = "one-row"
    custom_delta: float | None = None
    c_s: float = 1.0
    c_w: float = 1.0
    c_r: float = 1.0
    c_p: float = 1.0
    latency_ns: float = DEFAULT_LATENCY_NS

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if self.delta_mode not in DELTA_MODES:
            raise ValueError(f"delta_mode must be one of {DELTA_MODES}")
        if self.delta_mode == "custom" and self.custom_delta is None:
            raise ValueError("custom delta_mode requires custom_delta")
        for name in ("c_s", "c_w", "c_r", "c_p"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 <= self.latency_ns < math.inf:
            raise ValueError("latency_ns must be finite and nonnegative")

    def delta(self) -> float:
        if self.delta_mode == "full":
            return 1.0
        if self.delta_mode == "one-row":
            return 1.0 / (2.0 * (self.n + 1))
        return float(self.custom_delta)


def delta_fraction(mode: str, n: int, custom: float | None = None) -> float:
    return ScenarioModel(n=n, delta_mode=mode, custom_delta=custom).delta()


class CostShapes(NamedTuple):
    """The per-iteration cost shapes at one dimension: units of each cost
    component, which a ``ScenarioModel`` turns into ns with its constants."""

    t_s: float
    t_w: float
    t_r: float
    t_p: float


def cost_shapes(n: int, delta: float) -> CostShapes:
    """t_s ~ delta(n)(n+1)^2 + (n+1), t_w ~ n^3 + n^2 + n, t_r ~ n, t_p ~ n^2.

    ``t_w`` keeps the paper's shape, a full ``A @ p`` for each of the n*K
    cross points. The tracker screens the cross through rank-1 residuals
    instead, so its measured worker cost grows like K*nnz(A) plus the n*K
    point copies, well below n^3 on sparse rows. A model calibrated at one n
    therefore predicts poorly far from it: calibrate at the n you predict for.
    """
    n = float(n)
    return CostShapes(t_s=delta * (n + 1.0) ** 2 + (n + 1.0), t_w=n ** 3 + n ** 2 + n,
                      t_r=n, t_p=n ** 2)


def scenario_params(model: ScenarioModel, p_workers: int) -> CostParams:
    """Instantiate the per-iteration cost shapes (``cost_shapes``) at the
    model's dimension."""
    shape = cost_shapes(model.n, model.delta())
    return CostParams(
        p_workers=p_workers,
        latency_ns=model.latency_ns,
        t_s_ns=model.c_s * shape.t_s,
        t_w_ns=model.c_w * shape.t_w,
        t_r_ns=model.c_r * shape.t_r,
        t_p_ns=model.c_p * shape.t_p,
    )


def calibrate(measurements: Iterable[tuple[int, RunMetrics]], delta_mode: str = "one-row",
              custom_delta: float | None = None, latency_ns: float | None = None) -> ScenarioModel:
    """Fit the calibration constants from measured metrics by per-component
    least squares through the origin. One measurement gives an exact fit at
    that dimension; several trade error across dimensions.
    """
    pts = list(measurements)
    if not pts:
        raise ValueError("need at least one measurement")
    shapes = [(cost_shapes(n, delta_fraction(delta_mode, n, custom_delta)), m) for n, m in pts]

    def fit(name: str) -> float:
        num = sum(getattr(shape, name) * getattr(m, name + "_ns") for shape, m in shapes)
        den = sum(getattr(shape, name) ** 2 for shape, _ in shapes)
        return max(num / den, 1e-30)

    c_s, c_w, c_r, c_p = (fit(name) for name in CostShapes._fields)
    if latency_ns is None:
        latency_ns = sum(m.latency_ns for _, m in pts) / len(pts)
    return ScenarioModel(n=pts[-1][0], delta_mode=delta_mode, custom_delta=custom_delta,
                         c_s=c_s, c_w=c_w, c_r=c_r, c_p=c_p, latency_ns=latency_ns)


class CurveRow(NamedTuple):
    p_workers: int
    speedup: float
    efficiency: float
    bound: float


CURVES_CSV_HEADER = "P,speedup_pred,efficiency_pred,bound"


def predict_curves(model: ScenarioModel, p_values: Iterable[int]) -> list[CurveRow]:
    """Speedup/efficiency/bound per worker count, for plotting and for the
    measured-versus-predicted comparison. The bound column is constant (it
    does not depend on P)."""
    rows = []
    for p in p_values:
        params = scenario_params(model, int(p))
        rows.append(CurveRow(int(p), speedup(params), efficiency(params),
                             scalability_bound(params)))
    if not rows:
        raise ValueError("need at least one worker count")
    return rows


def curves_to_csv(rows: Iterable[CurveRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(CURVES_CSV_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.p_workers},{r.speedup!r},{r.efficiency!r},{r.bound!r}\n")

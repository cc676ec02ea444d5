"""Feasibility recovery: pseudo-projection of a point onto the current
polytope via a simultaneous Fejer relaxation process."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lp import (DenseLP, NonStationaryLP, _check_count, _violation, advance, max_violation,
                 snapshot)


class MalformedProblemError(ValueError):
    """A violated constraint row has a zero normal, so it can never be met."""


@dataclass(frozen=True)
class FejerConfig:
    relaxation: float = 1.0
    tolerance: float = 1e-9
    max_iterations: int = 1_000_000
    refresh_every: int = 1000

    def __post_init__(self):
        if not 0.0 < self.relaxation < 2.0:
            raise ValueError(f"relaxation must lie in (0, 2), got {self.relaxation}")
        if not self.tolerance >= 0.0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")
        for name in ("max_iterations", "refresh_every"):
            _check_count(name, getattr(self, name))


class QuestResult(NamedTuple):
    z: np.ndarray
    iterations: int
    residual: float


def fejer_step(lp: DenseLP, x: np.ndarray, relaxation: float = 1.0) -> np.ndarray:
    """One simultaneous Fejer map application.

    Moves x by ``relaxation`` times the mean of the projections onto the
    violated half-spaces (constraint rows plus the nonnegativity bounds,
    treated as additional half-spaces). A feasible x is a fixed point.
    """
    if not 0.0 < relaxation < 2.0:
        raise ValueError(f"relaxation must lie in (0, 2), got {relaxation}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lp.n,):
        raise ValueError(f"point has length {x.shape}, expected {lp.n}")
    return _fejer_move(lp, x, lp.A @ x - lp.b, relaxation)


def _fejer_move(lp: DenseLP, x: np.ndarray, residuals: np.ndarray,
                relaxation: float) -> np.ndarray:
    """``fejer_step`` of x given its row residuals ``A @ x - b``."""
    viol_rows = residuals > 0.0
    viol_bounds = x < 0.0
    count = int(viol_rows.sum()) + int(viol_bounds.sum())
    if count == 0:
        return x
    correction = np.zeros_like(x)
    if viol_rows.any():
        rows = lp.A[viol_rows]
        norms2 = np.einsum("ij,ij->i", rows, rows)
        if np.any(norms2 == 0.0):
            raise MalformedProblemError("violated constraint row has zero norm")
        correction += rows.T @ (-residuals[viol_rows] / norms2)
    if viol_bounds.any():
        # half-space -x_j <= 0 has unit normal; its term is -x_j * e_j
        correction[viol_bounds] -= x[viol_bounds]
    return x + relaxation * (correction / count)


def pseudo_project(
    problem: NonStationaryLP,
    start: np.ndarray,
    cfg: FejerConfig = FejerConfig(),
    clock: int = 0,
    *,
    lp: DenseLP | None = None,
) -> QuestResult:
    """Iterate the Fejer map until the residual drops to ``cfg.tolerance``.

    Every ``cfg.refresh_every`` iterations the clock advances one unit and
    the problem snapshot is re-read, so drift during the recovery is part
    of the process; the map self-corrects toward the moving polytope.
    ``lp`` is the snapshot at ``clock`` when the caller already holds it;
    without it the snapshot is replayed from the base.
    Returns the last iterate with its residual if the budget runs out
    (non-convergence is reported, not raised), and stops at once with
    residual ``inf`` on an iterate with a non-finite coordinate.
    """
    if clock < 0:
        raise ValueError("clock must be nonnegative")
    x = np.array(start, dtype=np.float64)
    k = int(clock)
    if lp is None:
        lp = snapshot(problem, k)
    if x.shape != (lp.n,):
        raise ValueError(f"start has length {x.shape}, expected {lp.n}")
    for it in range(cfg.max_iterations):
        if it > 0 and it % cfg.refresh_every == 0:
            lp = advance(problem, lp, k)
            k += 1
        if not np.isfinite(x).all():
            return QuestResult(x, it, math.inf)
        residuals = lp.A @ x - lp.b  # shared by the check and the step
        residual = _violation(x, residuals)
        if residual <= cfg.tolerance:
            return QuestResult(x, it, residual)
        x = _fejer_move(lp, x, residuals, cfg.relaxation)
    return QuestResult(x, cfg.max_iterations, max_violation(lp, x))

"""Desk-scale ground truth: the exact LP optimum from HiGHS's dual simplex
and a brute-force Euclidean projection, used by tests and trace gap columns."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lp import DenseLP, max_violation


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "unbounded" | "infeasible" | "failed"
    x_opt: np.ndarray | None = None
    value: float | None = None
    iterations: int = 0

    def __post_init__(self):
        if (self.x_opt is None) != (self.value is None):
            raise ValueError("x_opt and value must be present together")
        if self.status == "optimal" and self.x_opt is None:
            raise ValueError("optimal result requires a certificate point")


def solve_simplex(lp: DenseLP) -> SimplexResult:
    """Solve max <c,x>, Ax <= b, x >= 0 with HiGHS's dual simplex, which
    returns a vertex, or where it has no verdict with the interior-point
    method and its crossover; status "failed" if neither has one.

    scipy is imported here, not at module level: every farm worker imports
    nslp, and scipy.optimize would add about half a second to its boot.
    """
    from scipy.optimize import linprog

    for method in ("highs-ds", "highs-ipm"):
        res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, None), method=method)
        status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "failed")
        if status != "failed":
            break
    if status != "optimal":
        return SimplexResult(status, iterations=res.nit)
    x = np.maximum(res.x, 0.0)  # clamp solver dust on active bounds
    return SimplexResult("optimal", x, float(np.dot(lp.c, x)), res.nit)


def project_bruteforce(lp: DenseLP, x: np.ndarray) -> np.ndarray:
    """Euclidean projection of x onto {y : Ay <= b, y >= 0} by enumerating
    active constraint subsets of size <= n.

    Every projection is the affine projection onto some independent active
    subset, so the enumeration is exhaustive. Combinatorial in (m + n);
    guarded to n <= 10, m <= 50 and intended for much smaller instances.
    """
    x = np.asarray(x, dtype=np.float64)
    if lp.n > 10 or lp.m > 50:
        raise ValueError("projection oracle is desk-scale only (n <= 10, m <= 50)")
    if x.shape != (lp.n,):
        raise ValueError("point has wrong dimension")
    if max_violation(lp, x) == 0.0:
        return x.copy()

    n = lp.n
    G_all = np.vstack([lp.A, -np.eye(n)])
    h_all = np.concatenate([lp.b, np.zeros(n)])
    best = None
    best_d2 = np.inf
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(len(h_all)), k):
            G = G_all[list(subset)]
            h = h_all[list(subset)]
            gram = G @ G.T
            lam, *_ = np.linalg.lstsq(gram, G @ x - h, rcond=None)
            y = x - G.T @ lam
            if np.max(np.abs(G @ y - h)) > 1e-8:
                continue  # inconsistent subset
            if max_violation(lp, y) > 1e-9:
                continue
            d2 = float(np.dot(y - x, y - x))
            if d2 < best_d2 - 1e-12:
                best, best_d2 = y, d2
            elif best is not None and abs(d2 - best_d2) <= 1e-12:
                if tuple(y) < tuple(best):  # deterministic tie break
                    best = y
    if best is None:
        raise ValueError("feasible region appears empty")
    return best

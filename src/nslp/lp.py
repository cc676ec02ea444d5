"""Dense linear programs, the scalable synthetic Model-n family, and time drift.

All problems are maximization over the region ``{x : A x <= b, x >= 0}``.
The nonnegativity bound is implicit: it is enforced by ``max_violation``
but not stored as rows unless a generator chooses to add them explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_THETA = 200.0

DRIFT_KINDS = ("none", "translate", "random-sparse")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DenseLP:
    """A dense maximization LP: max <c, x> subject to A x <= b, x >= 0."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = _readonly(np.atleast_2d(self.A))
        b = _readonly(np.atleast_1d(self.b))
        c = _readonly(np.atleast_1d(self.c))
        m, n = A.shape
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got n={n}")
        if m < 1:
            raise ValueError("at least one constraint row is required")
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError(f"shape mismatch: A is {m}x{n}, b has {b.shape}, c has {c.shape}")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseLP):
            return NotImplemented
        return (
            np.array_equal(self.A, other.A)
            and np.array_equal(self.b, other.b)
            and np.array_equal(self.c, other.c)
        )

    def __repr__(self) -> str:
        return f"DenseLP(m={self.m}, n={self.n})"


@dataclass(frozen=True)
class DriftSpec:
    """How the problem data evolves per discrete time unit.

    kind="none": data is constant.
    kind="translate": the feasible region is translated by ``translate_vector``
        each time unit (realized through b, leaving A and c unchanged).
    kind="random-sparse": a fraction ``delta`` of the entries of A, b and c
        receive additive uniform noise in [-magnitude, +magnitude] each time
        unit, at positions drawn from a generator seeded by (seed, step).
    """

    kind: str = "none"
    translate_vector: np.ndarray | None = None
    delta: float = 0.0
    magnitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"drift kind must be one of {DRIFT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.magnitude < 0.0:
            raise ValueError(f"magnitude must be nonnegative, got {self.magnitude}")
        if self.kind == "translate":
            if self.translate_vector is None:
                raise ValueError("translate drift requires translate_vector")
            object.__setattr__(self, "translate_vector", _readonly(self.translate_vector))


@dataclass(frozen=True)
class NonStationaryLP:
    """A dense LP whose data (A_k, b_k, c_k) evolves over discrete time k."""

    base: DenseLP
    drift: DriftSpec = field(default_factory=DriftSpec)
    clock: int = 0

    def __post_init__(self):
        if self.clock < 0:
            raise ValueError("clock must be nonnegative")
        v = self.drift.translate_vector
        if self.drift.kind == "translate" and v.shape != (self.base.n,):
            raise ValueError("translate_vector length must equal the problem dimension")


def _index_array(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SparseDelta:
    """Sparse point updates turning one DenseLP into another.

    Entries carry the *new* values. Stored as parallel index/value arrays;
    ``a_changes``/``b_changes``/``c_changes`` expose them as tuples of
    (row, col, value) / (index, value) pairs.
    """

    a_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    a_cols: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    a_vals: np.ndarray = field(default_factory=lambda: np.empty(0))
    b_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    b_vals: np.ndarray = field(default_factory=lambda: np.empty(0))
    c_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    c_vals: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "a_rows", _index_array(self.a_rows))
        object.__setattr__(self, "a_cols", _index_array(self.a_cols))
        object.__setattr__(self, "a_vals", _readonly(self.a_vals))
        object.__setattr__(self, "b_idx", _index_array(self.b_idx))
        object.__setattr__(self, "b_vals", _readonly(self.b_vals))
        object.__setattr__(self, "c_idx", _index_array(self.c_idx))
        object.__setattr__(self, "c_vals", _readonly(self.c_vals))
        if not (len(self.a_rows) == len(self.a_cols) == len(self.a_vals)):
            raise ValueError("A-change arrays must have equal length")
        if len(self.b_idx) != len(self.b_vals) or len(self.c_idx) != len(self.c_vals):
            raise ValueError("index/value arrays must have equal length")
        # duplicate positions within one delta are ill-defined
        if len(self.a_rows):
            enc = self.a_rows * (self.a_cols.max() + 1 if len(self.a_cols) else 1) + self.a_cols
            if len(np.unique(enc)) != len(enc):
                raise ValueError("duplicate A positions in delta")
        for idx in (self.b_idx, self.c_idx):
            if len(idx) and len(np.unique(idx)) != len(idx):
                raise ValueError("duplicate positions in delta")

    @classmethod
    def from_changes(cls, a_changes=(), b_changes=(), c_changes=()) -> "SparseDelta":
        ar = [r for r, _, _ in a_changes]
        ac = [c for _, c, _ in a_changes]
        av = [v for _, _, v in a_changes]
        bi = [i for i, _ in b_changes]
        bv = [v for _, v in b_changes]
        ci = [j for j, _ in c_changes]
        cv = [v for _, v in c_changes]
        return cls(np.array(ar, dtype=np.int64), np.array(ac, dtype=np.int64), np.array(av, dtype=float),
                   np.array(bi, dtype=np.int64), np.array(bv, dtype=float),
                   np.array(ci, dtype=np.int64), np.array(cv, dtype=float))

    @property
    def a_changes(self) -> tuple:
        return tuple(zip(self.a_rows.tolist(), self.a_cols.tolist(), self.a_vals.tolist()))

    @property
    def b_changes(self) -> tuple:
        return tuple(zip(self.b_idx.tolist(), self.b_vals.tolist()))

    @property
    def c_changes(self) -> tuple:
        return tuple(zip(self.c_idx.tolist(), self.c_vals.tolist()))

    @property
    def size(self) -> int:
        return len(self.a_rows) + len(self.b_idx) + len(self.c_idx)

    def is_empty(self) -> bool:
        return self.size == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseDelta):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("a_rows", "a_cols", "a_vals", "b_idx", "b_vals", "c_idx", "c_vals")
        )


EMPTY_DELTA = SparseDelta()


def model_n(n: int, theta: float = DEFAULT_THETA) -> DenseLP:
    """Scalable synthetic LP with n variables and 2(n+1) constraint rows.

    Rows are the box faces x_i <= theta and -x_i <= 0 plus the coupling pair
    sum(x) <= theta*(n+1)/2 and -sum(x) <= 0.  Objective weights decay as
    c_i = n/(i+1)^2, so the unique optimum fills coordinates greedily until
    the coupling budget is exhausted; see ``model_n_optimum``.

    The construction is deterministic.
    """
    n = _check_dimension(n)
    eye = np.eye(n)
    A = np.vstack([eye, -eye, np.ones((1, n)), -np.ones((1, n))])
    b = np.concatenate([np.full(n, theta), np.zeros(n), [theta * (n + 1) / 2.0], [0.0]])
    c = _model_weights(n)
    return DenseLP(A, b, c)


def model_n_optimum(n: int, theta: float = DEFAULT_THETA) -> tuple[np.ndarray, float]:
    """Closed-form unique optimum (x*, <c, x*>) of ``model_n(n)``."""
    n = _check_dimension(n)
    c = _model_weights(n)
    budget = theta * (n + 1) / 2.0
    x = np.zeros(n)
    remaining = budget
    for i in range(n):
        take = min(theta, remaining)
        x[i] = take
        remaining -= take
        if remaining <= 0.0:
            break
    return x, float(np.dot(c, x))


def _model_weights(n: int) -> np.ndarray:
    # strictly decreasing positive weights with sum(c) <= sqrt(n) * max(c)
    return n / (np.arange(1, n + 1, dtype=np.float64) ** 2)


def _check_dimension(n: int) -> int:
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def change_counts(delta: float, m: int, n: int) -> tuple[int, int, int]:
    """Entries of (A, b, c) touched per time unit: ceil(delta * size) each.

    A relative guard absorbs float rounding so that mathematically integral
    products (e.g. delta = 1/(2(n+1)) on an m = 2(n+1) problem) stay exact.
    """
    def up(x: float) -> int:
        return math.ceil(x * (1.0 - 1e-9)) if x > 0 else 0

    return up(delta * m * n), up(delta * m), up(delta * n)


def _step_delta(lp: DenseLP, drift: DriftSpec, k: int) -> SparseDelta:
    """The delta turning the snapshot at clock k into the one at k + 1."""
    if drift.kind == "none":
        return EMPTY_DELTA
    if drift.kind == "translate":
        new_b = lp.b + lp.A @ drift.translate_vector
        return SparseDelta(b_idx=np.arange(lp.m, dtype=np.int64), b_vals=new_b)
    # random-sparse: positions then noise, drawn in a fixed order from a
    # per-step generator so any step is addressable in O(changes)
    rng = np.random.default_rng([drift.seed & 0xFFFFFFFFFFFFFFFF, k])
    na, nb, nc = change_counts(drift.delta, lp.m, lp.n)
    flat = rng.choice(lp.m * lp.n, size=na, replace=False) if na else np.empty(0, dtype=np.int64)
    rows, cols = np.divmod(flat.astype(np.int64), lp.n)
    bi = np.sort(rng.choice(lp.m, size=nb, replace=False)).astype(np.int64) if nb else np.empty(0, dtype=np.int64)
    ci = np.sort(rng.choice(lp.n, size=nc, replace=False)).astype(np.int64) if nc else np.empty(0, dtype=np.int64)
    order = np.argsort(rows * lp.n + cols, kind="stable")
    rows, cols = rows[order], cols[order]
    av = lp.A[rows, cols] + _nonzero_noise(rng, na, drift.magnitude)
    bv = lp.b[bi] + _nonzero_noise(rng, nb, drift.magnitude)
    cv = lp.c[ci] + _nonzero_noise(rng, nc, drift.magnitude)
    return SparseDelta(rows, cols, av, bi, bv, ci, cv)


def _nonzero_noise(rng: np.random.Generator, size: int, magnitude: float) -> np.ndarray:
    if size == 0 or magnitude == 0.0:
        return np.zeros(size)
    u = rng.uniform(-magnitude, magnitude, size)
    while np.any(u == 0.0):  # measure-zero event; keeps changed entries actually changed
        u[u == 0.0] = rng.uniform(-magnitude, magnitude, int(np.sum(u == 0.0)))
    return u


def advance(problem: NonStationaryLP, lp_k: DenseLP, k: int) -> DenseLP:
    """Snapshot at clock k + 1, computed incrementally from the one at k."""
    if problem.drift.kind == "none":
        return lp_k
    return apply_delta(lp_k, _step_delta(lp_k, problem.drift, k))


def snapshot(problem: NonStationaryLP, k: int) -> DenseLP:
    """The problem data at clock k; a pure function of (base, drift, k)."""
    if k < 0:
        raise ValueError("clock must be nonnegative")
    lp = problem.base
    if problem.drift.kind == "none":
        return lp
    for step in range(int(k)):
        lp = advance(problem, lp, step)
    return lp


def delta_between(prev: DenseLP, next_lp: DenseLP) -> SparseDelta:
    """Minimal delta such that ``apply_delta(prev, d)`` equals next exactly."""
    if prev.A.shape != next_lp.A.shape:
        raise ValueError(f"shape mismatch: {prev.A.shape} vs {next_lp.A.shape}")
    ar, ac = np.nonzero(prev.A != next_lp.A)
    bi = np.nonzero(prev.b != next_lp.b)[0]
    ci = np.nonzero(prev.c != next_lp.c)[0]
    return SparseDelta(ar.astype(np.int64), ac.astype(np.int64), next_lp.A[ar, ac],
                       bi.astype(np.int64), next_lp.b[bi],
                       ci.astype(np.int64), next_lp.c[ci])


def apply_delta(lp: DenseLP, d: SparseDelta) -> DenseLP:
    """Updated copy of lp; untouched entries are bit-identical."""
    if d.is_empty():
        return lp
    if len(d.a_rows) and (d.a_rows.min() < 0 or d.a_rows.max() >= lp.m
                          or d.a_cols.min() < 0 or d.a_cols.max() >= lp.n):
        raise IndexError("A-change index out of range")
    if len(d.b_idx) and (d.b_idx.min() < 0 or d.b_idx.max() >= lp.m):
        raise IndexError("b-change index out of range")
    if len(d.c_idx) and (d.c_idx.min() < 0 or d.c_idx.max() >= lp.n):
        raise IndexError("c-change index out of range")
    A = lp.A.copy()
    b = lp.b.copy()
    c = lp.c.copy()
    A[d.a_rows, d.a_cols] = d.a_vals
    b[d.b_idx] = d.b_vals
    c[d.c_idx] = d.c_vals
    return DenseLP(A, b, c)


def objective_value(lp: DenseLP, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lp.n,):
        raise ValueError(f"point has length {x.shape}, expected {lp.n}")
    return float(np.dot(lp.c, x))


def max_violation(lp: DenseLP, x: np.ndarray) -> float:
    """max(0, max_i(<A_i, x> - b_i), max_j(-x_j)); zero iff x is feasible.

    Comparisons are exact on the stored values: no epsilon is applied here
    (tolerances belong to the solvers, not the data layer). A NaN residual,
    such as ``0 * inf`` in ``A @ x``, is an infinite violation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lp.n,):
        raise ValueError(f"point has length {x.shape}, expected {lp.n}")
    row, bound = float(np.max(lp.A @ x - lp.b)), float(np.max(-x))
    if math.isnan(row + bound):
        return math.inf
    return max(0.0, row, bound)


def write_problem(lp: DenseLP, path) -> None:
    """Plain-text format: header ``n m``, then A row-wise, then b, then c."""
    with open(path, "w") as fh:
        fh.write(f"{lp.n} {lp.m}\n")
        for row in lp.A:
            fh.write(" ".join(repr(v) for v in row.tolist()) + "\n")
        fh.write(" ".join(repr(v) for v in lp.b.tolist()) + "\n")
        fh.write(" ".join(repr(v) for v in lp.c.tolist()) + "\n")


def read_problem(path) -> DenseLP:
    """Read the plain-text problem format (whitespace-separated tokens)."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("problem file is truncated")
    n, m = int(tokens[0]), int(tokens[1])
    need = 2 + m * n + m + n
    if len(tokens) != need:
        raise ValueError(f"problem file has {len(tokens)} tokens, expected {need}")
    vals = np.array([float(t) for t in tokens[2:]])
    A = vals[: m * n].reshape(m, n)
    b = vals[m * n: m * n + m]
    c = vals[m * n + m:]
    return DenseLP(A, b, c)

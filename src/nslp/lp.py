"""Dense linear programs, the scalable synthetic Model-n family, and time drift.

All problems are maximization over the region ``{x : A x <= b, x >= 0}``.
The nonnegativity bound is implicit: it is enforced by ``max_violation``
but not stored as rows unless a generator chooses to add them explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

DEFAULT_THETA = 200.0

DRIFT_KINDS = ("none", "translate", "random-sparse")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DenseLP:
    """A dense maximization LP: max <c, x> subject to A x <= b, x >= 0.

    It takes the arrays it is given and makes them read-only: a contiguous
    float64 array is kept, not copied, and any other is converted once. A
    caller must not write to a kept array through another view. Code that
    caches what it read from an ``A`` object, such as the worker's screen
    plan, relies on this."""

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
        if not 0.0 <= self.magnitude < math.inf:
            raise ValueError(f"magnitude must be nonnegative and finite, got {self.magnitude}")
        if self.kind == "translate":
            if self.translate_vector is None:
                raise ValueError("translate drift requires translate_vector")
            v = _readonly(self.translate_vector)
            if not np.isfinite(v).all():
                raise ValueError("translate_vector must be finite")
            object.__setattr__(self, "translate_vector", v)


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


def _has_duplicates(a: np.ndarray) -> bool:
    """Whether a 1-D array repeats a value. Sorting and comparing neighbours
    is far cheaper than ``np.unique``; strictly increasing input, which is
    what ``delta_between`` and ``_step_delta`` build, skips the sort."""
    if (a[1:] > a[:-1]).all():
        return False
    s = np.sort(a)
    return bool((s[1:] == s[:-1]).any())


@dataclass(frozen=True, eq=False)
class SparseDelta:
    """Sparse point updates turning one DenseLP into another.

    Three sections of parallel (index, value) arrays, one each for A, b
    and c; values are the *new* entries. An A index is the row-major flat
    position ``row * n + col``, the number an order frame carries. Like
    ``DenseLP``, it keeps the arrays it is given when they already have the
    right dtype and layout, and makes them read-only.
    """

    a_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    a_vals: np.ndarray = field(default_factory=lambda: np.empty(0))
    b_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    b_vals: np.ndarray = field(default_factory=lambda: np.empty(0))
    c_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    c_vals: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        for name in ("a", "b", "c"):
            idx = _index_array(getattr(self, f"{name}_idx"))
            vals = _readonly(getattr(self, f"{name}_vals"))
            if len(idx) != len(vals):
                raise ValueError(f"{name}_idx and {name}_vals differ in length")
            # duplicate positions within one delta are ill-defined
            if _has_duplicates(idx):
                raise ValueError(f"duplicate positions in {name}_idx")
            object.__setattr__(self, f"{name}_idx", idx)
            object.__setattr__(self, f"{name}_vals", vals)

    @property
    def size(self) -> int:
        return len(self.a_idx) + len(self.b_idx) + len(self.c_idx)

    def is_empty(self) -> bool:
        return self.size == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseDelta):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


EMPTY_DELTA = SparseDelta()


def model_n(n: int, theta: float = DEFAULT_THETA) -> DenseLP:
    """Scalable synthetic LP with n variables and 2(n+1) constraint rows.

    Rows are the box faces x_i <= theta and -x_i <= 0 plus the coupling pair
    sum(x) <= theta*(n+1)/2 and -sum(x) <= 0.  Objective weights decay as
    c_i = n/(i+1)^2, so the unique optimum fills coordinates greedily until
    the coupling budget is exhausted; see ``model_n_optimum``.

    The construction is deterministic.
    """
    n = _check_model(n, theta)
    eye = np.eye(n)
    A = np.vstack([eye, -eye, np.ones((1, n)), -np.ones((1, n))])
    b = np.concatenate([np.full(n, theta), np.zeros(n), [theta * (n + 1) / 2.0], [0.0]])
    c = _model_weights(n)
    return DenseLP(A, b, c)


def model_n_optimum(n: int, theta: float = DEFAULT_THETA) -> tuple[np.ndarray, float]:
    """Closed-form unique optimum (x*, <c, x*>) of ``model_n(n)``."""
    n = _check_model(n, theta)
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


def _check_model(n: int, theta: float) -> int:
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be finite and positive, got {theta!r}")
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
    ai = _sorted_draw(rng, lp.m * lp.n, na)
    bi = _sorted_draw(rng, lp.m, nb)
    ci = _sorted_draw(rng, lp.n, nc)
    av = lp.A.reshape(-1)[ai] + _nonzero_noise(rng, na, drift.magnitude)
    bv = lp.b[bi] + _nonzero_noise(rng, nb, drift.magnitude)
    cv = lp.c[ci] + _nonzero_noise(rng, nc, drift.magnitude)
    return SparseDelta(ai, av, bi, bv, ci, cv)


def _sorted_draw(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """``count`` distinct positions below ``size``, ascending. The draw has
    no repeats, so sorting it orders flat A positions row-major. A draw of
    every position sorts to ``arange(size)``; it is still made, because the
    draws after it read the generator state it leaves."""
    if not count:
        return np.empty(0, dtype=np.int64)
    drawn = rng.choice(size, size=count, replace=False)
    if count == size:
        return np.arange(size, dtype=np.int64)
    return np.sort(drawn)


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
    if prev is next_lp:  # a stationary ``advance`` hands back the same problem
        return EMPTY_DELTA
    if prev.A.shape != next_lp.A.shape:
        raise ValueError(f"shape mismatch: {prev.A.shape} vs {next_lp.A.shape}")
    ai = np.flatnonzero(prev.A != next_lp.A)
    bi = np.flatnonzero(prev.b != next_lp.b)
    ci = np.flatnonzero(prev.c != next_lp.c)
    return SparseDelta(ai, next_lp.A.reshape(-1)[ai], bi, next_lp.b[bi], ci, next_lp.c[ci])


def apply_delta(lp: DenseLP, d: SparseDelta) -> DenseLP:
    """Updated copy of lp; untouched entries are bit-identical."""
    if d.is_empty():
        return lp
    A = lp.A.copy()
    b = lp.b.copy()
    c = lp.c.copy()
    for name, target in (("a", A.reshape(-1)), ("b", b), ("c", c)):
        idx = getattr(d, f"{name}_idx")
        if len(idx) and (idx.min() < 0 or idx.max() >= len(target)):
            raise IndexError(f"{name}_idx out of range")
        target[idx] = getattr(d, f"{name}_vals")
    return DenseLP(A, b, c)


def objective_value(lp: DenseLP, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != lp.c.shape:
        raise ValueError(f"point has length {x.shape}, expected {lp.n}")
    return float(lp.c.dot(x))


def max_violation(lp: DenseLP, x: np.ndarray) -> float:
    """max(0, max_i(<A_i, x> - b_i), max_j(-x_j)); zero iff x is feasible.

    Comparisons are exact on the stored values: no epsilon is applied here
    (tolerances belong to the solvers, not the data layer). A NaN residual,
    such as ``0 * inf`` in ``A @ x``, is an infinite violation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lp.n,):
        raise ValueError(f"point has length {x.shape}, expected {lp.n}")
    return _violation(x, lp.A @ x - lp.b)


def _violation(x: np.ndarray, residuals: np.ndarray) -> float:
    """``max_violation`` of x given its row residuals ``A @ x - b``."""
    row, bound = float(np.max(residuals)), float(np.max(-x))
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

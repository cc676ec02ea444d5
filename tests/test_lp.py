import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslp import (DenseLP, DriftSpec, NonStationaryLP, SparseDelta, apply_delta,
                  delta_between, max_violation, model_n, model_n_optimum,
                  objective_value, read_problem, snapshot, solve_simplex, write_problem)
from nslp.lp import _nonzero_noise, _step_delta, change_counts


# --- model_n ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_model_n_shape(n):
    lp = model_n(n)
    assert lp.m == 2 * (n + 1)
    assert lp.n == n


def test_model_n_rejects_small_dimension():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            model_n(bad)
        with pytest.raises(ValueError):
            model_n_optimum(bad)


@pytest.mark.parametrize("theta", [0.0, -5.0, float("nan"), float("inf"), -float("inf")])
def test_model_n_rejects_a_box_that_is_not_finite_and_positive(theta):
    with pytest.raises(ValueError, match="theta"):
        model_n(4, theta=theta)
    with pytest.raises(ValueError, match="theta"):
        model_n_optimum(4, theta=theta)
    assert model_n(4, theta=1e-3).b[0] == 1e-3


@pytest.mark.parametrize("n", range(2, 9))
def test_model_n_optimum_is_feasible_and_consistent(n):
    lp = model_n(n)
    x, value = model_n_optimum(n)
    assert max_violation(lp, x) == 0.0
    slacks = lp.b - lp.A @ x
    assert np.all(slacks >= 0.0)
    assert objective_value(lp, x) == pytest.approx(value, abs=0)


def test_model_n_matches_simplex_oracle():
    lp = model_n(6)
    _, value = model_n_optimum(6)
    res = solve_simplex(lp)
    assert res.status == "optimal"
    assert abs(res.value - value) <= 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_model_n_bounded_and_full_dimensional(n):
    lp = model_n(n)
    res = solve_simplex(lp)
    assert res.status == "optimal"  # bounded
    interior = np.full(n, 0.5)  # strictly inside every face
    assert np.all(lp.A @ interior < lp.b)
    assert np.all(interior > 0)


def test_model_n_is_deterministic():
    assert model_n(5) == model_n(5)


# --- snapshots and drift -----------------------------------------------------


def test_snapshot_clock_zero_is_base(unit_square_explicit):
    for drift in (DriftSpec(),
                  DriftSpec(kind="translate", translate_vector=np.array([1.0, 0.0])),
                  DriftSpec(kind="random-sparse", delta=0.3, magnitude=1.0, seed=7)):
        p = NonStationaryLP(base=unit_square_explicit, drift=drift)
        assert snapshot(p, 0) == unit_square_explicit


def test_snapshot_translate_unit_square(unit_square_explicit):
    v = np.array([1.0, 0.0])
    p = NonStationaryLP(base=unit_square_explicit,
                        drift=DriftSpec(kind="translate", translate_vector=v))
    m3 = snapshot(p, 3)
    # the square [0,1]^2 moved to [3,4] x [0,1]
    assert max_violation(m3, np.array([3.5, 0.5])) == 0.0
    assert max_violation(m3, np.array([3.0, 0.0])) == 0.0
    assert max_violation(m3, np.array([4.0, 1.0])) == 0.0
    assert max_violation(m3, np.array([2.9, 0.5])) > 0.0
    assert max_violation(m3, np.array([4.1, 0.5])) > 0.0
    assert max_violation(m3, np.array([0.5, 0.5])) > 0.0


def test_snapshot_random_sparse_zero_delta(unit_square_explicit):
    p = NonStationaryLP(base=unit_square_explicit,
                        drift=DriftSpec(kind="random-sparse", delta=0.0, seed=3))
    for k in range(5):
        assert snapshot(p, k) == unit_square_explicit


def test_snapshot_is_pure():
    p = NonStationaryLP(base=model_n(4),
                        drift=DriftSpec(kind="random-sparse", delta=0.2, magnitude=2.0, seed=11))
    a, b = snapshot(p, 4), snapshot(p, 4)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b) and np.array_equal(a.c, b.c)


@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
def test_random_sparse_change_accounting(delta):
    base = model_n(5)
    p = NonStationaryLP(base=base,
                        drift=DriftSpec(kind="random-sparse", delta=delta, magnitude=1.0, seed=5))
    na, nb, nc = change_counts(delta, base.m, base.n)
    for k in range(3):
        prev, nxt = snapshot(p, k), snapshot(p, k + 1)
        differing = (int(np.sum(prev.A != nxt.A)) + int(np.sum(prev.b != nxt.b))
                     + int(np.sum(prev.c != nxt.c)))
        assert differing == na + nb + nc


def _step_delta_by_argsort(lp, drift, k):
    """The random-sparse step as first written: draw, split, then a stable
    argsort of the positions. Kept as the reference for ``_step_delta``;
    positions come back flat, as ``SparseDelta`` stores them."""
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
    return rows * lp.n + cols, av, bi, bv, ci, cv


@pytest.mark.parametrize("n", [5, 100])
@pytest.mark.parametrize("delta", [0.05, 1.0])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_step_delta_matches_the_argsort_construction(n, delta, seed):
    drift = DriftSpec(kind="random-sparse", delta=delta, magnitude=1e-3, seed=seed)
    lp = model_n(n)
    for k in range(3):
        d = _step_delta(lp, drift, k)
        fields = (d.a_idx, d.a_vals, d.b_idx, d.b_vals, d.c_idx, d.c_vals)
        for got, want in zip(fields, _step_delta_by_argsort(lp, drift, k)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        lp = apply_delta(lp, d)


def test_change_counts_one_row_regime_is_exact():
    for n in (100, 200, 400, 800):
        m = 2 * (n + 1)
        delta = 1.0 / (2 * (n + 1))
        assert change_counts(delta, m, n) == (n, 1, 1)
    assert change_counts(1.0, 10, 4) == (40, 10, 4)
    assert change_counts(0.0, 10, 4) == (0, 0, 0)


def test_drift_spec_validation():
    with pytest.raises(ValueError):
        DriftSpec(kind="weird")
    with pytest.raises(ValueError):
        DriftSpec(kind="random-sparse", delta=1.5)
    with pytest.raises(ValueError):
        DriftSpec(kind="translate")  # vector missing
    with pytest.raises(ValueError):
        DriftSpec(magnitude=-1.0)


@pytest.mark.parametrize("magnitude", [float("nan"), float("inf")])
def test_drift_spec_rejects_non_finite_magnitude(magnitude):
    # caught at construction, not as an OverflowError at the first drift step
    with pytest.raises(ValueError, match="magnitude"):
        DriftSpec(kind="random-sparse", delta=0.5, magnitude=magnitude)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_drift_spec_rejects_a_non_finite_translate_vector(bad):
    # caught at construction, not as a non-finite b when the first snapshot is built
    with pytest.raises(ValueError, match="translate_vector must be finite"):
        DriftSpec(kind="translate", translate_vector=np.array([1.0, bad]))


# --- deltas -------------------------------------------------------------------


def test_delta_between_identity(unit_square):
    equal_copy = DenseLP(unit_square.A.copy(), unit_square.b.copy(), unit_square.c.copy())
    for nxt in (unit_square, equal_copy):
        d = delta_between(unit_square, nxt)
        assert d.is_empty()
        assert apply_delta(unit_square, d) == unit_square


def test_delta_between_single_entry():
    prev = DenseLP(A=np.eye(2), b=np.array([1.0, 1.0]), c=np.ones(2))
    nxt = DenseLP(A=np.eye(2), b=np.array([1.0, 2.0]), c=np.ones(2))
    d = delta_between(prev, nxt)
    assert d.b_idx.tolist() == [1] and d.b_vals.tolist() == [2.0]
    assert len(d.a_idx) == len(d.a_vals) == len(d.c_idx) == len(d.c_vals) == 0


def test_delta_between_shape_mismatch(unit_square):
    with pytest.raises(ValueError):
        delta_between(unit_square, model_n(3))


def test_apply_delta_point_update(unit_square):
    d = SparseDelta(a_idx=[0], a_vals=[5.0])
    out = apply_delta(unit_square, d)
    assert out.A[0, 0] == 5.0
    ref = unit_square.A.copy()
    ref[0, 0] = 5.0
    assert np.array_equal(out.A, ref)
    assert np.array_equal(out.b, unit_square.b)
    assert np.array_equal(out.c, unit_square.c)


def test_apply_delta_out_of_range(unit_square):
    with pytest.raises(IndexError):
        apply_delta(unit_square, SparseDelta(a_idx=[5 * 2 + 0], a_vals=[1.0]))
    with pytest.raises(IndexError):
        apply_delta(unit_square, SparseDelta(b_idx=[-1], b_vals=[1.0]))
    with pytest.raises(IndexError):
        apply_delta(unit_square, SparseDelta(c_idx=[2], c_vals=[1.0]))


def test_apply_delta_rejects_flat_positions_past_the_end(unit_square):
    m, n = unit_square.A.shape
    last = apply_delta(unit_square, SparseDelta(a_idx=[m * n - 1], a_vals=[9.0]))
    assert last.A[m - 1, n - 1] == 9.0
    with pytest.raises(IndexError, match="a_idx out of range"):
        apply_delta(unit_square, SparseDelta(a_idx=[m * n], a_vals=[1.0]))
    with pytest.raises(IndexError, match="a_idx out of range"):
        apply_delta(unit_square, SparseDelta(a_idx=[-1], a_vals=[1.0]))


def test_sparse_delta_rejects_duplicates():
    with pytest.raises(ValueError):
        SparseDelta(a_idx=[0, 0], a_vals=[1.0, 2.0])
    with pytest.raises(ValueError):
        SparseDelta(b_idx=[1, 1], b_vals=[1.0, 2.0])


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_sparse_delta_rejects_sections_of_unequal_length(name):
    with pytest.raises(ValueError, match=f"{name}_idx and {name}_vals differ in length"):
        SparseDelta(**{f"{name}_idx": [0, 1], f"{name}_vals": [1.0]})


def test_sparse_delta_rejects_unsorted_duplicates():
    with pytest.raises(ValueError, match="duplicate positions in a_idx"):
        SparseDelta(a_idx=[5, 0, 5], a_vals=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="duplicate positions in b_idx"):
        SparseDelta(b_idx=[3, 0, 3], b_vals=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="duplicate positions in c_idx"):
        SparseDelta(c_idx=[1, 0, 1], c_vals=[1.0, 2.0, 3.0])


def test_sparse_delta_accepts_unsorted_unique_positions():
    lp = model_n(3)
    d = SparseDelta(a_idx=[1 * 3 + 2, 0, 1 * 3 + 0], a_vals=[5.0, 6.0, 7.0],
                    b_idx=[2, 0, 1], b_vals=[8.0, 9.0, 10.0],
                    c_idx=[1, 0], c_vals=[11.0, 12.0])
    out = apply_delta(lp, d)
    assert (out.A[1, 2], out.A[0, 0], out.A[1, 0]) == (5.0, 6.0, 7.0)
    assert out.b[:3].tolist() == [9.0, 10.0, 8.0]
    assert out.c[:2].tolist() == [12.0, 11.0]


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
def test_sparse_delta_duplicate_verdict_matches_set_semantics(pairs):
    rows = [r for r, _ in pairs]
    repeated = len(set(pairs)) != len(pairs)
    try:
        SparseDelta(a_idx=[r * 4 + c for r, c in pairs], a_vals=[1.0] * len(pairs))
    except ValueError:
        assert repeated
    else:
        assert not repeated
    try:
        SparseDelta(b_idx=rows, b_vals=[1.0] * len(rows))
    except ValueError:
        assert len(set(rows)) != len(rows)
    else:
        assert len(set(rows)) == len(rows)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_delta_roundtrip_random_pairs(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 7))
    prev = DenseLP(rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n))
    nxt_A = prev.A.copy()
    mask = rng.random(size=(m, n)) < 0.4
    nxt_A[mask] = rng.normal(size=int(mask.sum()))
    nxt = DenseLP(nxt_A, np.where(rng.random(m) < 0.5, rng.normal(size=m), prev.b),
                  np.where(rng.random(n) < 0.5, rng.normal(size=n), prev.c))
    assert apply_delta(prev, delta_between(prev, nxt)) == nxt


# --- objective / membership ---------------------------------------------------


def test_objective_examples(unit_square):
    assert objective_value(unit_square, np.array([0.5, 0.5])) == 1.0
    assert objective_value(unit_square, np.zeros(2)) == 0.0
    with pytest.raises(ValueError):
        objective_value(unit_square, np.zeros(3))


def test_objective_matches_naive_summation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        lp = DenseLP(rng.normal(size=(1, n)), rng.normal(size=1), rng.normal(size=n))
        x = rng.normal(size=n)
        naive = sum(float(ci) * float(xi) for ci, xi in zip(lp.c, x))
        assert objective_value(lp, x) == pytest.approx(naive, abs=1e-12)


def test_max_violation_cases(unit_square):
    assert max_violation(unit_square, np.array([0.25, 0.5])) == 0.0
    one_d = DenseLP(A=np.array([[1.0, 0.0]]), b=np.array([1.0]), c=np.array([1.0, 0.0]))
    assert max_violation(one_d, np.array([3.0, 0.0])) == 2.0
    assert max_violation(unit_square, np.array([-0.5, 0.5])) == 0.5
    with pytest.raises(ValueError):
        max_violation(unit_square, np.zeros(3))


def test_dense_lp_validation():
    with pytest.raises(ValueError):
        DenseLP(np.ones((1, 1)), np.ones(1), np.ones(1))  # n < 2
    with pytest.raises(ValueError):
        DenseLP(np.ones((2, 2)), np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        DenseLP(np.array([[np.inf, 1.0]]), np.ones(1), np.ones(2))
    with pytest.raises(ValueError):
        DenseLP(np.array([[np.nan, 1.0]]), np.ones(1), np.ones(2))


# --- text format ----------------------------------------------------------------


def test_problem_file_roundtrip(tmp_path):
    lp = model_n(4)
    path = tmp_path / "model4.txt"
    write_problem(lp, path)
    back = read_problem(path)
    assert back == lp


def test_problem_file_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 2 3\n")
    with pytest.raises(ValueError):
        read_problem(path)


def _bits(v: float) -> bytes:
    return np.float64(v).tobytes()


def test_objective_value_is_bitwise_the_dot_product():
    rng = np.random.default_rng(23)
    cases = []
    for n in (2, 3, 17, 200, 401):
        c = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        x = rng.normal(size=2 * n) * 10.0 ** rng.integers(-8, 8, 2 * n)
        cases += [(c, x[:n]), (c, x[::2]), (c, x[:n].tolist())]
    big = np.array([1e300, 1e300, 1e300])
    cases += [(big, np.array([1e300, 1.0, 1.0])),             # +inf
              (big, np.array([-1e300, 1.0, 1.0])),            # -inf
              (big, np.array([1e300, -1e300, 1.0])),          # inf - inf = nan
              (np.array([0.0, 1.0]), np.array([np.inf, 1.0]))]  # 0 * inf = nan
    with np.errstate(over="ignore", invalid="ignore"):
        for c, x in cases:
            lp = DenseLP(np.ones((1, len(c))), np.ones(1), c)
            assert _bits(objective_value(lp, x)) == _bits(float(np.dot(lp.c, x)))
        assert objective_value(DenseLP(np.ones((1, 3)), np.ones(1), big),
                               np.array([1e300, 1.0, 1.0])) == np.inf


@pytest.mark.parametrize("x, shape", [(np.zeros(3), "(3,)"), (np.zeros((2, 1)), "(2, 1)"),
                                      ([1.0], "(1,)")])
def test_objective_value_rejects_a_wrong_length_point(unit_square, x, shape):
    with pytest.raises(ValueError, match=rf"^point has length {re.escape(shape)}, expected 2$"):
        objective_value(unit_square, x)

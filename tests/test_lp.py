import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslp import (DenseLP, DriftSpec, NonStationaryLP, SparseDelta, apply_delta,
                  delta_between, max_violation, model_n, model_n_optimum,
                  objective_value, read_problem, snapshot, solve_simplex, write_problem)
from nslp.lp import change_counts


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


# --- deltas -------------------------------------------------------------------


def test_delta_between_identity(unit_square):
    d = delta_between(unit_square, unit_square)
    assert d.is_empty()
    assert apply_delta(unit_square, d) == unit_square


def test_delta_between_single_entry():
    prev = DenseLP(A=np.eye(2), b=np.array([1.0, 1.0]), c=np.ones(2))
    nxt = DenseLP(A=np.eye(2), b=np.array([1.0, 2.0]), c=np.ones(2))
    d = delta_between(prev, nxt)
    assert d.b_changes == ((1, 2.0),)
    assert d.a_changes == () and d.c_changes == ()


def test_delta_between_shape_mismatch(unit_square):
    with pytest.raises(ValueError):
        delta_between(unit_square, model_n(3))


def test_apply_delta_point_update(unit_square):
    d = SparseDelta.from_changes(a_changes=[(0, 0, 5.0)])
    out = apply_delta(unit_square, d)
    assert out.A[0, 0] == 5.0
    ref = unit_square.A.copy()
    ref[0, 0] = 5.0
    assert np.array_equal(out.A, ref)
    assert np.array_equal(out.b, unit_square.b)
    assert np.array_equal(out.c, unit_square.c)


def test_apply_delta_out_of_range(unit_square):
    with pytest.raises(IndexError):
        apply_delta(unit_square, SparseDelta.from_changes(a_changes=[(5, 0, 1.0)]))
    with pytest.raises(IndexError):
        apply_delta(unit_square, SparseDelta.from_changes(b_changes=[(-1, 1.0)]))
    with pytest.raises(IndexError):
        apply_delta(unit_square, SparseDelta.from_changes(c_changes=[(2, 1.0)]))


def test_sparse_delta_rejects_duplicates():
    with pytest.raises(ValueError):
        SparseDelta.from_changes(a_changes=[(0, 0, 1.0), (0, 0, 2.0)])
    with pytest.raises(ValueError):
        SparseDelta.from_changes(b_changes=[(1, 1.0), (1, 2.0)])


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

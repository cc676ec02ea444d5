import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslp import Cross, Marker, cohort_markers, marker_of, markers, point_of, recenter


def test_point_of_substitutions():
    c = Cross(center=np.zeros(2), spacing=1.0, points_per_cohort=6)
    assert np.array_equal(point_of(c, Marker(0, 2)), np.array([2.0, 0.0]))
    c2 = Cross(center=np.array([1.0, 1.0]), spacing=0.5, points_per_cohort=6)
    assert np.array_equal(point_of(c2, Marker(1, -3)), np.array([1.0, -0.5]))


def test_two_dimensional_layout():
    # n=2, K=6: thirteen points total, six per axis, symmetric about the center
    c = Cross(center=np.zeros(2), spacing=1.0, points_per_cohort=6)
    ms = markers(c)
    assert len(ms) == 12
    assert c.total_points == 13
    pts = {tuple(point_of(c, m)) for m in ms}
    assert len(pts) == 12
    axis0 = [p for p in pts if p[1] == 0.0]
    axis1 = [p for p in pts if p[0] == 0.0]
    assert len(axis0) == 6 and len(axis1) == 6
    for p in pts:
        assert (-p[0], -p[1]) in pts


def test_smallest_legal_cross():
    c = Cross(center=np.zeros(2), spacing=1.0, points_per_cohort=2)
    assert [(m.cohort, m.offset) for m in markers(c)] == [(0, -1), (0, 1), (1, -1), (1, 1)]


def test_cohort_markers_ordering_and_partition():
    c = Cross(center=np.zeros(3), spacing=1.0, points_per_cohort=4)
    assert [(m.cohort, m.offset) for m in cohort_markers(c, 1)] == \
        [(1, -2), (1, -1), (1, 1), (1, 2)]
    union = [m for chi in range(3) for m in cohort_markers(c, chi)]
    assert union == markers(c)
    for chi in range(3):
        for m in cohort_markers(c, chi):
            p = point_of(c, m)
            diff = np.nonzero(p != c.center)[0]
            assert list(diff) == [chi]
    with pytest.raises(ValueError):
        cohort_markers(c, 3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), half_k=st.integers(1, 12))
def test_marker_count_matches_cardinality(n, half_k):
    k = 2 * half_k
    c = Cross(center=np.zeros(n), spacing=1.0, points_per_cohort=k)
    ms = markers(c)
    assert len(ms) == n * k
    assert len(set(ms)) == n * k
    assert c.total_points == n * k + 1


def test_marker_point_roundtrip():
    c = Cross(center=np.array([0.5, -1.0, 2.0]), spacing=0.25, points_per_cohort=6)
    for m in markers(c):
        assert marker_of(c, point_of(c, m)) == m
    with pytest.raises(ValueError):
        marker_of(c, c.center)  # the center carries no marker
    with pytest.raises(ValueError):
        marker_of(c, np.array([0.5, -1.0, 2.1]))  # off the lattice


def test_neighbor_spacing_exact_for_dyadic_spacing():
    for s in (1.0, 0.5, 0.25):
        c = Cross(center=np.zeros(2), spacing=s, points_per_cohort=8)
        for chi in range(2):
            line = [point_of(c, m) for m in cohort_markers(c, chi)]
            half = len(line) // 2
            seq = line[:half] + [c.center] + line[half:]
            for a, b in zip(seq, seq[1:]):
                assert float(np.linalg.norm(b - a)) == s


def test_axis_symmetry():
    c = Cross(center=np.array([1.0, 2.0, 3.0]), spacing=0.5, points_per_cohort=4)
    for m in markers(c):
        p = point_of(c, m)
        q = point_of(c, Marker(m.cohort, -m.offset))
        assert np.array_equal(q - c.center, -(p - c.center))


def test_recenter():
    c = Cross(center=np.zeros(2), spacing=0.5, points_per_cohort=4)
    same = recenter(c, np.zeros(2))
    assert np.array_equal(same.center, c.center)
    moved = recenter(c, np.array([2.0, -1.0]))
    for m in markers(c):
        shift = point_of(moved, m) - point_of(c, m)
        assert np.array_equal(shift, np.array([2.0, -1.0]))
    line_old = [point_of(c, m) for m in cohort_markers(c, 0)]
    line_new = [point_of(moved, m) for m in cohort_markers(moved, 0)]
    for (a, b), (a2, b2) in zip(zip(line_old, line_old[1:]), zip(line_new, line_new[1:])):
        assert float(np.linalg.norm(b - a)) == float(np.linalg.norm(b2 - a2))
    with pytest.raises(ValueError):
        recenter(c, np.zeros(3))


def test_cross_validation():
    with pytest.raises(ValueError):
        Cross(center=np.zeros(2), spacing=1.0, points_per_cohort=3)  # odd
    with pytest.raises(ValueError):
        Cross(center=np.zeros(2), spacing=1.0, points_per_cohort=0)
    with pytest.raises(ValueError):
        Cross(center=np.zeros(1), spacing=1.0, points_per_cohort=2)  # n < 2
    with pytest.raises(ValueError):
        Cross(center=np.zeros(2), spacing=0.0, points_per_cohort=2)
    c = Cross(center=np.zeros(2), spacing=1.0, points_per_cohort=4)
    with pytest.raises(ValueError):
        point_of(c, Marker(0, 0))
    with pytest.raises(ValueError):
        point_of(c, Marker(0, 3))
    with pytest.raises(ValueError):
        point_of(c, Marker(2, 1))


@pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
def test_cross_rejects_non_finite_spacing(spacing):
    with pytest.raises(ValueError, match="spacing"):
        Cross(center=np.zeros(2), spacing=spacing, points_per_cohort=2)


def test_cohort_markers_are_equal_fresh_lists():
    c = Cross(center=np.zeros(3), spacing=1.0, points_per_cohort=4)
    first = cohort_markers(c, 1)
    first.append(Marker(2, 1))
    first[0] = Marker(0, 1)
    again = cohort_markers(c, 1)
    assert again == [Marker(1, -2), Marker(1, -1), Marker(1, 1), Marker(1, 2)]
    assert again is not cohort_markers(c, 1)


@pytest.mark.parametrize("marker, message", [
    (Marker(-1, 1), "cohort -1 out of range for dimension 3"),
    (Marker(3, 1), "cohort 3 out of range for dimension 3"),
    (Marker(np.int64(3), 1), "cohort 3 out of range for dimension 3"),
    (Marker(0, 0), "offset 0 out of range for K=4"),
    (Marker(1, 3), "offset 3 out of range for K=4"),
    (Marker(1, -3), "offset -3 out of range for K=4"),
])
def test_point_of_range_messages(marker, message):
    c = Cross(center=np.array([0.5, -1.0, 2.0]), spacing=0.25, points_per_cohort=4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        point_of(c, marker)


def test_point_of_accepts_a_numpy_integer_cohort():
    c = Cross(center=np.array([0.5, -1.0, 2.0]), spacing=0.25, points_per_cohort=4)
    for chi in (np.int64(2), np.intp(0)):
        got = point_of(c, Marker(chi, -2))
        assert got.tobytes() == point_of(c, Marker(int(chi), -2)).tobytes()


def test_marker_of_range_messages():
    c = Cross(center=np.array([0.5, -1.0, 2.0]), spacing=0.25, points_per_cohort=4)
    beyond = c.center.copy()
    beyond[1] += 3 * c.spacing  # one step past the last cohort point
    with pytest.raises(ValueError, match=r"^offset 3 out of range for K=4$"):
        marker_of(c, beyond)
    with pytest.raises(ValueError, match=r"^point is the center or not a cross point$"):
        marker_of(c, c.center)

"""The n-dimensional axisymmetric cross: a center plus n cohorts of K
equally spaced collinear points along each coordinate axis."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .lp import _readonly


@dataclass(frozen=True)
class Cross:
    """Like ``DenseLP``, it keeps a contiguous float64 ``center`` as given,
    not a copy, and makes it read-only."""

    center: np.ndarray
    spacing: float
    points_per_cohort: int

    def __post_init__(self):
        center = _readonly(self.center)
        if center.ndim != 1 or center.shape[0] < 2:
            raise ValueError("cross dimension must be >= 2")
        if not (self.spacing > 0.0 and math.isfinite(self.spacing)):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        k = self.points_per_cohort
        if int(k) != k or k < 2 or k % 2 != 0:
            raise ValueError(f"points per cohort must be an even integer >= 2, got {k!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "points_per_cohort", int(k))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    @property
    def total_points(self) -> int:
        # center plus n*K cohort members
        return self.dimension * self.points_per_cohort + 1


@dataclass(frozen=True, order=True)
class Marker:
    """Identifies a cohort point: cohort index and signed step count from
    the center. Offset zero is reserved for the center, which belongs to
    no cohort and therefore has no marker."""

    cohort: int
    offset: int


def _offsets(k: int) -> list[int]:
    half = k // 2
    return [e for e in range(-half, half + 1) if e != 0]


def point_of(cross: Cross, m: Marker) -> np.ndarray:
    """Coordinates of the marked point: center + offset * spacing * e_cohort."""
    chi, eta = m.cohort, m.offset
    n, k = len(cross.center), cross.points_per_cohort
    if not 0 <= chi < n:
        raise ValueError(f"cohort {chi} out of range for dimension {n}")
    if eta == 0 or abs(eta) > k // 2:
        raise ValueError(f"offset {eta} out of range for K={k}")
    return _point(cross, m)


def _point(cross: Cross, m: Marker) -> np.ndarray:
    """``point_of`` for a marker known to be in range on this cross."""
    p = cross.center.copy()
    p[m.cohort] += m.offset * cross.spacing
    return p


def marker_of(cross: Cross, point: np.ndarray) -> Marker:
    """Inverse of ``point_of`` for points that lie exactly on the cross."""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != cross.center.shape:
        raise ValueError("point has wrong dimension")
    diff = point != cross.center
    where = np.nonzero(diff)[0]
    if len(where) != 1:
        raise ValueError("point is the center or not a cross point")
    chi = int(where[0])
    eta = int(round((point[chi] - cross.center[chi]) / cross.spacing))
    m = Marker(chi, eta)
    if not np.array_equal(point_of(cross, m), point):
        raise ValueError("point does not lie exactly on the cross")
    return m


def markers(cross: Cross) -> list[Marker]:
    """All n*K markers, cohort-major, offsets ascending (zero skipped)."""
    offs = _offsets(cross.points_per_cohort)
    return [Marker(chi, eta) for chi in range(cross.dimension) for eta in offs]


@cache
def _cohort_markers(k: int, chi: int) -> tuple[Marker, ...]:
    return tuple(Marker(chi, eta) for eta in _offsets(k))


def cohort_markers(cross: Cross, chi: int) -> list[Marker]:
    """The K markers of one cohort, offsets ascending."""
    if not 0 <= chi < cross.dimension:
        raise ValueError(f"cohort {chi} out of range for dimension {cross.dimension}")
    return list(_cohort_markers(cross.points_per_cohort, chi))


def recenter(cross: Cross, new_center: np.ndarray) -> Cross:
    new_center = np.asarray(new_center, dtype=np.float64)
    if new_center.shape != cross.center.shape:
        raise ValueError("new center has wrong dimension")
    return replace(cross, center=new_center)

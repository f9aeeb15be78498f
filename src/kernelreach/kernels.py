"""Kernel evaluation, the kernel-induced metric, and Gram matrices."""

import math
from dataclasses import dataclass

import numpy as np

ABEL = "abel"
GAUSSIAN = "gaussian"

_FAMILIES = (ABEL, GAUSSIAN)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth, in the same units as the state coordinates.

    The Abel kernel exp(-||x - y||/sigma) is the default; it is completely
    separating, so it can represent the boundary of any closed support.  The
    Gaussian kernel exp(-||x - y||^2 / (2 sigma^2)) is offered as well because
    the estimator only needs K(x, x) = 1 and positive definiteness, but no
    support-recovery guarantee is claimed for it.
    """

    family: str = ABEL
    bandwidth: float = 0.1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}"
            )
        bw = self.bandwidth
        number = isinstance(bw, (int, float)) and not isinstance(bw, bool)
        if not (number and math.isfinite(bw) and bw > 0):
            raise ValueError(f"bandwidth must be a positive finite number, got {bw!r}")


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel values over a point set.

    Symmetry and the unit diagonal are exact by construction: (a - b)^2 equals
    (b - a)^2 in IEEE arithmetic, and K(x, x) = K(0) = 1 for both kernels.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def kernel_value_at_distance(spec: KernelSpec, distance):
    """Kernel value as a function of Euclidean distance (scalar or array)."""
    d = np.asarray(distance, dtype=float)
    if spec.family == ABEL:
        return np.exp(-d / spec.bandwidth)
    return np.exp(-(d * d) / (2.0 * spec.bandwidth * spec.bandwidth))


def _as_point(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _as_points(points):
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1 and arr.size == 0:
        raise ValueError("empty point list")
    if arr.ndim != 2:
        raise ValueError("points must form an (M, n) array with a common dimension")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("points must form a nonempty (M, n) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points contain non-finite entries")
    return arr


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """K(x, y) for two state vectors; always in (0, 1].

    Symmetric in its arguments bit-for-bit: the coordinate differences enter
    only through their squares.
    """
    xv = _as_point(x, "x")
    yv = _as_point(y, "y")
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    diff = xv - yv
    return float(kernel_value_at_distance(spec, np.sqrt((diff * diff).sum())))


def kernel_metric(spec: KernelSpec, x, y) -> float:
    """Kernel-induced distance sqrt(K(x,x) + K(y,y) - 2 K(x,y)).

    Both families have unit diagonal, so this reduces to sqrt(2 - 2 K(x,y)),
    which lies in [0, sqrt(2)).
    """
    return float(np.sqrt(2.0 - 2.0 * kernel_eval(spec, x, y)))


def _distances(points, queries) -> np.ndarray:
    """Euclidean distances, shape (M, Q), summed one coordinate at a time."""
    p = _as_points(points)
    q = _as_points(queries)
    if p.shape[1] != q.shape[1]:
        raise ValueError(f"dimension mismatch: {p.shape[1]} vs {q.shape[1]}")
    total = np.zeros((p.shape[0], q.shape[0]))
    for k in range(p.shape[1]):
        diff = np.subtract.outer(p[:, k], q[:, k])
        total += np.square(diff, out=diff)
    return np.sqrt(total, out=total)


def kernel_matrix(spec: KernelSpec, points, queries) -> np.ndarray:
    """Cross kernel matrix with entries K(points[i], queries[j]), shape (M, Q)."""
    return kernel_value_at_distance(spec, _distances(points, queries))


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix of a point set: entries[i][j] = K(points[i], points[j])."""
    return GramMatrix(kernel_matrix(spec, points, points))

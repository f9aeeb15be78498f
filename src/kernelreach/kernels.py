"""Kernel evaluation, the kernel-induced metric, and Gram matrices."""

from dataclasses import dataclass

import numpy as np

from .schema import FieldError, positive_number

ABEL = "abel"
GAUSSIAN = "gaussian"

_FAMILIES = (ABEL, GAUSSIAN)

# Entries in one distance block (a Gram row block, a phi piece, a Hausdorff
# block): at 2**16 a kernel's two temporaries share a 2 MB L2.  Phi at M =
# 1600 for 2,500 nodes: 26-34 ms in such pieces, 64-69 ms in 256-column blocks.
_BLOCK_ENTRIES = 2**16


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
            raise FieldError("family", f"must be one of {_FAMILIES}, got {self.family!r}")
        bw = self.bandwidth
        if not positive_number(bw):
            raise FieldError("bandwidth", f"must be a positive finite number, got {bw!r}")


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel values over a point set.

    Symmetry and the unit diagonal are exact by construction: ``gram`` copies
    each entry below the diagonal from its mirror image, and K(x, x) = K(0)
    = 1 for both kernels.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _kernel_in_place(spec: KernelSpec, d: np.ndarray) -> np.ndarray:
    """Overwrite the distances ``d`` with their kernel values; returns ``d``.

    Abel is exp(-d / sigma), Gaussian exp(-d^2 / (2 sigma^2)), each step
    written back into ``d`` so no second array is allocated.  Dividing by
    -scale is the same bits as negating and then dividing by scale.
    """
    if spec.family == ABEL:
        scale = spec.bandwidth
    else:
        np.multiply(d, d, out=d)
        scale = 2.0 * spec.bandwidth * spec.bandwidth
    np.divide(d, -scale, out=d)
    return np.exp(d, out=d)


def _block_rows(length: int) -> int:
    """Rows of ``length`` entries in one distance block: _BLOCK_ENTRIES entries, or one row."""
    return max(1, _BLOCK_ENTRIES // length)


def kernel_value_at_distance(spec: KernelSpec, distance):
    """Kernel value as a function of Euclidean distance (scalar or array)."""
    return _kernel_in_place(spec, np.array(distance, dtype=float))[()]


def _as_points(points, name) -> np.ndarray:
    """``points`` as a float (M, n) array with M, n >= 1 and finite entries.

    The one check of a point array: every public entry point calls it once on
    its own arguments, and the loops inside trust what they are given.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{name} must form an (M, n) array of one width") from exc
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"{name} must form a nonempty (M, n) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contain non-finite entries")
    return arr


def _read_only_copy(values) -> np.ndarray:
    """A read-only float copy of ``values``: the caller's array stays writable and apart."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """K(x, y) for two nonempty state vectors of one length; always in (0, 1].

    The bits of kernel_matrix(spec, [x], [y]), and so of the Gram matrix and
    the classifier's phi: the distance is summed one coordinate at a time, as
    ``_distances`` sums it.  Symmetric in its arguments bit-for-bit: the
    coordinate differences enter only through their squares.
    """
    pts = _as_points((x, y), "x and y")
    return float(kernel_matrix(spec, pts[:1], pts[1:])[0, 0])


def _metric_of_value(value):
    """The kernel-induced distance sqrt(2 - 2 K) of a kernel value K (scalar or array)."""
    return np.sqrt(2.0 - 2.0 * value)


def kernel_metric(spec: KernelSpec, x, y) -> float:
    """Kernel-induced distance sqrt(K(x,x) + K(y,y) - 2 K(x,y)).

    Both families have unit diagonal, so this reduces to sqrt(2 - 2 K(x,y)),
    which lies in [0, sqrt(2)).
    """
    return float(_metric_of_value(kernel_eval(spec, x, y)))


def _distances(p, q) -> np.ndarray:
    """Euclidean distances, shape (M, Q), summed one coordinate at a time.

    Unchecked: callers pass float arrays of one width, checked by ``_as_points``.
    The first coordinate's square is written straight into the sum, which
    is the same bits as adding it to zeros.  Finite points far apart overflow
    to an infinite distance, whose kernel value is 0, so overflow is silent.
    """
    with np.errstate(over="ignore"):
        total = np.subtract.outer(p[:, 0], q[:, 0])
        np.square(total, out=total)
        diff = np.empty_like(total)
        for k in range(1, p.shape[1]):
            np.subtract.outer(p[:, k], q[:, k], out=diff)
            total += np.square(diff, out=diff)
        return np.sqrt(total, out=total)


def kernel_matrix(spec: KernelSpec, points, queries) -> np.ndarray:
    """Cross kernel matrix with entries K(points[i], queries[j]), shape (M, Q).

    The kernel overwrites the distance matrix, so building an (M, Q) matrix
    holds two (M, Q) arrays at its peak: the distances and one coordinate's
    differences.  Unchecked, as ``_distances`` is.
    """
    return _kernel_in_place(spec, _distances(points, queries))


def _gram_into(spec: KernelSpec, p, out) -> None:
    """Write the Gram matrix of the points ``p`` into the M x M array ``out``.

    Built _block_rows(M) rows at a time from the diagonal rightwards, each
    block's transpose copied into the rows below it, so the only temporary is
    one block.  Every entry is kernel_matrix(spec, p, p)'s bit for bit, since
    (a - b)^2 equals (b - a)^2.  Unchecked, as ``_distances`` is.
    """
    m = p.shape[0]
    height = _block_rows(m)
    for start in range(0, m, height):
        stop = min(start + height, m)
        rows = kernel_matrix(spec, p[start:stop], p[start:])
        out[start:stop, start:] = rows
        out[stop:, start:stop] = rows[:, stop - start :].T


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix of a point set: entries[i][j] = K(points[i], points[j]).

    One M x M array plus one distance block at its peak (see ``_gram_into``);
    the fit builds the same bits into its factorization buffer.
    """
    p = _as_points(points, "points")
    m = p.shape[0]
    entries = np.empty((m, m))
    _gram_into(spec, p, entries)
    return GramMatrix(entries)

"""Support classifier fit on terminal-state samples, with model persistence.

The classifier value at a query x is F(x) = phi' (G + M lambda I)^{-1} phi,
where phi_i = K(x_i, x) over the M training points and G is their Gram
matrix.  A point is declared inside the estimated support when F(x) is at
least the level min_i F(x_i), so every training point is contained by
construction; files and reports give tau = 1 - level.

A model is fixed by its support points, kernel and lambda: a SupportModel
derives the Cholesky factor, the training values and the level from those
three, whether it comes from ``fit``, from ``load_model`` or is built directly.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .atomic import write_json
from .kernels import (KernelSpec, _as_points, _block_rows, _gram_into, _read_only_copy,
                      kernel_matrix)
from .schema import ConfigError, FieldError, build, finite, json_object, load_json, positive_number

RECIPROCAL_M = "reciprocal-m"

MODEL_FORMAT_VERSION = 1

# Queries are solved against the Cholesky factor padded to an order that is a
# multiple of _PAD: L, then an identity block below and right of it, with the
# phi rows below M zero.  Queries and training values alike are solved in
# blocks of _query_block(order) = max(128, 16384 // order) columns; only the
# last block is narrower, as wide as its points but never narrower than
# _MIN_WIDTH, so one query solves 2 columns.  At a padded order OpenBLAS's
# triangular solve gave every column the same bits in every position of a
# block and at every width from 2 to 256 (SkylakeX core; every M from 1 to
# 1601 with 2 BLAS threads, every 7th with 1), so batched, chunked and
# one-at-a-time evaluation agree bitwise; padding to 16 or 32 gave the same
# bits as 8 there, at a larger solve.  Unpadded, a value's last bit depended
# on its column's position at most M above 384 that are not multiples of 8; a
# single column takes another kernel and other bits at most sizes.
#
# A wider solve costs less a column: at M = 1600, 48-49 us 64 wide, 39-42 us
# 128 wide and 34-39 us 256 wide with 2 BLAS threads (70, 61 and 58 us with
# one); phi is filled one distance block at a time at any width.  128 and not
# 256: a 256-column block takes a fit's traced peak at M = 1024 to 1.27 M^2
# doubles and a load's at M = 1021 to 1.29 padded ones, past the 1.25 their
# tests allow; at 128 both peaks are still the Gram build's, 1.20 and 1.21.
# Below order 128 a block is wider, holding _QUERY_ENTRIES entries, because
# there a solve costs its call, not its columns: 10,000 queries at M=3 took
# 10.9 ms in 64-column blocks and 1.9 ms in 2048-column ones.
_PAD = 8
_QUERY_BLOCK = 128
_QUERY_ENTRIES = 128 * 128
_MIN_WIDTH = 2

# Allowed gap between a model file's tau and the recomputed one (BLAS rounding).
_TAU_TOLERANCE = 1e-9


# What a corrupt, inconsistent or newer-format model file raises: the error of every input file.
ModelFormatError = ConfigError


@dataclass(frozen=True)
class SampleSet:
    """M terminal-state vectors of dimension n, rows drawn i.i.d. from a system."""

    points: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        pts = _as_points(self.points, "sample points")
        object.__setattr__(self, "points", _read_only_copy(pts))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Kernel choice plus the regularization rule.

    ``regularization`` is either a positive number or the string
    ``"reciprocal-m"``, which resolves to 1/M at fit time (the default; the
    regularization must vanish as M grows for the estimate to converge).
    """

    kernel: KernelSpec = KernelSpec()
    regularization: object = RECIPROCAL_M

    def __post_init__(self):
        reg = self.regularization
        if reg != RECIPROCAL_M and not positive_number(reg):
            raise FieldError(
                "regularization", f"must be a positive number or {RECIPROCAL_M!r}, got {reg!r}"
            )

    def resolve_lambda(self, sample_size: int) -> float:
        if self.regularization == RECIPROCAL_M:
            return 1.0 / sample_size
        return float(self.regularization)


@dataclass(frozen=True, eq=False)
class SupportModel:
    """Fitted support classifier: its support points, kernel and lambda.

    The constructor derives the rest from those three, as ``fit`` and
    ``load_model`` do: ``factor`` is the (M, M) lower Cholesky factor L of
    G + M lambda I, a read-only M x M view into the padded buffer the
    queries are solved against (see _query_block), ``train_values`` the M
    classifier values at the support points, read-only too, and ``level``
    their minimum, the membership threshold.  A model compares by identity.
    """

    support: np.ndarray
    kernel: KernelSpec
    lam: float
    factor: np.ndarray = field(init=False)
    train_values: np.ndarray = field(init=False)
    level: float = field(init=False)

    def __post_init__(self):
        # The query loop trusts the support, so it is checked here.
        support = _as_points(self.support, "support points")
        object.__setattr__(self, "support", _read_only_copy(support))
        if not isinstance(self.kernel, KernelSpec):
            raise FieldError("kernel", f"must be a KernelSpec, got {self.kernel!r}")
        if not positive_number(self.lam):
            raise FieldError("lam", f"must be a positive finite number, got {self.lam!r}")
        padded, values = _factorize(self.kernel, support, self.lam)
        padded.flags.writeable = False
        values.flags.writeable = False
        m = support.shape[0]
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "factor", padded[:m, :m])
        object.__setattr__(self, "train_values", values)
        object.__setattr__(self, "level", float(values.min()))

    @property
    def size(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @property
    def tau(self) -> float:
        """The margin 1 - level that model files store and commands print."""
        return 1.0 - self.level


def _padded_order(m: int) -> int:
    """M rounded up to a multiple of _PAD: the order the queries are solved at."""
    return -(-m // _PAD) * _PAD


def _query_block(order: int) -> int:
    """Columns a query block solves at a padded order: 128, or _QUERY_ENTRIES entries."""
    return max(_QUERY_BLOCK, _QUERY_ENTRIES // order)


def _quadratic_form(padded, m: int, count: int, fill) -> np.ndarray:
    """F = phi' (G + M lambda I)^{-1} phi at ``count`` points, as ||L^{-1} phi||^2.

    ``fill(start, stop, out)`` writes the phi columns of points start to stop
    into ``out``, an (M, stop - start) view of the first M rows of one
    Fortran-order buffer of the padded factor's order, whose other rows are
    zero.  It is called for pieces of at most _block_rows(M) columns, in
    increasing order, until a block of _query_block columns is full; the
    block, at least _MIN_WIDTH wide, is then solved against ``padded`` in
    place.  Only the first M rows are squared and summed, so each sum has M
    terms in the same order at every padding.  The sum of squares keeps
    every value nonnegative in floating point.
    """
    out = np.empty(count)
    block_width = _query_block(padded.shape[0])
    piece = _block_rows(m)
    phi = np.empty((padded.shape[0], min(block_width, max(count, _MIN_WIDTH))), order="F")
    for start in range(0, count, block_width):
        stop = min(start + block_width, count)
        width = stop - start
        block = phi[:, :max(width, _MIN_WIDTH)]
        for first in range(0, width, piece):
            last = min(first + piece, width)
            fill(start + first, start + last, block[:m, first:last])
        block[m:, :width] = 0.0
        block[:, width:] = 0.0
        if m == 1:
            # A one-point factor is a scalar l.  OpenBLAS's trsm kernel solves
            # by multiplying with 1/l, so this is the same bits; its LAPACK
            # trtrs would wake a second BLAS thread for each call, 4-6 ms a
            # call once the machine has idled.
            y = np.multiply(block, 1.0 / padded[0, 0], out=block)
        else:
            y = solve_triangular(padded, block, lower=True, overwrite_b=True, check_finite=False)
        y = y[:m, :width]
        out[start:stop] = np.multiply(y, y, out=y).sum(axis=0)
    return out


def _factorize(kernel: KernelSpec, support, lam: float):
    """Padded Cholesky factor of G + M lambda I, and the classifier at each support point.

    The buffer returned is the one _quadratic_form solves against: one zeroed
    array of the padded order, the only M x M array of a fit, with L in its
    first M rows and columns.  G is built into its first M^2 entries, as a
    Fortran-order M x M array, and LAPACK's dpotrf factors G + M lambda I
    there in place.  The lower dpotrf never references the strict upper
    triangle, so G's upper half survives it.  The columns are then moved to
    the padded stride, last first, and the padding set to zero rows and an
    identity block; L has the bits of an unpadded factorization.  Each
    training phi piece, G's columns start to stop, is written from the buffer
    straight into the solve block: the strict upper triangle, its mirror and
    the unit diagonal.  The triangular solve reads only the lower triangle,
    and once a piece is read its columns' strict upper triangle is zeroed;
    later pieces read only columns to their right.  dpotrf comes
    from scipy's OpenBLAS, as the triangular solves do; numpy bundles
    another, and the two libraries' thread pools slow each other down when
    calls alternate.  The matrix is positive definite for any lambda > 0; a
    failure means corrupt input.
    """
    m = support.shape[0]
    order = _padded_order(m)
    padded = np.zeros((order, order), order="F")
    flat = padded.reshape(-1, order="F")
    a = flat[:m * m].reshape((m, m), order="F")
    # Through the C-order view a.T each row block's stores are contiguous; G is
    # exactly symmetric, so a holds G as well.
    _gram_into(kernel, support, a.T)
    a[np.diag_indices(m)] += m * lam
    _, info = lapack.dpotrf(a, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"G + M lambda I is not positive definite (dpotrf info {info})"
        )
    if order > m:
        for j in range(m - 1, 0, -1):
            flat[j * order:j * order + m] = flat[j * m:j * m + m]
        padded[m:, :m] = 0.0
        pad = np.arange(m, order)
        padded[pad, pad] = 1.0
    factor = padded[:m, :m]

    def train_phi(start, stop, out):
        out[:start] = factor[:start, start:stop]
        square = factor[start:stop, start:stop]
        upper = np.triu(square, 1)
        np.add(upper, upper.T, out=out[start:stop])
        np.fill_diagonal(out[start:stop], 1.0)
        out[stop:] = factor[start:stop, stop:].T
        factor[:start, start:stop] = 0.0
        square -= upper  # G - G is +0.0 above the diagonal; L - 0 keeps L's bits

    return padded, _quadratic_form(padded, m, m, train_phi)


def fit(samples: SampleSet, config: FitConfig) -> SupportModel:
    """Fit the support classifier to a terminal-state sample.

    Factorizes G + M lambda I and evaluates the classifier at every training
    point; the model's level is the least of those values.
    """
    return SupportModel(samples.points, config.kernel, config.resolve_lambda(samples.size))


def _as_queries(model: SupportModel, points) -> np.ndarray:
    """Query points as a (Q, model.dim) array: a 1-d array is one point, an empty one none."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(0, model.dim) if pts.size == 0 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError(
            f"query points must have dimension {model.dim}, got shape {pts.shape}"
        )
    return _as_points(pts, "query points") if pts.size else pts


def decision_values(model: SupportModel, points) -> np.ndarray:
    """Classifier values at a batch of query points (always >= 0)."""
    pts = _as_queries(model, points)
    return _quadratic_form(
        model._padded,
        model.size,
        pts.shape[0],
        lambda start, stop, out: np.copyto(
            out, kernel_matrix(model.kernel, model.support, pts[start:stop])
        ),
    )


def decision_value(model: SupportModel, x) -> float:
    """Classifier value at a single query point."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise ValueError("query must be a 1-d vector")
    return float(decision_values(model, xv[None, :])[0])


def _inside(model: SupportModel, values, level=None):
    """Membership of classifier values: value >= the model's level (or ``level``)."""
    threshold = model.level if level is None else float(level)
    if not finite(threshold):
        raise ValueError(f"membership level must be finite, got {level!r}")
    return values >= threshold


def classify(model: SupportModel, x, level=None) -> bool:
    """True when x lies in the estimated support (classifier value >= model.level).

    ``level`` overrides the membership threshold for level-set exploration;
    no convergence guarantee is attached to levels other than the default.
    """
    return bool(_inside(model, decision_value(model, x), level))


def classify_batch(model: SupportModel, points, level=None) -> np.ndarray:
    """Elementwise classify; equals mapping classify over the points."""
    return _inside(model, decision_values(model, points), level)


def _support_checksum(support: np.ndarray) -> str:
    data = np.ascontiguousarray(support, dtype=float)
    return hashlib.sha256(data.tobytes()).hexdigest()


def save_model(model: SupportModel, path) -> None:
    """Write the model as a versioned JSON document.

    The factorization is not serialized; it is recomputed on load.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kernel_family": model.kernel.family,
        "bandwidth": float(model.kernel.bandwidth),
        "lambda": float(model.lam),
        "tau": float(model.tau),
        "m": model.size,
        "n": model.dim,
        "support": [float(v) for v in model.support.ravel()],
        "checksum": _support_checksum(model.support),
    }
    write_json(path, doc)


def load_model(path) -> SupportModel:
    """Load a model file, verify it, and rebuild the factorization; ``stored`` is its schema."""
    doc = json_object(load_json(path), path, "")
    version = doc.pop("format_version", None)
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"model file {path} has format version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )

    # Named as FitConfig and KernelSpec name them, so their FieldErrors name the field.
    def stored(family: str, bandwidth: float, regularization: float, tau: float, m: int, n: int,
               support: tuple[float, ...], checksum: str):
        config = FitConfig(KernelSpec(family, bandwidth), regularization)
        for name, size in (("m", m), ("n", n)):
            if size < 1:
                raise FieldError(name, f"must be at least 1, got {size}")
        points = np.asarray(support, dtype=float)
        if points.shape != (m * n,):
            raise FieldError("support", f"holds {points.size} values, expected m*n = {m * n}")
        points = points.reshape(m, n)
        if _support_checksum(points) != checksum:
            raise FieldError("support", "fails its checksum")
        return config, points, tau

    config, support, tau = build(
        stored, doc, path, "", names={"family": "kernel_family", "regularization": "lambda"}
    )
    # Outside build: a singular factorization is a numerical error, not a malformed file.
    model = SupportModel(support, config.kernel, config.resolve_lambda(support.shape[0]))
    if not abs(tau - model.tau) <= _TAU_TOLERANCE:
        raise ModelFormatError(
            f"{path}: field tau {tau!r} does not match "
            f"the tau {model.tau!r} recomputed from its support"
        )
    return model

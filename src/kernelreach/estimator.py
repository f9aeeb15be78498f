"""Support classifier fit on terminal-state samples, with model persistence.

The classifier value at a query x is F(x) = phi' (G + M lambda I)^{-1} phi,
where phi_i = K(x_i, x) over the M training points and G is their Gram
matrix.  A point is declared inside the estimated support when F(x) is at
least 1 - tau, with tau = 1 - min_i F(x_i) so that every training point is
contained by construction.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .atomic import atomic_write
from .kernels import KernelSpec, gram, kernel_matrix
from .schema import ConfigError, build, json_object, load_json

RECIPROCAL_M = "reciprocal-m"

MODEL_FORMAT_VERSION = 1

# Slack on the inside test so training points never flip under roundoff.
CLASSIFY_SLACK = 1e-12

# Queries are solved against the Cholesky factor in blocks of exactly this
# many right-hand-side columns (zero-padded at the tail).  A fixed block
# geometry keeps each column's arithmetic independent of batch size and
# ordering, so batched, chunked, and one-at-a-time evaluation agree bitwise.
_QUERY_BLOCK = 256

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
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("sample points must form a nonempty (M, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points contain non-finite entries")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

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
        if reg != RECIPROCAL_M and (
            isinstance(reg, (str, bool)) or not (np.isfinite(float(reg)) and float(reg) > 0)
        ):
            raise ValueError(
                f"regularization lambda must be a positive number or {RECIPROCAL_M!r}, "
                f"got {reg!r}"
            )

    def resolve_lambda(self, sample_size: int) -> float:
        if self.regularization == RECIPROCAL_M:
            return 1.0 / sample_size
        return float(self.regularization)


@dataclass(frozen=True)
class SupportModel:
    """Fitted support classifier.

    ``factor`` is the lower Cholesky factor L of G + M lambda I; it is
    recomputed from the support points when a model is loaded from disk.
    ``train_values`` holds the classifier value at each training point.
    """

    support: np.ndarray
    kernel: KernelSpec
    lam: float
    factor: np.ndarray
    train_values: np.ndarray

    def __post_init__(self):
        for arr in (self.support, self.factor, self.train_values):
            arr.flags.writeable = False

    @property
    def size(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @property
    def tau(self) -> float:
        """The margin 1 - min over training points of the classifier value."""
        return 1.0 - float(self.train_values.min())


def _quadratic_form(kernel: KernelSpec, support, factor, queries) -> np.ndarray:
    """F(x) = phi' (G + M lambda I)^{-1} phi at each query, as ||L^{-1} phi||^2.

    phi is built and solved _QUERY_BLOCK columns at a time.  The sum of
    squares keeps every value nonnegative in floating point.
    """
    out = np.empty(queries.shape[0])
    phi = np.zeros((support.shape[0], _QUERY_BLOCK))
    for start in range(0, queries.shape[0], _QUERY_BLOCK):
        chunk = queries[start : start + _QUERY_BLOCK]
        width = chunk.shape[0]
        phi[:, :width] = kernel_matrix(kernel, support, chunk)
        phi[:, width:] = 0.0
        y = solve_triangular(factor, phi, lower=True, check_finite=False)
        out[start : start + width] = (y * y).sum(axis=0)[:width]
    return out


def _factorize(kernel: KernelSpec, support, lam: float):
    """Cholesky factor of G + M lambda I, and the classifier at each support point.

    The matrix is positive definite for any lambda > 0; a failure means corrupt input.
    """
    m = support.shape[0]
    a = gram(kernel, support).entries.copy()
    a[np.diag_indices(m)] += m * lam
    factor = np.linalg.cholesky(a)
    return factor, _quadratic_form(kernel, support, factor, support)


def fit(samples: SampleSet, config: FitConfig) -> SupportModel:
    """Fit the support classifier to a terminal-state sample.

    Factorizes G + M lambda I and evaluates the classifier at every training
    point; the model's tau is 1 - min of those values.
    """
    lam = config.resolve_lambda(samples.size)
    factor, train_values = _factorize(config.kernel, samples.points, lam)
    return SupportModel(samples.points.copy(), config.kernel, lam, factor, train_values)


def _as_queries(model: SupportModel, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(0, model.dim) if pts.size == 0 else pts[None, :]
    if pts.ndim != 2 or (pts.size and pts.shape[1] != model.dim):
        raise ValueError(
            f"query points must have dimension {model.dim}, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points contain non-finite entries")
    return pts


def decision_values(model: SupportModel, points) -> np.ndarray:
    """Classifier values at a batch of query points (always >= 0)."""
    pts = _as_queries(model, points)
    return _quadratic_form(model.kernel, model.support, model.factor, pts)


def decision_value(model: SupportModel, x) -> float:
    """Classifier value at a single query point."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise ValueError("query must be a 1-d vector")
    return float(decision_values(model, xv[None, :])[0])


def decision_threshold(model: SupportModel) -> float:
    """The fitted margin tau = 1 - min over training points of the classifier."""
    return model.tau


def _inside(model: SupportModel, values, level=None):
    """Membership of classifier values: value >= 1 - tau (or ``level``), less slack."""
    threshold = (1.0 - model.tau) if level is None else float(level)
    return values >= threshold - CLASSIFY_SLACK


def classify(model: SupportModel, x, level=None) -> bool:
    """True when x lies in the estimated support (classifier value >= 1 - tau).

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

    Support coordinates are stored as shortest round-trip decimals, so the
    loaded array matches the saved one bit-for-bit; the factorization is not
    serialized and is recomputed on load.
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
    with atomic_write(path) as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> SupportModel:
    """Load a model file, verify it, and rebuild the factorization; ``stored`` is its schema."""
    doc = json_object(load_json(path), path, "")
    version = doc.pop("format_version", None)
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"model file {path} has format version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )

    def stored(kernel_family: str, bandwidth: float, lam: float, tau: float, m: int, n: int,
               support: tuple, checksum: str):
        config = FitConfig(KernelSpec(kernel_family, bandwidth), lam)
        points = np.asarray(support, dtype=float)
        if m < 1 or n < 1 or points.shape != (m * n,):
            raise ValueError(f"field support holds {points.size} values, expected m*n = {m * n}")
        points = points.reshape(m, n)
        if _support_checksum(points) != checksum:
            raise ValueError("field support fails its checksum")
        return config, points, tau

    config, support, tau = build(stored, doc, path, "", names={"lam": "lambda"})
    # Outside build: a singular factorization is a numerical error, not a malformed file.
    kernel, lam = config.kernel, config.resolve_lambda(support.shape[0])
    model = SupportModel(support, kernel, lam, *_factorize(kernel, support, lam))
    if not abs(tau - model.tau) <= _TAU_TOLERANCE:
        raise ModelFormatError(
            f"{path}: field tau {tau!r} does not match "
            f"the tau {model.tau!r} recomputed from its support"
        )
    return model

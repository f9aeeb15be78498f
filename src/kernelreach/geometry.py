"""Validation geometry: grid evaluation, contours, Hausdorff distances, sweeps."""

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .atomic import write_csv, write_json
from .estimator import (
    RECIPROCAL_M,
    FitConfig,
    SampleSet,
    SupportModel,
    classify_batch,
    decision_values,
    fit,
)
from .kernels import (KernelSpec, _as_points, _block_rows, _distances, _metric_of_value,
                      kernel_value_at_distance)
from .schema import FieldError, finite
from .systems import (REFERENCE_SIZE, REFERENCE_STREAM, SystemConfig, child_seed,
                      sample_terminal_states)


@dataclass(frozen=True)
class GridSpec:
    """A 2-d evaluation grid through an n-dimensional state space.

    Coordinates ``dim_i`` and ``dim_j`` sweep linearly spaced values over
    ``range_i`` x ``range_j``; every other coordinate is held at its entry in
    ``fixed``.
    """

    dim_i: int
    dim_j: int
    fixed: tuple[float, ...]
    range_i: tuple[float, ...]
    range_j: tuple[float, ...]
    resolution_i: int = 100
    resolution_j: int = 100

    def __post_init__(self):
        for name in ("fixed", "range_i", "range_j"):
            values = getattr(self, name)
            if name != "fixed" and len(values) != 2:
                raise FieldError(name, f"must hold exactly two numbers, got {values!r}")
            if not all(finite(v) for v in values):
                raise FieldError(name, f"must be finite, got {values!r}")
        fixed = tuple(float(v) for v in self.fixed)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "range_i", (float(self.range_i[0]), float(self.range_i[1])))
        object.__setattr__(self, "range_j", (float(self.range_j[0]), float(self.range_j[1])))
        for name in ("dim_i", "dim_j"):
            index = getattr(self, name)
            if not 0 <= index < len(fixed):
                raise FieldError(name, f"must index a coordinate of fixed, got {index}")
        if self.dim_i == self.dim_j:
            raise FieldError("dim_j", f"must differ from dim_i, got {self.dim_j} for both")
        for name in ("resolution_i", "resolution_j"):
            if getattr(self, name) < 2:
                raise FieldError(name, f"must be at least 2, got {getattr(self, name)}")
        for name in ("range_i", "range_j"):
            low, high = getattr(self, name)
            if not low < high:
                raise FieldError(name, f"must run from low to high, got [{low}, {high}]")

    @property
    def dim(self) -> int:
        return len(self.fixed)

    def axis_i(self) -> np.ndarray:
        return np.linspace(self.range_i[0], self.range_i[1], self.resolution_i)

    def axis_j(self) -> np.ndarray:
        return np.linspace(self.range_j[0], self.range_j[1], self.resolution_j)

    def cell_area(self) -> float:
        step_i = (self.range_i[1] - self.range_i[0]) / (self.resolution_i - 1)
        step_j = (self.range_j[1] - self.range_j[0]) / (self.resolution_j - 1)
        return step_i * step_j


def grid_nodes(grid: GridSpec) -> np.ndarray:
    """All grid nodes as an (resolution_i * resolution_j, n) array.

    Node (a, b) sits at row a * resolution_j + b, matching the row-major
    layout of the value matrices produced by grid_decision_values.
    """
    xs = grid.axis_i()
    ys = grid.axis_j()
    nodes = np.tile(np.asarray(grid.fixed), (grid.resolution_i * grid.resolution_j, 1))
    nodes[:, grid.dim_i] = np.repeat(xs, grid.resolution_j)
    nodes[:, grid.dim_j] = np.tile(ys, grid.resolution_i)
    return nodes


def grid_decision_values(model: SupportModel, grid: GridSpec) -> np.ndarray:
    """Classifier values on the grid; entry (a, b) is node (axis_i[a], axis_j[b])."""
    if grid.dim != model.dim:
        raise ValueError(
            f"grid is {grid.dim}-dimensional but the model expects {model.dim}"
        )
    values = decision_values(model, grid_nodes(grid))
    return values.reshape(grid.resolution_i, grid.resolution_j)


@dataclass(frozen=True)
class ContourSet:
    """Level-curve segments in the (dim_i, dim_j) plane.

    ``segments`` has shape (S, 2, 2): segment s runs from segments[s, 0] to
    segments[s, 1], and every endpoint lies on a grid cell edge.
    """

    segments: np.ndarray
    level: float

    def __post_init__(self):
        seg = np.asarray(self.segments, dtype=float).reshape(-1, 2, 2)
        seg.flags.writeable = False
        object.__setattr__(self, "segments", seg)


# Edge pairs per marching-squares case, indexed by case + 16 * (cell mean >=
# level).  Corners are numbered 0:(a,b) 1:(a+1,b) 2:(a+1,b+1) 3:(a,b+1); the
# case sets bit k when corner k is inside.  Edges are numbered 1:(0-1) 2:(1-2)
# 3:(2-3) 4:(3-0), and 0 pads a case with one segment.  Rows 16-31 repeat rows
# 0-15, except that the two saddles, 5 and 10, take each other's segments.
_CASE_EDGES = np.array([
    [[0, 0], [0, 0]], [[4, 1], [0, 0]], [[1, 2], [0, 0]], [[4, 2], [0, 0]],
    [[2, 3], [0, 0]], [[4, 1], [2, 3]], [[1, 3], [0, 0]], [[3, 4], [0, 0]],
    [[3, 4], [0, 0]], [[1, 3], [0, 0]], [[1, 2], [3, 4]], [[2, 3], [0, 0]],
    [[4, 2], [0, 0]], [[1, 2], [0, 0]], [[4, 1], [0, 0]], [[0, 0], [0, 0]],
])
_CASE_EDGES = np.concatenate(
    (_CASE_EDGES, _CASE_EDGES[[0, 1, 2, 3, 4, 10, 6, 7, 8, 9, 5, 11, 12, 13, 14, 15]])
)

# Node offsets (da, db) of the two corners of each edge, by edge number; the
# pad row 0 is never read.
_EDGE_NODES = np.array([
    [[0, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [1, 1]], [[1, 1], [0, 1]], [[0, 1], [0, 0]],
])


def extract_contour(values, grid: GridSpec, level: float) -> ContourSet:
    """Marching-squares level curve of a grid value matrix.

    A node with value exactly equal to the level counts as inside.  The two
    ambiguous saddle configurations are resolved by comparing the cell's mean
    value against the level.  Segments come cell by cell in row-major order.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.resolution_i, grid.resolution_j):
        raise ValueError(
            f"value matrix shape {v.shape} does not match the grid "
            f"({grid.resolution_i}, {grid.resolution_j})"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("grid values must be finite")
    if not finite(level):
        raise ValueError(f"contour level must be finite, got {level!r}")

    inside = v >= level
    c0 = inside[:-1, :-1]
    c1 = inside[1:, :-1]
    c2 = inside[1:, 1:]
    c3 = inside[:-1, 1:]
    mixed = ~((c0 & c1 & c2 & c3) | ~(c0 | c1 | c2 | c3))

    a, b = np.nonzero(mixed)
    case = c0[a, b] + 2 * c1[a, b] + 4 * c2[a, b] + 8 * c3[a, b]
    mean = (((v[a, b] + v[a + 1, b]) + v[a + 1, b + 1]) + v[a, b + 1]) / 4.0
    edges = _CASE_EDGES[case + 16 * (mean >= level)]
    cell, pair = np.nonzero(edges[:, :, 0])
    # (segment, endpoint, corner of its edge): the nodes at both ends of each cut edge.
    nodes = _EDGE_NODES[edges[cell, pair]]
    node_a = a[cell, None, None] + nodes[..., 0]
    node_b = b[cell, None, None] + nodes[..., 1]
    vi, vj = np.moveaxis(v[node_a, node_b], -1, 0)
    t = (level - vi) / (vj - vi)
    xi, xj = np.moveaxis(grid.axis_i()[node_a], -1, 0)
    yi, yj = np.moveaxis(grid.axis_j()[node_b], -1, 0)
    return ContourSet(np.stack((xi + t * (xj - xi), yi + t * (yj - yi)), axis=-1), level)


def _as_cloud(points, name):
    """A point cloud as an (M, n) array; a 1-d array is M scalar points."""
    arr = np.asarray(points, dtype=float)
    return _as_points(arr[:, None] if arr.ndim == 1 else arr, name)


def _in_metric(distance, metric) -> float:
    # sqrt(2 - 2 K(d)) is nondecreasing in d, so it maps the Euclidean max-min
    # onto the kernel-metric max-min.
    if isinstance(metric, KernelSpec):
        return float(_metric_of_value(kernel_value_at_distance(metric, distance)))
    if metric != "euclidean":
        raise ValueError(f"metric must be 'euclidean' or a KernelSpec, got {metric!r}")
    return float(distance)


def _nearest(a, b):
    """Distance from each point of ``a`` to its nearest in ``b``, and from each of ``b`` to ``a``.

    Distances are taken _block_rows(len(b)) rows of ``a`` at a time, so no
    (len(a), len(b)) matrix is built.  Each distance is the same arithmetic in
    any block and min is exact, so the result does not depend on the blocks.
    """
    a, b = _as_cloud(a, "a"), _as_cloud(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    rows = _block_rows(b.shape[0])
    to_b = np.empty(a.shape[0])
    to_a = np.full(b.shape[0], np.inf)
    for start in range(0, a.shape[0], rows):
        d = _distances(a[start : start + rows], b)
        d.min(axis=1, out=to_b[start : start + rows])
        np.minimum(to_a, d.min(axis=0), out=to_a)
    return to_b, to_a


def directed_hausdorff(a, b, metric="euclidean") -> float:
    """max over points of ``a`` of the distance to the nearest point of ``b``."""
    to_b, _ = _nearest(a, b)
    return _in_metric(to_b.max(), metric)


def hausdorff(a, b, metric="euclidean") -> float:
    """Symmetric Hausdorff distance: the larger of the two directed distances."""
    to_b, to_a = _nearest(a, b)
    return _in_metric(max(to_b.max(), to_a.max()), metric)


def containment_rate(model: SupportModel, points) -> float:
    """Fraction of a fresh point cloud classified inside the estimated set.

    Points are read as ``classify_batch`` reads them: a 1-d array is one point.
    """
    inside = classify_batch(model, points)
    if inside.size == 0:
        raise ValueError("containment rate needs a nonempty point cloud")
    return float(inside.mean())


def symmetric_difference_area(inside_a, inside_b, grid: GridSpec) -> float:
    """Area where two node indicator masks disagree, as count x cell area."""
    a = np.asarray(inside_a, dtype=bool).ravel()
    b = np.asarray(inside_b, dtype=bool).ravel()
    if a.shape != b.shape:
        raise ValueError("indicator masks must have equal size")
    return float((a != b).sum()) * grid.cell_area()


def uniform_disk_sampler(center=(0.0, 0.0), radius=1.0):
    """Sampler of uniform draws from a disk, for synthetic convergence studies."""
    c = np.asarray(center, dtype=float)

    def sampler(count, seed):
        rng = np.random.default_rng(seed)
        r = radius * np.sqrt(rng.uniform(size=count))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return c + np.column_stack((r * np.cos(theta), r * np.sin(theta)))

    return sampler


@dataclass(frozen=True)
class SweepRow:
    m: int
    seed: int
    tau: float
    sym_diff_area: float  # None when no analytic truth was supplied
    hausdorff_to_reference: float


def convergence_sweep(
    generator,
    m_list,
    seeds,
    kernel: KernelSpec = KernelSpec(),
    truth=None,
    truth_grid: GridSpec = None,
    fresh_size: int = REFERENCE_SIZE,
):
    """Empirical convergence study over increasing sample sizes.

    ``generator`` is either a SystemConfig or a callable ``(count, seed) ->
    points``, which must be a pure function of (count, seed): the same
    arguments give the same points.  Each (M, seed) entry fits with
    regularization 1/M, records tau, compares against an analytic truth
    indicator on ``truth_grid`` when one is supplied (symmetric-difference
    area of the node indicators), and always records the kernel-metric
    Hausdorff distance between a fresh reference sample and the training
    cloud.  The reference sample depends on the seed alone, so it is drawn
    once per distinct seed.  Under a SystemConfig each M's sample is the
    prefix of the largest M's (see ``sample_terminal_states``), so that is
    simulated once per seed.  Rows are ordered by (M, seed).
    """
    m_values = [int(m) for m in m_list]
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError("sample sizes must be strictly ascending")
    if m_values and m_values[0] < 1:
        raise ValueError(f"sample sizes must be at least 1, got {m_values}")
    seed_values = [int(seed) for seed in seeds]
    if any(seed < 0 for seed in seed_values):
        raise ValueError(f"seeds must be nonnegative, got {seed_values}")
    if truth is not None and truth_grid is None:
        raise ValueError("an analytic truth needs a truth_grid to compare on")

    if isinstance(generator, SystemConfig):
        def sampler(count, seed):
            return sample_terminal_states(generator, count, seed).points

        largest = {}

        def training(count, seed):
            # sample i runs on its own stream: a smaller M's sample is a prefix
            if seed not in largest:
                largest[seed] = sampler(m_values[-1], seed)
            return largest[seed][:count]
    else:
        sampler = training = generator

    if truth is not None:
        nodes = grid_nodes(truth_grid)
        actual = np.asarray(truth(nodes), dtype=bool)

    fresh = {seed: np.asarray(sampler(fresh_size, child_seed(seed, REFERENCE_STREAM)), dtype=float)
             for seed in set(seed_values)}
    rows = []
    for m in m_values:
        for seed in seed_values:
            points = np.asarray(training(m, seed), dtype=float)
            model = fit(SampleSet(points, provenance=f"sweep M={m} seed={seed}"),
                        FitConfig(kernel, RECIPROCAL_M))
            area = None
            if truth is not None:
                estimated = classify_batch(model, nodes)
                area = symmetric_difference_area(estimated, actual, truth_grid)
            rows.append(
                SweepRow(
                    m=m,
                    seed=seed,
                    tau=model.tau,
                    sym_diff_area=area,
                    hausdorff_to_reference=hausdorff(fresh[seed], points, metric=kernel),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def write_contour_csv(contour: ContourSet, path) -> None:
    """Segments as CSV rows x1a,x2a,x1b,x2b."""
    write_csv(path, ("x1a", "x2a", "x1b", "x2b"), (seg.ravel() for seg in contour.segments))


def write_contour_sidecar(contour: ContourSet, grid: GridSpec, tau: float, path) -> None:
    doc = {"level": float(contour.level), "tau": float(tau), "grid": asdict(grid)}
    write_json(path, doc, indent=2)


def write_sweep_csv(rows, path) -> None:
    """One CSV row per ``SweepRow``, its fields as the columns."""
    write_csv(path, [f.name for f in fields(SweepRow)], (astuple(row) for row in rows))

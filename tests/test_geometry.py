import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelreach import (
    FitConfig,
    GridSpec,
    KernelSpec,
    SampleSet,
    SystemConfig,
    BoxInitial,
    CwhSystem,
    PointInitial,
    child_seed,
    containment_rate,
    convergence_sweep,
    decision_value,
    decision_values,
    directed_hausdorff,
    extract_contour,
    fit,
    grid_decision_values,
    grid_nodes,
    hausdorff,
    kernel_eval,
    kernel_metric,
    sample_terminal_states,
    symmetric_difference_area,
    uniform_disk_sampler,
)
from kernelreach import geometry, kernels, systems
from kernelreach.kernels import _distances
from kernelreach.schema import FieldError


def _unit_square_grid(res=2, n=2, lo=0.0, hi=1.0):
    return GridSpec(
        dim_i=0,
        dim_j=1,
        fixed=(0.0,) * n,
        range_i=(lo, hi),
        range_j=(lo, hi),
        resolution_i=res,
        resolution_j=res,
    )


def _random_model(seed, m=25, n=2, bandwidth=0.3):
    rng = np.random.default_rng(seed)
    samples = SampleSet(rng.normal(size=(m, n)))
    return samples, fit(samples, FitConfig(KernelSpec("abel", bandwidth)))


# ---------------------------------------------------------------------------
# Grid evaluation
# ---------------------------------------------------------------------------


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, (0.0, 0.0), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        GridSpec(0, 1, (0.0, 0.0), (1, 1), (0, 1))
    with pytest.raises(ValueError):
        GridSpec(0, 1, (0.0, 0.0), (0, 1), (0, 1), resolution_i=1)
    with pytest.raises(ValueError):
        GridSpec(0, 3, (0.0, 0.0), (0, 1), (0, 1))
    with pytest.raises(FieldError, match=r"fixed must be finite, got \(0.0, nan\)"):
        GridSpec(0, 1, (0.0, math.nan), (0, 1), (0, 1))
    with pytest.raises(FieldError, match="^fixed must be finite"):
        GridSpec(0, 1, (0.0, 10**400), (0, 1), (0, 1))
    with pytest.raises(FieldError, match=r"range_i must be finite, got \(-inf, 1.0\)"):
        GridSpec(0, 1, (0.0, 0.0), (-math.inf, 1.0), (0, 1))
    with pytest.raises(FieldError, match=r"range_j must be finite, got \(0.0, nan\)"):
        GridSpec(0, 1, (0.0, 0.0), (0, 1), (0.0, math.nan))
    with pytest.raises(ValueError, match="range_i must hold exactly two numbers"):
        GridSpec(0, 1, (0.0, 0.0), (0, 1, 7), (0, 1))
    with pytest.raises(ValueError, match="range_j must hold exactly two numbers"):
        GridSpec(0, 1, (0.0, 0.0), (0, 1), (0.5,))


def test_grid_values_single_point_closed_form():
    # each node value is K(x1, node)^2 / (1 + lambda)
    spec = KernelSpec("abel", 0.1)
    samples = SampleSet(np.array([[0.4, 0.6]]))
    model = fit(samples, FitConfig(spec, 1.0))
    grid = _unit_square_grid(res=2)
    values = grid_decision_values(model, grid)
    for a, xi in enumerate(grid.axis_i()):
        for b, yj in enumerate(grid.axis_j()):
            expected = kernel_eval(spec, samples.points[0], [xi, yj]) ** 2 / 2.0
            assert values[a, b] == pytest.approx(expected, abs=1e-12)


def test_grid_values_match_sequential_queries():
    _, model = _random_model(1)
    grid = GridSpec(0, 1, (0.0, 0.0), (-2, 2), (-1, 3), resolution_i=13, resolution_j=9)
    values = grid_decision_values(model, grid)
    sequential = np.array([decision_value(model, node) for node in grid_nodes(grid)])
    assert np.array_equal(values, sequential.reshape(13, 9))


def test_grid_node_on_support_point_matches_train_value():
    samples, model = _random_model(2, m=8)
    target = samples.points[3]
    grid = GridSpec(
        0, 1, tuple(target),
        range_i=(target[0], target[0] + 1.0),
        range_j=(target[1], target[1] + 1.0),
        resolution_i=2, resolution_j=2,
    )
    values = grid_decision_values(model, grid)
    assert abs(values[0, 0] - model.train_values[3]) <= 1e-12


def test_grid_rejects_dimension_mismatch():
    _, model = _random_model(3, n=2)
    grid = GridSpec(0, 1, (0.0, 0.0, 0.0), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        grid_decision_values(model, grid)


# ---------------------------------------------------------------------------
# Contour extraction
# ---------------------------------------------------------------------------


def test_contour_empty_when_all_inside_or_outside():
    grid = _unit_square_grid(res=4)
    assert extract_contour(np.full((4, 4), 2.0), grid, 0.5).segments.shape == (0, 2, 2)
    assert extract_contour(np.zeros((4, 4)), grid, 0.5).segments.shape == (0, 2, 2)


def test_contour_single_corner_case():
    # one corner below the level: a single segment cut by linear interpolation
    grid = _unit_square_grid(res=2)
    values = np.array([[0.0, 1.0], [1.0, 1.0]])  # corner (0, 0) outside
    contour = extract_contour(values, grid, 0.5)
    assert contour.segments.shape == (1, 2, 2)
    endpoints = {tuple(p) for p in contour.segments[0]}
    # crossings at the midpoints of the two edges adjacent to (0, 0)
    assert endpoints == {(0.5, 0.0), (0.0, 0.5)}


def test_contour_endpoints_lie_on_cell_edges():
    rng = np.random.default_rng(4)
    grid = _unit_square_grid(res=6)
    values = rng.uniform(size=(6, 6))
    contour = extract_contour(values, grid, 0.5)
    xs = grid.axis_i()
    ys = grid.axis_j()
    for seg in contour.segments:
        for x, y in seg:
            on_x = np.any(np.isclose(x, xs, atol=1e-12))
            on_y = np.any(np.isclose(y, ys, atol=1e-12))
            assert on_x or on_y


def test_contour_saddle_resolved_by_cell_mean():
    grid = _unit_square_grid(res=2)
    # opposite corners inside, cell mean above the level: outside corners get isolated
    high = np.array([[1.0, 0.2], [0.2, 1.0]])
    contour = extract_contour(high, grid, 0.5)
    assert contour.segments.shape == (2, 2, 2)
    # same corner pattern but mean below the level: inside corners get isolated
    low = np.array([[0.6, 0.0], [0.0, 0.6]])
    contour_low = extract_contour(low, grid, 0.5)
    assert contour_low.segments.shape == (2, 2, 2)
    # the two resolutions pick different edge pairings
    first = {tuple(sorted(map(tuple, seg))) for seg in contour.segments}
    second = {tuple(sorted(map(tuple, seg))) for seg in contour_low.segments}
    assert first != second


def test_contour_tie_counts_as_inside():
    grid = _unit_square_grid(res=2)
    at_level = np.array([[0.5, 0.0], [0.0, 0.0]])
    assert extract_contour(at_level, grid, 0.5).segments.shape == (1, 2, 2)
    below = np.array([[0.5 - 1e-9, 0.0], [0.0, 0.0]])
    assert extract_contour(below, grid, 0.5).segments.shape == (0, 2, 2)


def test_contour_stable_under_tiny_perturbation():
    rng = np.random.default_rng(5)
    grid = _unit_square_grid(res=8)
    values = rng.uniform(size=(8, 8))
    values[np.abs(values - 0.5) < 1e-3] += 2e-3  # keep clear of exact ties
    base = extract_contour(values, grid, 0.5)
    shifted = extract_contour(values + 1e-16, grid, 0.5)
    assert base.segments.shape == shifted.segments.shape
    assert np.allclose(base.segments, shifted.segments, atol=1e-12)


def test_contour_circle_fidelity():
    # radial field 1 - ||p||: the 0.5 level curve is the circle of radius 0.5
    res = 200
    grid = GridSpec(0, 1, (0.0, 0.0), (-1.0, 1.0), (-1.0, 1.0),
                    resolution_i=res, resolution_j=res)
    nodes = grid_nodes(grid)
    values = (1.0 - np.linalg.norm(nodes, axis=1)).reshape(res, res)
    contour = extract_contour(values, grid, 0.5)
    assert contour.segments.shape[0] > 0
    cell_diag = math.hypot(2.0 / (res - 1), 2.0 / (res - 1))
    radii = np.linalg.norm(contour.segments.reshape(-1, 2), axis=1)
    assert np.max(np.abs(radii - 0.5)) <= cell_diag


def test_contour_rejects_bad_values():
    grid = _unit_square_grid(res=3)
    with pytest.raises(ValueError):
        extract_contour(np.zeros((2, 2)), grid, 0.5)
    with pytest.raises(ValueError):
        extract_contour(np.full((3, 3), np.nan), grid, 0.5)
    for level in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="contour level must be finite"):
            extract_contour(np.zeros((3, 3)), grid, level)


# Segment endpoints per marching-squares case in the reference loop, saddles
# excluded.  Corners are 0:(a,b) 1:(a+1,b) 2:(a+1,b+1) 3:(a,b+1); edges are
# 0:(0-1) 1:(1-2) 2:(2-3) 3:(3-0).
_REFERENCE_CASE_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 6: ((0, 2),), 7: ((2, 3),),
    8: ((2, 3),), 9: ((0, 2),), 11: ((1, 2),), 12: ((3, 1),), 13: ((0, 1),), 14: ((3, 0),),
}
_REFERENCE_EDGE_CORNERS = ((0, 1), (1, 2), (2, 3), (3, 0))


def _reference_edge_crossing(edge, corner_vals, corner_pts, level):
    i, j = _REFERENCE_EDGE_CORNERS[edge]
    vi, vj = corner_vals[i], corner_vals[j]
    t = (level - vi) / (vj - vi)
    pi, pj = corner_pts[i], corner_pts[j]
    return (pi[0] + t * (pj[0] - pi[0]), pi[1] + t * (pj[1] - pi[1]))


def _reference_contour(values, grid, level):
    """The per-cell loop the table lookup replaced: one mixed cell at a time."""
    v = np.asarray(values, dtype=float)
    xs = grid.axis_i()
    ys = grid.axis_j()
    segments = []
    for a in range(v.shape[0] - 1):
        for b in range(v.shape[1] - 1):
            corner_vals = (v[a, b], v[a + 1, b], v[a + 1, b + 1], v[a, b + 1])
            corner_pts = ((xs[a], ys[b]), (xs[a + 1], ys[b]),
                          (xs[a + 1], ys[b + 1]), (xs[a], ys[b + 1]))
            mask = sum(1 << k for k, value in enumerate(corner_vals) if value >= level)
            if mask == 0 or mask == 15:
                continue
            if mask == 5 or mask == 10:
                center_inside = (sum(corner_vals) / 4.0) >= level
                if (mask == 5) == center_inside:
                    pairs = ((0, 1), (2, 3))
                else:
                    pairs = ((3, 0), (1, 2))
            else:
                pairs = _REFERENCE_CASE_SEGMENTS[mask]
            for e_first, e_second in pairs:
                segments.append((
                    _reference_edge_crossing(e_first, corner_vals, corner_pts, level),
                    _reference_edge_crossing(e_second, corner_vals, corner_pts, level),
                ))
    return np.asarray(segments, dtype=float).reshape(-1, 2, 2)


_CONTOUR_VALUES = {
    "uniform": lambda rng, shape: rng.uniform(size=shape),
    "normal": lambda rng, shape: rng.normal(size=shape),
    "ties": lambda rng, shape: rng.choice([0.0, 0.5, 1.0], size=shape),
    "signed zeros": lambda rng, shape: rng.choice([-0.0, 0.0], size=shape),
    "tiny": lambda rng, shape: rng.choice([-1e-300, -0.0, 0.0, 1e-300], size=shape),
}


@pytest.mark.parametrize("kind", sorted(_CONTOUR_VALUES))
def test_contour_matches_reference_loop_bitwise(kind):
    # segments, their order and every bit of every endpoint equal the per-cell loop's
    rng = np.random.default_rng(sorted(_CONTOUR_VALUES).index(kind))
    shapes = [(2, 2), (2, 3), (3, 2), (5, 9), (17, 4), (12, 31), (45, 45)]
    for res_i, res_j in shapes:
        lo_i, lo_j = rng.uniform(-2.0, 0.0, size=2)
        grid = GridSpec(0, 1, (0.0, 0.0), (lo_i, lo_i + rng.uniform(0.1, 3.0)),
                        (lo_j, lo_j + rng.uniform(0.1, 3.0)), res_i, res_j)
        values = _CONTOUR_VALUES[kind](rng, (res_i, res_j))
        node = values[rng.integers(res_i), rng.integers(res_j)]
        for level in (0.0, -0.0, 0.5, 1e-300, node, rng.uniform(values.min(), values.max())):
            contour = extract_contour(values, grid, level)
            expected = _reference_contour(values, grid, level)
            assert contour.level is level
            assert contour.segments.shape == expected.shape
            assert contour.segments.tobytes() == expected.tobytes()


def test_contour_saddle_mean_sums_corners_in_order():
    # summed corner by corner, 0 to 3, this saddle's mean reaches the level; summed
    # in pairs it falls one bit short, and the cell takes the other edge pairing
    grid = _unit_square_grid(res=2)
    values = np.array([[0.8, 0.2], [0.05, 0.6]])
    level = 0.41250000000000003
    assert ((0.8 + 0.6) + (0.05 + 0.2)) / 4.0 < level
    contour = extract_contour(values, grid, level)
    assert contour.segments.tobytes() == _reference_contour(values, grid, level).tobytes()


# ---------------------------------------------------------------------------
# Hausdorff distances
# ---------------------------------------------------------------------------


def _brute_force_directed(a, b, spec=None):
    worst = 0.0
    for p in a:
        best = math.inf
        for q in b:
            if spec is None:
                d = float(np.sqrt(((np.asarray(p) - np.asarray(q)) ** 2).sum()))
            else:
                d = kernel_metric(spec, p, q)
            best = min(best, d)
        worst = max(worst, best)
    return worst


def test_hausdorff_identical_clouds():
    pts = np.random.default_rng(6).normal(size=(10, 3))
    assert hausdorff(pts, pts) == 0.0
    assert directed_hausdorff(pts, pts) == 0.0


def test_hausdorff_one_dimensional_points():
    assert hausdorff(np.array([[0.0]]), np.array([[3.0]])) == 3.0


def test_hausdorff_matches_brute_force_exactly():
    rng = np.random.default_rng(7)
    for n in (2, 4):
        a = rng.normal(size=(20, n))
        b = rng.normal(size=(17, n))
        assert directed_hausdorff(a, b) == _brute_force_directed(a, b)
        assert directed_hausdorff(b, a) == _brute_force_directed(b, a)
        assert hausdorff(a, b) == max(_brute_force_directed(a, b), _brute_force_directed(b, a))

        for spec in (KernelSpec("abel", 0.5), KernelSpec("gaussian", 0.5)):
            assert directed_hausdorff(a, b, metric=spec) == _brute_force_directed(a, b, spec)
            assert hausdorff(a, b, metric=spec) == max(
                _brute_force_directed(a, b, spec), _brute_force_directed(b, a, spec)
            )
            assert hausdorff(a, b, metric=spec) == max(
                directed_hausdorff(a, b, metric=spec), directed_hausdorff(b, a, metric=spec)
            )


@pytest.mark.parametrize("block", [7, 1000, kernels._BLOCK_ENTRIES])
def test_blocked_hausdorff_equals_one_matrix_form(monkeypatch, block):
    # a cloud of many blocks, a ragged last block, and blocks of one row when b
    # alone outgrows a block: the same bits as one (len(a), len(b)) matrix
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3001, 3))
    b = rng.normal(scale=1.5, size=(400, 3))
    d = _distances(a, b)
    assert directed_hausdorff(a, b) == d.min(axis=1).max()
    assert directed_hausdorff(b, a) == d.min(axis=0).max()
    assert hausdorff(a, b) == hausdorff(b, a) == max(d.min(axis=1).max(), d.min(axis=0).max())


def test_hausdorff_peak_memory_is_two_distance_blocks():
    # 1,000 x 1,600 distances in blocks of 2**16 entries: the block and one
    # coordinate's differences (0.5 MiB each) and the two minima vectors, not
    # a 12.8 MB distance matrix
    import tracemalloc

    rng = np.random.default_rng(12)
    a = rng.uniform(-1.0, 1.0, size=(1000, 2))
    b = rng.uniform(-1.0, 1.0, size=(1600, 2))
    tracemalloc.start()
    try:
        hausdorff(a, b, metric=KernelSpec("abel", 0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_hausdorff_symmetric_exactly():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(12, 3))
    b = rng.normal(size=(9, 3))
    assert hausdorff(a, b) == hausdorff(b, a)


def test_directed_zero_iff_subset():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(10, 2))
    a = b[[2, 5, 7]]
    assert directed_hausdorff(a, b) == 0.0
    assert directed_hausdorff(a + 1e-9, b) > 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_hausdorff_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(5, 2)) for _ in range(3))
    assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12


def test_hausdorff_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        directed_hausdorff(np.empty((0, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        hausdorff(np.zeros((2, 2)), np.zeros((2, 3)))


def test_hausdorff_rejects_an_unknown_metric():
    with pytest.raises(ValueError, match="metric must be 'euclidean' or a KernelSpec, got 'cosine'"):
        hausdorff(np.zeros((2, 2)), np.ones((2, 2)), metric="cosine")


@pytest.mark.parametrize("family", ["gaussian", "abel"])
def test_far_points_give_zero_kernel_without_warnings(family):
    # coordinate differences that overflow give K = 0, F = 0 and the
    # kernel-metric distance sqrt(2), with no numpy warning
    spec = KernelSpec(family, 0.5)
    far = np.array([[1e200, -1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_eval(spec, [0.0, 0.0], far[0]) == 0.0
        model = fit(SampleSet(np.array([[0.0, 0.0], [1e200, 1.0]])), FitConfig(spec, 0.1))
        assert decision_values(model, np.vstack([far, [[-1e200, 0.0]]])).tolist() == [0.0, 0.0]
        assert hausdorff(far, np.zeros((1, 2)), metric=spec) == math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Containment and area
# ---------------------------------------------------------------------------


def test_containment_of_training_cloud_is_one():
    samples, model = _random_model(10, m=40)
    assert containment_rate(model, samples.points) == 1.0


def test_containment_far_cloud_is_zero():
    _, model = _random_model(11, m=10)
    far = np.full((25, 2), 50.0)
    assert containment_rate(model, far) == 0.0


def test_containment_mixed_cloud_matches_manual_count():
    samples, model = _random_model(12, m=15)
    cloud = np.vstack([samples.points[:5], np.full((5, 2), 40.0)])
    from kernelreach import classify

    manual = sum(classify(model, p) for p in cloud) / len(cloud)
    assert containment_rate(model, cloud) == manual == 0.5


def test_containment_reads_points_as_classify_batch_does():
    samples, model = _random_model(12, m=15)
    from kernelreach import classify

    for x in (samples.points[0], np.full(2, 40.0)):
        assert containment_rate(model, x) == float(classify(model, x))
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(ValueError):
            containment_rate(model, empty)


def test_symmetric_difference_area():
    grid = GridSpec(0, 1, (0.0, 0.0), (-1.5, 1.5), (-1.5, 1.5),
                    resolution_i=200, resolution_j=200)
    nodes = grid_nodes(grid)
    disk = np.linalg.norm(nodes, axis=1) <= 1.0
    assert symmetric_difference_area(disk, disk, grid) == 0.0
    # radius grown by half a cell disagrees only on a thin band
    step = 3.0 / 199
    grown = np.linalg.norm(nodes, axis=1) <= 1.0 + 0.5 * step
    band = symmetric_difference_area(disk, grown, grid)
    assert 0.0 < band <= 2.0 * math.pi * 1.1 * math.hypot(step, step)


def test_symmetric_difference_area_rejects_masks_of_unequal_size():
    with pytest.raises(ValueError, match="indicator masks must have equal size"):
        symmetric_difference_area(np.zeros(4, bool), np.zeros(3, bool), _unit_square_grid())


# ---------------------------------------------------------------------------
# Convergence sweeps
# ---------------------------------------------------------------------------


def test_sweep_rows_deterministic_and_ordered():
    sampler = uniform_disk_sampler()
    rows = convergence_sweep(sampler, [10, 20], [3, 3], fresh_size=50)
    assert [(r.m, r.seed) for r in rows] == [(10, 3), (10, 3), (20, 3), (20, 3)]
    assert rows[0] == rows[1]
    assert rows[2] == rows[3]


def test_sweep_requires_ascending_sizes():
    with pytest.raises(ValueError):
        convergence_sweep(uniform_disk_sampler(), [20, 10], [0])
    with pytest.raises(ValueError):
        convergence_sweep(uniform_disk_sampler(), [10], [0], truth=lambda pts: pts[:, 0] > 0)


def test_sweep_disk_improves_with_sample_size():
    grid = GridSpec(0, 1, (0.0, 0.0), (-1.5, 1.5), (-1.5, 1.5),
                    resolution_i=100, resolution_j=100)

    def truth(points):
        return np.linalg.norm(points, axis=1) <= 1.0

    rows = convergence_sweep(
        uniform_disk_sampler(), [50, 400], [0], truth=truth, truth_grid=grid,
        fresh_size=200,
    )
    assert rows[0].sym_diff_area > rows[1].sym_diff_area
    assert all(r.hausdorff_to_reference >= 0.0 for r in rows)
    assert all(0.0 <= r.tau <= 1.0 for r in rows)


def test_sweep_accepts_system_config():
    config = SystemConfig(
        system=CwhSystem(),
        horizon=2,
        initial=PointInitial((-0.75, -0.75, 0.0, 0.0)),
    )
    rows = convergence_sweep(config, [3], [0], fresh_size=5)
    assert len(rows) == 1 and rows[0].m == 3
    assert rows[0].sym_diff_area is None


def test_system_sweep_simulates_its_largest_size_once_per_seed(monkeypatch):
    # each M's sample is the prefix of the largest M's, so the rows are those
    # of a sweep that simulates every (M, seed)
    config = SystemConfig(
        system=CwhSystem(),
        horizon=2,
        initial=BoxInitial((-1.0, -1.0, 0.0, 0.0), (1.0, 1.0, 0.1, 0.1)),
    )
    m_list, seeds = [3, 10, 25], [0, 4, 0]

    def per_size(count, seed):
        return sample_terminal_states(config, count, seed).points

    expected = convergence_sweep(per_size, m_list, seeds, fresh_size=20)
    calls = []

    def counting(system, count, seed):
        calls.append((count, seed))
        return sample_terminal_states(system, count, seed)

    monkeypatch.setattr(geometry, "sample_terminal_states", counting)
    assert convergence_sweep(config, m_list, seeds, fresh_size=20) == expected
    fresh = [(20, child_seed(seed, systems.REFERENCE_STREAM)) for seed in (0, 4)]
    assert sorted(calls) == sorted([(25, 0), (25, 4), *fresh])
    with pytest.raises(ValueError, match=r"sample sizes must be at least 1, got \[0, 5\]"):
        convergence_sweep(config, [0, 5], [0])


def test_sweep_draws_each_seeds_reference_sample_once():
    # the reference sample depends on the seed alone: one draw per distinct seed
    calls = []

    def counting(count, seed):
        calls.append((count, seed))
        return uniform_disk_sampler()(count, seed)

    m_list, seeds = [10, 20, 30], [0, 1, 0]
    rows = convergence_sweep(counting, m_list, seeds, fresh_size=50)
    assert len(calls) == len(m_list) * len(seeds) + len(set(seeds))
    # each row is the row a sweep over its seed alone gives
    by_seed = {s: convergence_sweep(uniform_disk_sampler(), m_list, [s], fresh_size=50)
               for s in set(seeds)}
    assert rows == [by_seed[s][i] for i in range(len(m_list)) for s in seeds]


def test_sweep_csv_writes_numpy_floats_as_plain_decimals(tmp_path):
    path = tmp_path / "sweep.csv"
    geometry.write_sweep_csv([
        geometry.SweepRow(10, 0, np.float64(0.5), np.float64(0.25), np.float64(0.125)),
        geometry.SweepRow(20, 1, np.float64(0.1), None, np.float64(1 / 3)),
    ], path)
    assert path.read_text().splitlines() == [
        "m,seed,tau,sym_diff_area,hausdorff_to_reference",
        "10,0,0.5,0.25,0.125",
        "20,1,0.1,,0.3333333333333333",
    ]

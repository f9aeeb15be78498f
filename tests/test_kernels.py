import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelreach import GramMatrix, KernelSpec, gram, kernel_eval, kernel_metric
from kernelreach.kernels import kernel_matrix


def test_spec_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        KernelSpec("abel", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("abel", -1.0)
    with pytest.raises(ValueError):
        KernelSpec("abel", float("nan"))
    with pytest.raises(ValueError):
        KernelSpec("abel", True)


def test_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        KernelSpec("laplace", 0.1)


def test_abel_zero_distance_is_one():
    spec = KernelSpec("abel", 0.1)
    x = np.array([0.3, -1.2, 4.0])
    assert kernel_eval(spec, x, x) == 1.0


def test_abel_at_one_bandwidth():
    # ||x - y|| = sigma forces the value e^{-1}
    spec = KernelSpec("abel", 0.1)
    value = kernel_eval(spec, [0.0, 0.0], [0.1, 0.0])
    assert value == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_abel_345_triangle():
    # norm 5 with sigma 0.1 gives exp(-50)
    spec = KernelSpec("abel", 0.1)
    value = kernel_eval(spec, [0.0, 0.0], [3.0, 4.0])
    assert value == pytest.approx(math.exp(-50.0), rel=1e-15)


def test_gaussian_value():
    spec = KernelSpec("gaussian", 0.5)
    value = kernel_eval(spec, [1.0], [2.0])
    assert value == pytest.approx(math.exp(-1.0 / (2 * 0.25)), rel=1e-15)
    assert kernel_eval(spec, [1.0], [1.0]) == 1.0


def test_eval_rejects_dimension_mismatch_and_nonfinite():
    spec = KernelSpec()
    with pytest.raises(ValueError):
        kernel_eval(spec, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        kernel_eval(spec, [float("nan"), 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        kernel_eval(spec, [0.0], [float("inf")])


def test_metric_identity_is_zero():
    spec = KernelSpec("abel", 0.1)
    x = np.array([2.0, -3.0])
    assert kernel_metric(spec, x, x) == 0.0


def test_metric_at_one_bandwidth():
    # substitute K = e^{-1} into sqrt(2 - 2K)
    spec = KernelSpec("abel", 0.1)
    expected = math.sqrt(2.0 - 2.0 * math.exp(-1.0))
    assert kernel_metric(spec, [0.0], [0.1]) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(1.1243, abs=1e-4)


def test_metric_approaches_sqrt2_from_below():
    # strictly increasing toward sqrt(2) while 2 - 2K is still representable
    spec = KernelSpec("abel", 0.1)
    values = [kernel_metric(spec, [0.0], [r * spec.bandwidth]) for r in (1, 5, 10, 30)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v < math.sqrt(2.0) for v in values)
    assert values[-1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
)
def test_eval_symmetric_bit_exact(xs, ys):
    n = min(len(xs), len(ys))
    x, y = xs[:n], ys[:n]
    spec = KernelSpec("abel", 0.1)
    assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)
    gauss = KernelSpec("gaussian", 0.1)
    assert kernel_eval(gauss, x, y) == kernel_eval(gauss, y, x)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["abel", "gaussian"]))
@settings(max_examples=50)
def test_metric_triangle_inequality(seed, family):
    rng = np.random.default_rng(seed)
    spec = KernelSpec(family, 0.3)
    x, y, z = rng.normal(scale=2.0, size=(3, 3))
    assert kernel_metric(spec, x, z) <= kernel_metric(spec, x, y) + kernel_metric(spec, y, z) + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_abel_translation_invariance_dyadic(seed):
    # on a dyadic grid the shifted differences are exact, so values match bitwise
    rng = np.random.default_rng(seed)
    spec = KernelSpec("abel", 0.1)
    x = rng.integers(-1024, 1024, size=4) / 1024.0
    y = rng.integers(-1024, 1024, size=4) / 1024.0
    t = rng.integers(-1024, 1024, size=4) / 1024.0
    assert kernel_eval(spec, x + t, y + t) == kernel_eval(spec, x, y)


def test_abel_translation_invariance_random_floats():
    rng = np.random.default_rng(7)
    spec = KernelSpec("abel", 0.1)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, size=4)
        y = x + rng.normal(scale=0.2, size=4)
        t = rng.uniform(-1.0, 1.0, size=4)
        worst = max(worst, abs(kernel_eval(spec, x + t, y + t) - kernel_eval(spec, x, y)))
    assert worst <= 1e-15


def test_gram_single_point():
    g = gram(KernelSpec(), [[1.0, 2.0]])
    assert g.size == 1
    assert np.array_equal(g.entries, [[1.0]])


def test_gram_coincident_points():
    g = gram(KernelSpec(), [[1.0, 2.0], [1.0, 2.0]])
    assert np.array_equal(g.entries, [[1.0, 1.0], [1.0, 1.0]])


def test_gram_matches_brute_force():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(3, 2))
    spec = KernelSpec("abel", 0.25)
    g = gram(spec, pts)
    for i in range(3):
        for j in range(3):
            assert g.entries[i, j] == pytest.approx(kernel_eval(spec, pts[i], pts[j]), abs=1e-15)


def test_gram_symmetry_and_diagonal_exact():
    # exact by construction: no mirroring, gram is kernel_matrix(p, p)
    rng = np.random.default_rng(11)
    for m, n in ((60, 4), (257, 2), (33, 9)):
        pts = rng.normal(size=(m, n))
        for spec in (KernelSpec("abel", 0.5), KernelSpec("gaussian", 0.5)):
            g = gram(spec, pts)
            assert np.array_equal(g.entries, g.entries.T)
            assert np.all(np.diag(g.entries) == 1.0)
            assert np.array_equal(g.entries, kernel_matrix(spec, pts, pts))


@pytest.mark.parametrize("m", [5, 50, 200])
def test_gram_positive_semidefinite(m):
    rng = np.random.default_rng(m)
    pts = rng.normal(size=(m, 3))
    g = gram(KernelSpec("abel", 0.2), pts)
    assert np.linalg.eigvalsh(g.entries).min() >= -1e-8


def test_gram_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        gram(KernelSpec(), [])
    with pytest.raises(ValueError):
        gram(KernelSpec(), [[1.0, 2.0], [1.0]])


def test_gram_entries_immutable():
    g = gram(KernelSpec(), [[0.0, 0.0], [1.0, 1.0]])
    assert isinstance(g, GramMatrix)
    with pytest.raises(ValueError):
        g.entries[0, 0] = 2.0

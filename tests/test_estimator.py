import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from kernelreach import (
    RECIPROCAL_M,
    FitConfig,
    KernelSpec,
    ModelFormatError,
    SampleSet,
    SupportModel,
    classify,
    classify_batch,
    decision_value,
    decision_values,
    fit,
    kernel_eval,
    load_model,
    save_model,
)
from kernelreach import estimator
from kernelreach.estimator import (
    _MIN_WIDTH,
    _padded_order,
    _quadratic_form,
    _query_block,
)
from kernelreach.kernels import gram, kernel_matrix
from kernelreach.schema import FieldError


def _block(m):
    # the columns a query block of an M-point model solves
    return _query_block(_padded_order(m))


def _random_model(seed, m=40, n=3, bandwidth=0.4, regularization=RECIPROCAL_M):
    rng = np.random.default_rng(seed)
    samples = SampleSet(rng.normal(size=(m, n)))
    return samples, fit(samples, FitConfig(KernelSpec("abel", bandwidth), regularization))


def _dense_inverse_value(samples, lam, spec, x):
    # independent oracle: explicit dense inverse of G + M lambda I
    pts = samples.points
    m = pts.shape[0]
    g = np.array([[kernel_eval(spec, pts[i], pts[j]) for j in range(m)] for i in range(m)])
    a_inv = np.linalg.inv(g + m * lam * np.eye(m))
    phi = np.array([kernel_eval(spec, pts[i], x) for i in range(m)])
    return float(phi @ a_inv @ phi)


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        SampleSet(np.array([[1.0, np.nan]]))
    s = SampleSet(np.array([[1.0, 2.0]]), provenance="unit")
    assert s.size == 1 and s.dim == 2 and s.provenance == "unit"


def test_lambda_rules():
    assert FitConfig(regularization=RECIPROCAL_M).resolve_lambda(100) == 0.01
    assert FitConfig(regularization=2.5).resolve_lambda(100) == 2.5
    with pytest.raises(ValueError):
        FitConfig(regularization=0.0).resolve_lambda(10)
    with pytest.raises(ValueError):
        FitConfig(regularization="half").resolve_lambda(10)
    with pytest.raises(ValueError):
        FitConfig(regularization=10**400)
    for bad in ("0.5", True, -1.0, float("nan"), None, [0.5]):
        with pytest.raises(FieldError) as info:
            FitConfig(KernelSpec(), bad)
        assert info.value.field == "regularization"


def test_fit_single_point_closed_form():
    # G = [[1]], A = [[1 + lambda]], F(x1) = 1/(1 + lambda)
    samples = SampleSet(np.array([[0.7, -0.2]]))
    model = fit(samples, FitConfig(KernelSpec("abel", 0.1), 1.0))
    assert model.train_values[0] == pytest.approx(0.5, abs=1e-12)
    assert model.tau == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(model.factor @ model.factor.T, [[2.0]], rtol=1e-10)
    # the reciprocal rule resolves to the same lambda = 1 at M = 1
    via_rule = fit(samples, FitConfig(KernelSpec("abel", 0.1), RECIPROCAL_M))
    assert via_rule.lam == 1.0
    assert via_rule.tau == pytest.approx(0.5, abs=1e-12)


def test_fit_two_coincident_points():
    # symbolic 2x2 solve with Phi = (1, 1) gives both values 1/(1 + lambda)
    lam = 0.5
    samples = SampleSet(np.array([[1.0, 1.0], [1.0, 1.0]]))
    model = fit(samples, FitConfig(KernelSpec("abel", 0.1), lam))
    assert model.train_values == pytest.approx([1 / (1 + lam)] * 2, abs=1e-12)
    assert model.tau == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_single_point_decision_general_query():
    samples = SampleSet(np.array([[0.3, 0.4]]))
    spec = KernelSpec("abel", 0.1)
    model = fit(samples, FitConfig(spec, 1.0))
    x = np.array([0.35, 0.38])
    expected = kernel_eval(spec, samples.points[0], x) ** 2 / 2.0
    assert decision_value(model, x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("family", ["abel", "gaussian"])
def test_single_point_scalar_solve_matches_triangular_solve(family):
    # a one-point model scales phi by 1/l instead of calling the LAPACK solve:
    # same bits as solve_triangular on the same factor, for training values and queries
    rng = np.random.default_rng(17)
    for lam in (1e-3, 0.1, 1.0, 10.0, RECIPROCAL_M):
        spec = KernelSpec(family, float(rng.uniform(0.05, 2.0)))
        model = fit(SampleSet(rng.normal(size=(1, 3))), FitConfig(spec, lam))
        queries = model.support + rng.normal(scale=spec.bandwidth, size=(2 * _block(1) + 5, 3))
        for points, values in ((queries, decision_values(model, queries)),
                               (model.support, model.train_values)):
            y = solve_triangular(model.factor, kernel_matrix(spec, model.support, points),
                                 lower=True, check_finite=False)
            assert np.array_equal(values, (y * y).sum(axis=0))


def test_factor_reconstructs_regularized_gram():
    samples, model = _random_model(0, m=60)
    a = model.factor @ model.factor.T
    g = np.array(
        [
            [kernel_eval(model.kernel, p, q) for q in samples.points]
            for p in samples.points
        ]
    )
    expected = g + samples.size * model.lam * np.eye(samples.size)
    assert np.allclose(a, expected, rtol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 64, 65, 300, 513])
@pytest.mark.parametrize("family", ["abel", "gaussian"])
@pytest.mark.parametrize("lam", [RECIPROCAL_M, 0.013])
def test_factor_matches_numpy_cholesky(m, family, lam):
    # dpotrf on a copy of the Gram matrix against numpy's Cholesky of G + M lambda I.
    # numpy and scipy bundle different OpenBLAS builds, so the bits may differ by an ulp.
    rng = np.random.default_rng(m)
    points = rng.uniform(-1.0, 1.0, size=(m, 2))
    spec = KernelSpec(family, 0.3)
    lam = FitConfig(spec, lam).resolve_lambda(m)
    factor = SupportModel(points, spec, lam).factor
    assert np.array_equal(factor, np.tril(factor))
    a = gram(spec, points).entries + m * lam * np.eye(m)
    assert np.abs(factor - np.linalg.cholesky(a)).max() <= 1e-15
    assert np.array_equal(factor, SupportModel(points, spec, lam).factor)


def test_fit_coincident_samples_raise_linalg_error():
    samples = SampleSet(np.full((3, 2), 0.5))
    with pytest.raises(np.linalg.LinAlgError):
        fit(samples, FitConfig(KernelSpec(), 1e-300))


@pytest.mark.parametrize("m", [1, 2, 3, 63, 64, 65, 513, 1021])
@pytest.mark.parametrize("family", ["abel", "gaussian"])
@pytest.mark.parametrize("lam", [RECIPROCAL_M, 0.013])
def test_fit_buffer_holds_gram_then_factor(monkeypatch, m, family, lam):
    # G is built into the solve buffer and factored there; the strict upper
    # triangle dpotrf leaves alone is where the training phi comes from
    rng = np.random.default_rng(m)
    points = rng.uniform(-1.0, 1.0, size=(m, 2))
    spec = KernelSpec(family, 0.3)
    lam = FitConfig(spec, lam).resolve_lambda(m)
    g = gram(spec, points).entries
    real = estimator.lapack.dpotrf
    seen = {}

    def spy(a, **kwargs):
        seen["buffer"], seen["before"] = a, a.copy()
        result = real(a, **kwargs)
        seen["after"] = a.copy()
        return result

    monkeypatch.setattr(estimator.lapack, "dpotrf", spy)
    model = SupportModel(points, spec, lam)
    monkeypatch.undo()
    assert np.shares_memory(seen["buffer"], model._padded)
    regularized = g.copy()
    regularized[np.diag_indices(m)] += m * lam
    assert np.array_equal(seen["before"], regularized)
    assert np.array_equal(np.triu(seen["after"], 1), np.triu(g, 1))
    assert np.array_equal(model.factor, np.tril(seen["after"]))
    assert not np.triu(model.factor, 1).any()
    # the training values are G's own columns, solved as queries are
    from_gram = _quadratic_form(
        model._padded, m, m, lambda start, stop, out: np.copyto(out, g[:, start:stop])
    )
    assert np.array_equal(model.train_values, from_gram)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fit_peak_memory_is_one_m_by_m_buffer():
    # the buffer that holds G and then L, one phi block and one Gram row
    # block; a second M x M array would take the peak past the bound
    m = 1024
    samples = SampleSet(np.random.default_rng(4).uniform(-1.0, 1.0, size=(m, 2)))
    peak = _traced_peak(lambda: fit(samples, FitConfig(KernelSpec("abel", 0.1))))
    assert peak <= 1.25 * m * m * 8


def test_fit_peak_memory_at_a_padded_order():
    # M = 1021 is solved at order 1024: the padded buffer holds G, then L;
    # a second M x M array, for G or for the padding, would pass the bound
    m, order = 1021, 1024
    samples = SampleSet(np.random.default_rng(4).uniform(-1.0, 1.0, size=(m, 2)))
    peak = _traced_peak(lambda: fit(samples, FitConfig(KernelSpec("abel", 0.1))))
    assert peak <= 1.25 * order * order * 8


def test_load_model_peak_memory_is_one_m_by_m_buffer(tmp_path):
    # a load rebuilds the factor as a fit does, in one padded buffer
    m, order = 1021, 1024
    samples = SampleSet(np.random.default_rng(4).uniform(-1.0, 1.0, size=(m, 2)))
    path = tmp_path / "model.json"
    save_model(fit(samples, FitConfig(KernelSpec("abel", 0.1))), path)
    peak = _traced_peak(lambda: load_model(path))
    assert peak <= 1.25 * order * order * 8


def test_query_peak_memory_is_one_solve_block_and_one_fill_piece():
    # at M = 1600 (order 1608), 2,500 queries may hold, beyond the model and
    # the points, one 128-column solve block, one fill piece's two kernel
    # temporaries of at most 2**16 entries each, and the values, with 256 KiB
    # to spare (numpy's outer subtraction buffers some 130 KB): 2.98 MB.
    # Building a whole block's phi at once would hold two M x 128 arrays,
    # 3.3 MB, instead of the piece's 1.0 MB, and read 5.1 MB.
    m, count = 1600, 2500
    rng = np.random.default_rng(4)
    samples = SampleSet(rng.uniform(-1.0, 1.0, size=(m, 2)))
    model = fit(samples, FitConfig(KernelSpec("abel", 0.1)))
    queries = rng.uniform(-1.5, 1.5, size=(count, 2))
    peak = _traced_peak(lambda: decision_values(model, queries))
    block, piece, values = 1608 * 128 * 8, 2 * 2**16 * 8, count * 8
    assert peak <= block + piece + values + 2**18


@pytest.mark.parametrize("m", [1, 7, 129, 1021])
def test_built_model_is_the_fitted_model_and_round_trips(tmp_path, m):
    # the constructor derives the factor and training values that fit and
    # load_model derive, from the support, kernel and lambda alone
    rng = np.random.default_rng(m)
    points = rng.uniform(-1.0, 1.0, size=(m, 2))
    spec = KernelSpec("abel", 0.5)
    built = SupportModel(points, spec, 1.0 / m)
    fitted = fit(SampleSet(points), FitConfig(spec))
    path = tmp_path / "model.json"
    save_model(built, path)
    loaded = load_model(path)
    assert loaded.tau == built.tau == fitted.tau
    assert not (built.factor.flags.writeable or built.train_values.flags.writeable)
    for model in (fitted, loaded):
        assert np.array_equal(model.factor, built.factor)
        assert np.array_equal(model.train_values, built.train_values)
    queries = rng.uniform(-1.0, 1.0, size=(300, 2))
    assert np.array_equal(decision_values(built, queries), decision_values(fitted, queries))


@pytest.mark.parametrize("field, kernel, lam", [
    ("lam", KernelSpec(), -1.0),
    ("lam", KernelSpec(), 0.0),
    ("lam", KernelSpec(), float("nan")),
    ("lam", KernelSpec(), float("inf")),
    ("lam", KernelSpec(), 10**400),
    ("lam", KernelSpec(), True),
    ("lam", KernelSpec(), "0.5"),
    ("lam", KernelSpec(), None),
    ("kernel", "abel", 0.5),
    ("kernel", None, 0.5),
    ("kernel", FitConfig(), 0.5),
])
def test_built_model_rejects_a_bad_kernel_or_lambda(field, kernel, lam):
    with pytest.raises(FieldError) as info:
        SupportModel([[0.0, 0.0], [1.0, 0.5]], kernel, lam)
    assert info.value.field == field
    assert str(info.value).startswith(f"{field} must be ")


def test_built_model_takes_no_factor():
    # a factor or training values of the caller's could give a wrong tau
    with pytest.raises(TypeError):
        SupportModel(np.zeros((5, 2)), KernelSpec("abel", 0.5), 0.2, np.eye(5), np.ones(5))


def test_models_compare_by_identity():
    model, twin = (SupportModel([[0.0, 0.0], [1.0, 0.5]], KernelSpec(), 0.5) for _ in range(2))
    assert model == model and model != twin


def test_decision_matches_dense_inverse_oracle():
    rng = np.random.default_rng(5)
    samples, model = _random_model(5, m=50, n=4)
    for _ in range(20):
        x = rng.normal(size=4)
        expected = _dense_inverse_value(samples, model.lam, model.kernel, x)
        assert decision_value(model, x) == pytest.approx(expected, abs=1e-8)


def test_decision_value_nonnegative():
    _, model = _random_model(9, m=80, n=2, bandwidth=0.05)
    rng = np.random.default_rng(10)
    values = decision_values(model, rng.normal(scale=50.0, size=(200, 2)))
    assert np.all(values >= 0.0)


def test_decision_value_takes_one_point():
    _, model = _random_model(9, m=5, n=2)
    with pytest.raises(ValueError, match="query must be a 1-d vector"):
        decision_value(model, np.zeros((1, 2)))


def test_training_points_classify_inside():
    for seed in range(5):
        samples, model = _random_model(seed, m=30)
        assert all(classify(model, p) for p in samples.points)
        assert classify_batch(model, samples.points).all()


def test_single_point_membership_is_razor_thin():
    # with one sample the estimated set collapses to (nearly) that point
    samples = SampleSet(np.array([[0.0, 0.0]]))
    model = fit(samples, FitConfig(KernelSpec("abel", 0.1), 1.0))
    assert classify(model, [0.0, 0.0])
    assert not classify(model, [0.1, 0.0])
    assert not classify(model, [0.001, 0.0])


def test_far_points_classify_outside():
    samples, model = _random_model(2, m=20, n=2)
    assert model.tau < 1.0
    assert not classify(model, np.array([1e3, -1e3]))


def test_optional_level_override():
    samples, model = _random_model(3, m=20, n=2)
    # level 0 admits everything nonnegative; level > 1 rejects everything
    assert classify(model, np.array([50.0, 50.0]), level=0.0)
    assert not classify(model, samples.points[0], level=1.5)
    assert classify_batch(model, samples.points, level=0.0).all()
    for level in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="membership level must be finite"):
            classify(model, samples.points[0], level=level)
        with pytest.raises(ValueError, match="membership level must be finite"):
            classify_batch(model, samples.points, level=level)


def test_classify_batch_empty():
    _, model = _random_model(4)
    assert classify_batch(model, np.empty((0, 3))).shape == (0,)
    assert decision_values(model, []).shape == (0,)


def test_classify_batch_equals_sequential():
    _, model = _random_model(6, m=35, n=2)
    rng = np.random.default_rng(8)
    points = rng.normal(scale=2.0, size=(1000, 2))
    batch = classify_batch(model, points)
    sequential = np.array([classify(model, p) for p in points])
    assert np.array_equal(batch, sequential)
    assert np.array_equal(
        decision_values(model, points), [decision_value(model, p) for p in points]
    )


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 7),
    st.integers(0, 600),
    st.sampled_from(["abel", "gaussian"]),
)
@settings(max_examples=15, deadline=None)
# Block edges: query counts either side of one and two blocks, and sample
# sizes at and past 64, 513 (where widths move bits) and 800.
@example(1, 64, 2, _block(64) - 1, "abel")
@example(2, 65, 3, _block(65), "gaussian")
@example(3, 513, 4, _block(513) + 1, "gaussian")
@example(4, 800, 2, 2 * _block(800) + 1, "abel")
# Sizes that are not multiples of 8, where an unpadded solve gave batched and
# one-at-a-time queries different last bits for these data.
@example(0, 443, 2, 2 * _block(443) + 1, "gaussian")
@example(5, 499, 3, 2 * _block(499) + 1, "abel")
@example(4, 515, 2, 2 * _block(515) + 1, "gaussian")
@example(0, 1021, 2, 2 * _block(1021) + 1, "abel")
def test_batch_chunk_and_order_invariance(seed, m, n, q, family):
    # at a padded order a query's value is the same bits in any batch
    rng = np.random.default_rng(seed)
    samples = SampleSet(rng.normal(size=(m, n)))
    model = fit(samples, FitConfig(KernelSpec(family, 0.5)))
    queries = rng.normal(scale=1.5, size=(q, n))
    whole = decision_values(model, queries)
    cuts = np.sort(rng.integers(0, q + 1, size=int(rng.integers(0, 4))))
    parts = [decision_values(model, part) for part in np.split(queries, cuts)]
    assert np.array_equal(whole, np.concatenate(parts))
    assert np.array_equal(whole, [decision_value(model, x) for x in queries])
    order = rng.permutation(q)
    assert np.array_equal(whole[order], decision_values(model, queries[order]))
    assert np.array_equal(model.train_values, decision_values(model, model.support))
    assert classify_batch(model, samples.points).all()


def _uniform_fit(m, family="abel", n=4, bandwidth=0.5):
    # a bit audit case: uniform sample and queries, seeded by (M, n)
    rng = np.random.default_rng([m, n])
    support = rng.uniform(-1.0, 1.0, size=(m, n))
    return fit(SampleSet(support), FitConfig(KernelSpec(family, bandwidth))), rng


def test_query_block_holds_128_columns_or_as_many_entries_as_128_at_order_128():
    assert [_block(m) for m in (1, 3, 8, 9, 64, 100, 121, 129, 200, 249, 513, 1021, 1600)] == [
        2048, 2048, 2048, 1024, 256, 157, 128, 128, 128, 128, 128, 128, 128]


def test_query_bits_do_not_depend_on_block_width_or_position():
    # one query's phi column in every position of blocks of every width, at
    # sizes where an unpadded solve gave a column's last bit by its position,
    # at sizes below order 128, where a block is wider than 128 columns, and
    # at 1600, disk_large_m's size, and 1601, solved at order 1608
    for m in [1, 3, 9, 61, 100, 129, 200, *range(380, 531), *range(1015, 1036), 1600, 1601]:
        model, rng = _uniform_fit(m)
        x = rng.uniform(-1.2, 1.2, size=model.dim)
        expected = decision_value(model, x)
        for width in range(_MIN_WIDTH, _block(m) + 1):
            values = decision_values(model, np.tile(x, (width, 1)))
            assert np.all(values == expected), (m, width)


@pytest.mark.parametrize("family, n, bandwidth, m", [
    ("gaussian", 3, 0.3, 385),
    ("abel", 4, 0.5, 443),
    ("abel", 4, 0.5, 499),
    ("abel", 4, 0.5, 515),
    ("abel", 4, 0.5, 1301),
])
def test_batch_equals_one_at_a_time_off_multiples_of_8(family, n, bandwidth, m):
    model, rng = _uniform_fit(m, family, n, bandwidth)
    queries = rng.uniform(-1.2, 1.2, size=(2 * _block(m), n))
    assert np.array_equal(
        decision_values(model, queries), [decision_value(model, x) for x in queries]
    )


def test_permutation_invariance():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 3))
    queries = rng.normal(size=(100, 3))
    config = FitConfig(KernelSpec("abel", 0.3), RECIPROCAL_M)
    base = decision_values(fit(SampleSet(pts), config), queries)
    shuffled = decision_values(fit(SampleSet(pts[rng.permutation(40)]), config), queries)
    assert np.max(np.abs(base - shuffled)) <= 1e-10


def test_translation_invariance():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(30, 2))
    queries = rng.normal(size=(100, 2))
    shift = np.array([3.7, -1.9])
    config = FitConfig(KernelSpec("abel", 0.2), RECIPROCAL_M)
    base = decision_values(fit(SampleSet(pts), config), queries)
    shifted = decision_values(fit(SampleSet(pts + shift), config), queries + shift)
    assert np.max(np.abs(base - shifted)) <= 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_train_values_bounded(seed, m, n):
    rng = np.random.default_rng(seed)
    samples = SampleSet(rng.normal(size=(m, n)))
    model = fit(samples, FitConfig(KernelSpec("abel", 0.3), RECIPROCAL_M))
    assert np.all(model.train_values >= 0.0)
    assert np.all(model.train_values <= 1.0 + 1e-12)
    assert 0.0 <= model.tau <= 1.0


def test_tau_monotone_in_lambda_single_point():
    samples = SampleSet(np.array([[1.0, 2.0]]))
    taus = [
        fit(samples, FitConfig(KernelSpec(), lam)).tau for lam in (0.1, 1.0, 10.0)
    ]
    expected = [lam / (1 + lam) for lam in (0.1, 1.0, 10.0)]
    assert taus == pytest.approx(expected, abs=1e-12)
    assert taus[0] < taus[1] < taus[2]


def test_query_validation():
    _, model = _random_model(14)
    with pytest.raises(ValueError):
        decision_value(model, [1.0, 2.0])  # model dim is 3
    with pytest.raises(ValueError):
        decision_value(model, [np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        classify_batch(model, np.full((2, 3), np.inf))
    with pytest.raises(ValueError):
        decision_values(model, np.zeros((0, 5)))  # empty, but of the wrong width


def test_fit_rejects_nonfinite_samples():
    with pytest.raises(ValueError):
        SampleSet(np.array([[1.0], [np.inf]]))


def test_save_load_round_trip(tmp_path):
    samples, model = _random_model(21, m=25, n=2)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)

    assert np.array_equal(loaded.support, model.support)
    assert loaded.kernel == model.kernel
    assert loaded.lam == model.lam
    assert loaded.tau == model.tau

    rng = np.random.default_rng(22)
    queries = rng.normal(size=(100, 2))
    before = decision_values(model, queries)
    after = decision_values(loaded, queries)
    assert np.max(np.abs(before - after)) <= 1e-12
    assert classify_batch(loaded, samples.points).all()


def test_model_file_schema(tmp_path):
    # the on-disk document carries exactly the documented fields
    _, model = _random_model(30, m=6, n=3)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "format_version", "kernel_family", "bandwidth", "lambda",
        "tau", "m", "n", "support", "checksum",
    }
    assert doc["format_version"] == 1
    assert doc["kernel_family"] == "abel"
    assert doc["m"] == 6 and doc["n"] == 3
    assert len(doc["support"]) == 18
    assert doc["support"] == [float(v) for v in model.support.ravel()]


def test_load_truncated_file(tmp_path):
    _, model = _random_model(23, m=5, n=2)
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_future_version(tmp_path):
    _, model = _random_model(24, m=5, n=2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_checksum_mismatch(tmp_path):
    _, model = _random_model(25, m=5, n=2)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["support"][0] += 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_concurrent_queries_share_one_model():
    # decision paths only read immutable state, so threads must agree bitwise
    from concurrent.futures import ThreadPoolExecutor

    _, model = _random_model(27, m=60, n=2)
    rng = np.random.default_rng(28)
    chunks = [rng.normal(size=(200, 2)) for _ in range(8)]
    expected = [decision_values(model, c) for c in chunks]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda c: decision_values(model, c), chunks))
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def test_model_arrays_immutable():
    _, model = _random_model(26, m=5, n=2)
    with pytest.raises(ValueError):
        model.support[0, 0] = 9.0
    with pytest.raises(ValueError):
        model.factor[0, 0] = 9.0

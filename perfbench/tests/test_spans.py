import sys
import types

import pytest

from spans import Hook, Span, Tracer, iteration_summary, per_layer_metrics, self_times


def span(id, name, start, end, parent=None, iteration=0, **counts):
    return Span(id, name, start, end, parent, iteration, counts)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(0, "bench.fit", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 2.0, 5.0, parent=0),
        span(3, "c", 9.0, 12.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)


def test_grandchildren_count_against_their_parent_only():
    spans = [
        span(0, "bench.grid", 0.0, 8.0),
        span(1, "estimator.decision_values", 1.0, 7.0, parent=0),
        span(2, "estimator.solve_triangular", 2.0, 6.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 2.0, 2: 4.0})


def test_iteration_summary_sums_self_times_counts_and_query_ratio():
    spans = [
        span(0, "bench.classify", 0.0, 10.0),
        span(1, "estimator.decision_values", 1.0, 4.0, parent=0,
             **{"estimator.decision_values.points": 1}),
        span(2, "estimator.solve_triangular", 2.0, 3.0, parent=1,
             **{"estimator.solve_triangular.columns": 256}),
        span(3, "estimator.decision_values", 5.0, 9.0, parent=0,
             **{"estimator.decision_values.points": 1}),
        span(4, "estimator.solve_triangular", 6.0, 8.0, parent=3,
             **{"estimator.solve_triangular.columns": 256}),
    ]
    summary = iteration_summary(spans)
    assert summary["estimator.decision_values.self_s"] == pytest.approx(2.0 + 2.0)
    assert summary["estimator.decision_values.calls"] == 2
    assert summary["estimator.solve_triangular.self_s"] == pytest.approx(3.0)
    assert summary["estimator.solve_triangular.columns"] == 512
    assert summary["estimator.query_useful_ratio"] == 1 / 256
    assert summary["trace.unattributed_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self + summary["trace.unattributed_s"] - summary["bench.classify.self_s"] == (
        pytest.approx(10.0)
    )


@pytest.fixture
def toy_module():
    module = types.ModuleType("toy_layer")

    def work(x):
        return [x] * x

    module.work = work
    sys.modules["toy_layer"] = module
    yield module
    del sys.modules["toy_layer"]


def test_tracer_records_only_inside_stages_and_restores_bindings(toy_module):
    original = toy_module.work
    hooks = [Hook("toy.work", "toy_layer", "work", ("toy_layer",),
                  count=lambda args, kwargs, result: {"toy.work.items": len(result)})]
    tracer = Tracer(hooks)
    tracer.install()
    toy_module.work(2)
    assert tracer.spans == []
    with tracer.stage("s"):
        toy_module.work(3)
    tracer.uninstall()
    assert toy_module.work is original
    names = [s.name for s in tracer.spans]
    assert names == ["toy.work", "bench.s"]
    assert tracer.spans[0].parent == tracer.spans[1].id
    assert tracer.spans[0].counts == {"toy.work.items": 3}


def test_missing_layer_reads_none_and_an_unused_layer_reads_zero(toy_module):
    hooks = [
        Hook("toy.work", "toy_layer", "work", ("toy_layer",)),
        Hook("toy.gone", "toy_layer", "renamed_away", ("toy_layer",)),
    ]
    tracer = Tracer(hooks)
    tracer.install()
    with tracer.stage("s"):
        pass
    tracer.uninstall()
    metrics = per_layer_metrics(
        tracer, ["toy.work.calls", "toy.gone.self_s", "trace.overhead_s"], {}, [2.5], [2.0]
    )
    assert metrics["toy.work.calls"] == 0
    assert metrics["toy.gone.self_s"] is None
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert tracer.missing == ["toy_layer.renamed_away"]

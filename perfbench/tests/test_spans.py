"""Span recording, self-time arithmetic and the per-layer summary."""

import sys
import types

import pytest

import spans
from run import tail_percentile
from spans import Span, Target


def _span(name, start, end, parent=None, pass_id=0):
    return Span(name, start, end, parent, pass_id)


def test_self_time_of_nested_spans():
    tree = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 2.0, 3.0, parent=1),
        _span("d", 5.0, 9.0, parent=0),
        _span("e", 6.0, 7.0, parent=3),
        _span("f", 12.0, 13.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0, 1.0])


def test_self_time_counts_overlapping_or_overhanging_children_once():
    tree = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 5.0, parent=0),
        _span("c", 3.0, 6.0, parent=0),
        _span("d", 8.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_from_hand_built_pass():
    tree = [
        _span("market_data.load_csv", 0.0, 2.0, pass_id=1),
        _span("estimator.estimate_path.psd_factorized", 2.0, 7.0, pass_id=1),
        _span("market_data.increments", 2.0, 2.5, parent=1, pass_id=1),
        _span("estimator.fourier_coefficients", 2.5, 4.5, parent=1, pass_id=1),
        _span("estimator.write_vol_csv", 7.0, 7.5, pass_id=1),
    ]
    tree[3].counts = {"estimator.fourier_terms": 100, "estimator.fourier_table_mb": 2.0}
    metrics = spans.layer_metrics(tree, {1: 8.0}, untraced_p50=7.0, grid_points=10)
    assert metrics["estimator.estimate_path_s.psd_factorized"] == pytest.approx(5.0)
    assert metrics["estimator.eval_s.psd_factorized"] == pytest.approx(2.5)
    assert metrics["estimator.eval_us_per_point.psd_factorized"] == pytest.approx(2.5e5)
    assert metrics["estimator.eval_s.all_forms"] == pytest.approx(2.5)
    assert metrics["estimator.fourier_terms"] == 100
    assert metrics["trace.top_level_coverage"] == pytest.approx(7.5 / 8.0)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert metrics["spectral.symm_eigen_calls"] == 0
    assert spans.layer_shares(tree, {1: 8.0})["estimator.estimate_path.psd_factorized"] == \
        pytest.approx(2.5 / 8.0)


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrappers_record_nesting_and_report_absent_names(fake_module):
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    targets = (
        Target(fake_module.__name__, "outer", "fake.outer"),
        Target(fake_module.__name__, "inner", "fake.inner"),
        Target(fake_module.__name__, "removed", "fake.removed"),
        Target("perfbench_no_such_module", "fn", "fake.fn"),
    )
    original = fake_module.outer
    installed = spans.install(recorder, targets)
    try:
        assert fake_module.outer(1) == 4  # not armed: nothing recorded
        assert recorder.spans == []
        recorder.pass_id = 7
        assert fake_module.outer(1) == 4
    finally:
        installed.restore()
    assert installed.absent == [f"{fake_module.__name__}.removed", "perfbench_no_such_module.fn"]
    assert [(s.name, s.parent, s.pass_id) for s in recorder.spans] == [
        ("fake.outer", None, 7), ("fake.inner", 0, 7)]
    assert fake_module.outer is original


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == (90, 90.0)
    assert tail_percentile(values[:20]) == (50, 10.0)
    assert tail_percentile(values[:35]) == (71, 25.0)
    assert tail_percentile(values[:5]) == (100, 5.0)

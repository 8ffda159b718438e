"""The same seed gives the same inputs, counts and accuracy."""

import pytest

import spans
from workloads import DayEstimate, IntradayGrid, PaperD12

SMALL = (
    DayEstimate(d=2, n=400, m=6, grid=12),
    PaperD12(d=3, n=40, m=4),
    IntradayGrid(d=3, n=300, m=6, grid=24),
)


def _traced_pass(wl, seed, directory):
    directory.mkdir()
    wl.generate(seed, directory)
    inputs = wl.load(directory)
    recorder = spans.SpanRecorder()
    installed = spans.install(recorder)
    try:
        recorder.pass_id = 0
        out = wl.run_pass(inputs, directory)
        recorder.pass_id = None
    finally:
        installed.restore()
    metrics = spans.layer_metrics(recorder.spans, {0: 1.0}, 1.0, wl.grid)
    counts = {k: metrics[k] for k in spans.COUNT_KINDS if k in metrics}
    files = {f.name: f.read_bytes() for f in sorted(directory.iterdir()) if f.is_file()}
    return files, counts, wl.accuracy(inputs, out)


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_same_seed_same_inputs_counts_and_accuracy(wl, tmp_path):
    files_a, counts_a, acc_a = _traced_pass(wl, 4, tmp_path / "a")
    files_b, counts_b, acc_b = _traced_pass(wl, 4, tmp_path / "b")
    assert files_a == files_b
    assert counts_a == counts_b and counts_a
    assert acc_a == acc_b
    files_c, _, acc_c = _traced_pass(wl, 5, tmp_path / "c")
    assert files_c != files_a
    assert acc_c != acc_a



"""The command's contract: the last line of a run, and refusal without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_traced_run_prints_every_per_layer_metric():
    out = _run(ROOT, "--workload", "intraday-grid", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 20
    assert [m for m in last["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert last["metrics"]["trace.top_level_coverage"]["value"] >= 0.9
    assert "failed_share" in out.stdout


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(tmp_path, "--workload", "paper-d12", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_path_hashes_prints_every_digest_ok():
    # the digests pin every output bit of the estimators, ingest, simulator, PCA, row parser
    # and generic reference, for one BLAS thread on the build they were recorded with
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "path_hashes.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[1:] for line in proc.stdout.splitlines()]
    assert verdicts == [["ok", name] for name in
                        ("estimators", "ingest", "simulator", "pca", "row-parser", "generic")]


def test_perfbench_tests_pass():
    # perfbench builds and calls library names, and its own tests catch a rename or a dropped
    # argument; they run in a subprocess, since both test trees import a module named conftest
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""One child process of the benchmark: the set-up or the measurement of a workload.

``run.py`` starts it with the BLAS thread count already in its environment,
so the count is fixed before numpy loads.

setup    imports, generates the inputs from the seed into DIR/inputs, runs
         the untimed warm-up pass and writes DIR/ready.json with the
         monotonic clock reading at that point and a digest of the inputs.
measure  imports, loads the inputs a set-up wrote, runs a checked warm-up
         pass, then timed passes for at least SECONDS and MIN_PASSES
         passes, and writes DIR/result.json. With --trace 1 every other
         pass is traced and the spans go to DIR/spans.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spotvol

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 20
MAX_MEASURE_S = 120.0  # keeps a run under the three-minute limit on a slow machine
YARDSTICK_REPS = 7


class Yardstick:
    """A fixed slice of interpreter and numpy work, timed to track the machine's speed.

    On a shared machine the same pass can run 1.5 times slower for minutes
    at a time while a neighbour is busy; a yardstick timed next to each pass
    slows with it, so pass time over yardstick time stays steady.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.times = np.sort(rng.random(4000))
        self.dx = rng.standard_normal(4000)
        self.freqs = np.arange(48)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(80_000):
            acc += (i * i) % 7
        np.exp(-2j * np.pi * np.outer(self.freqs, self.times)) @ self.dx
        return time.perf_counter() - start

    def median(self, reps: int = YARDSTICK_REPS) -> float:
        return float(np.median([self() for _ in range(reps)]))


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(directory.iterdir()):
        h.update(file.name.encode())
        h.update(file.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def setup(workload, seed: int, directory: Path) -> None:
    inputs_dir = directory / "inputs"
    warm_dir = directory / "warmup"
    inputs_dir.mkdir(parents=True)
    warm_dir.mkdir()
    workload.generate(seed, inputs_dir)
    workload.run_pass(workload.load(inputs_dir), warm_dir)
    ready = time.monotonic()
    record = {"ready": ready, "yardstick": Yardstick().median(), "digest": _digest(inputs_dir)}
    (directory / "ready.json").write_text(json.dumps(record))


def measure(workload, inputs_dir: Path, directory: Path, seconds: float, traced_run: bool) -> None:
    workdir = directory / "pass"
    workdir.mkdir(parents=True)
    inputs = workload.load(inputs_dir)
    warm = workload.run_pass(inputs, workdir)
    warm_failures = workload.check(inputs, warm)

    yardstick = Yardstick()
    yardstick.median()  # warm
    recorder = spans.SpanRecorder()
    installed = spans.install(recorder) if traced_run else spans.Installed()
    passes = []
    last = None
    begin = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - begin
            if (elapsed >= seconds and len(passes) >= MIN_PASSES) or elapsed >= MAX_MEASURE_S:
                break
            i = len(passes)
            machine = yardstick()
            is_traced = traced_run and i % 2 == 1
            recorder.pass_id = i if is_traced else None
            start = time.perf_counter()
            try:
                out = workload.run_pass(inputs, workdir)
            except Exception as exc:  # a pass that raises counts as failed; the run goes on
                out, failures = None, [f"raised: {type(exc).__name__}: {exc}"]
            took = time.perf_counter() - start
            recorder.pass_id = None
            if out is not None:
                failures = workload.check(inputs, out, warm)
                last = i
            passes.append({"seconds": took, "yardstick": machine, "traced": is_traced,
                           "ok": out is not None, "failures": failures})
    finally:
        installed.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # once-per-run checks, on the warm-up output that every pass reproduced
    once_failures = workload.check_once(inputs, warm)
    if once_failures and last is not None:
        passes[last]["failures"] += once_failures

    result = {
        "workload": workload.name,
        "params": {k: getattr(workload, k) for k in workload.__dataclass_fields__},
        "matrices_per_pass": workload.grid * len(workload.forms),
        "passes": passes,
        "warmup_failures": warm_failures,
        "once_failures": once_failures,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": workload.accuracy(inputs, warm),
        "absent": installed.absent,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "spotvol": str(Path(spotvol.__file__).resolve().parent.relative_to(ROOT)),
        },
    }
    if traced_run:
        pass_seconds = {i: p["seconds"] for i, p in enumerate(passes) if p["traced"] and p["ok"]}
        untraced = [p["seconds"] for p in passes if not p["traced"] and p["ok"]]
        untraced_p50 = float(np.median(untraced)) if untraced else float("nan")
        result["layers"] = spans.layer_metrics(recorder.spans, pass_seconds, untraced_p50,
                                               workload.grid)
        result["shares"] = spans.layer_shares(recorder.spans, pass_seconds)
        result["count_errors"] = recorder.count_errors
        (directory / "spans.json").write_text(json.dumps(recorder.to_json()))
    (directory / "result.json").write_text(json.dumps(result, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, help="inputs directory written by a set-up")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = Path(spotvol.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"spotvol was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.stage == "setup":
        setup(workload, args.seed, args.dir)
    else:
        if args.inputs is None:
            parser.error("measure needs --inputs")
        measure(workload, args.inputs, args.dir, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

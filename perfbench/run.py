"""Benchmark of the spotvol estimate -> PCA pipeline, end to end and per layer.

    python3 perfbench/run.py --workload day-estimate --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; spotvol is imported from ./src.
Workloads: day-estimate, paper-d12, intraday-grid (see workloads.py).

A run starts SETUP_REPS set-up processes, each importing the program,
generating the inputs from the seed and running an untimed warm-up pass;
``setup_s`` is the median time from process start to the end of that
warm-up. A measuring process then loads the first set-up's inputs and
runs timed passes for at least --seconds, checking every pass outside the
timed region. Generating inputs in other processes keeps it out of the
measuring process's peak resident memory.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 every other pass is
traced by wrappers on the program's public functions and the object holds
the per-layer metrics. Everything before it is a readable report. Results
and spans are kept under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import COUNT_KINDS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
# One BLAS thread: the matrices are small, and on a shared two-core machine
# a second thread adds more jitter than speed.
BLAS_THREADS = 1
# A fixed glibc mmap threshold turns off its run-time tuning, which otherwise
# moves the peak resident memory of a run by several megabytes depending on
# the order of allocations. The value is the largest the tuning can reach.
MMAP_THRESHOLD = 32 * 1024 * 1024
DEADLINE_S = 170.0
TAIL_BEYOND = 10
# Times are reported scaled to a machine on which the yardstick (worker.py)
# takes 20 ms, using the yardstick timed before each pass; raw wall times
# are kept beside them in the report and in result.json.
YARDSTICK_REF_S = 0.02
SMOOTH = 2  # yardsticks of this many passes on each side set a pass's machine speed

class BenchError(RuntimeError):
    """The run could not produce a result."""


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with at least ten samples above it.

    With ten samples or fewer no percentile qualifies and the maximum is
    returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, xs[rank - 1]
    return 100, xs[-1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


def run_child(args: list[str], deadline: float) -> float:
    """Run worker.py to completion; returns the monotonic time it was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{args[0]} exited with status {code}")
    return started


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, traced: bool, out: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups, digests = [], set()
    for rep in range(SETUP_REPS):
        rep_dir = out / f"setup{rep}"
        started = run_child(["setup", "--workload", workload, "--seed", str(seed),
                             "--dir", str(rep_dir)], deadline)
        ready = json.loads((rep_dir / "ready.json").read_text())
        setups.append({"seconds": ready["ready"] - started, "yardstick": ready["yardstick"]})
        digests.add(ready["digest"])
    measure_dir = out / "measure"
    run_child(["measure", "--workload", workload, "--seed", str(seed), "--dir", str(measure_dir),
               "--inputs", str(out / "setup0" / "inputs"), "--seconds", str(seconds),
               "--trace", str(int(traced))], deadline)
    result = json.loads((measure_dir / "result.json").read_text())
    result["setup_s_each"] = setups
    result["inputs_identical"] = len(digests) == 1
    return result


def scaled(seconds: float, yardstick: float) -> float:
    return seconds * YARDSTICK_REF_S / yardstick


def summarize(result: dict) -> dict:
    passes = result["passes"]
    ys = [p["yardstick"] for p in passes]
    timed, raw = [], []
    for i, p in enumerate(passes):
        if p["ok"] and not p["traced"]:
            speed = statistics.median(ys[max(0, i - SMOOTH): i + SMOOTH + 1])
            timed.append(scaled(p["seconds"], speed))
            raw.append(p["seconds"])
    failed = sum(1 for p in passes if p["failures"])
    p50 = statistics.median(timed)
    q, tail = tail_percentile(timed)
    return {
        "attempted": len(passes),
        "failed": failed,
        "samples": len(timed),
        "setup_s": statistics.median(scaled(s["seconds"], s["yardstick"])
                                     for s in result["setup_s_each"]),
        "setup_s_raw": statistics.median(s["seconds"] for s in result["setup_s_each"]),
        "yardstick_s": statistics.median(ys),
        "pass_s_p50_raw": statistics.median(raw),
        "pass_s_p50": p50,
        "pass_s_tail": tail,
        "tail_percentile": q,
        "matrices_per_s": result["matrices_per_pass"] / p50,
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_share": failed / len(passes),
        "rel_frob_err": result["accuracy"]["rel_frob_err"],
        "ratio_err": result["accuracy"].get("ratio_err"),
    }


def report(result: dict, summary: dict, traced: bool, spec: dict) -> None:
    meta = result["meta"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == result["workload"])
    print(f"workload {result['workload']}: {why}")
    print(f"  params {result['params']}")
    print(f"  git {meta['git']}, python {meta['python']}, numpy {meta['numpy']}, "
          f"BLAS {meta['blas']['name']} {meta['blas']['version']}, "
          f"{meta['blas_threads']} BLAS thread(s), nproc {meta['nproc']}")
    s = summary
    print(f"  times scaled by {YARDSTICK_REF_S} s / yardstick (median yardstick "
          f"{s['yardstick_s']:.4g} s); raw wall times: setup {s['setup_s_raw']:.4g} s, "
          f"pass p50 {s['pass_s_p50_raw']:.4g} s")
    rows = [
        ("setup_s", s["setup_s"], "s", f"median of {len(result['setup_s_each'])} set-ups"),
        ("pass_s_p50", s["pass_s_p50"], "s", f"median of {s['samples']} untraced passes"),
        ("pass_s_tail", s["pass_s_tail"], "s", f"p{s['tail_percentile']} of {s['samples']} passes"),
        ("matrices_per_s", s["matrices_per_s"], "1/s",
         f"{result['matrices_per_pass']} matrices per pass / pass_s_p50"),
        ("peak_rss_mb", s["peak_rss_mb"], "MB", "measuring process, inputs generated elsewhere"),
        ("failed_share", s["failed_share"], "ratio", f"{s['failed']} of {s['attempted']} passes"),
        ("rel_frob_err", s["rel_frob_err"], "ratio", "psd_factorized vs oracle on [0.1, 0.9]"),
    ]
    if s["ratio_err"] is not None:
        rows.append(("ratio_err", s["ratio_err"], "ratio", "score's mean eigen-share error"))
    print("  end to end:")
    for name, value, unit, base in rows:
        print(f"    {name:<16} {value:>14.6g} {unit:<6} {base}")
    failures = sorted({f.split(":")[0] for p in result["passes"] for f in p["failures"]}
                      | {f.split(":")[0] for f in result["warmup_failures"]})
    print(f"  checks: {'all passed' if not failures else 'FAILED ' + ', '.join(failures)}; "
          f"set-up inputs {'identical' if result['inputs_identical'] else 'DIFFER'} "
          "across set-ups")
    if not traced:
        return
    layers = result["layers"]
    print("  per layer (median per traced pass; times measured unless marked):")
    for name in sorted(layers):
        kind = COUNT_KINDS.get(name, "")
        print(f"    {name:<48} {layers[name]:>14.6g} {kind}")
    print(f"    base: traced pass {layers['trace.pass_s']:.6g} s, untraced pass "
          f"{s['pass_s_p50_raw']:.6g} s (raw medians), grid {result['params']['grid']} points")
    print("  self-time share of the traced pass:")
    for name, share in sorted(result["shares"].items(), key=lambda kv: -kv[1]):
        print(f"    {name:<48} {share:>8.1%}")
    if result["absent"]:
        print(f"  absent wrapped names: {', '.join(result['absent'])}")
    for name, err in result["count_errors"].items():
        print(f"  count for {name} unavailable: {err}")
    declared = {m["name"] for m in spec["per_layer"]}
    missing = sorted(n for n in declared - set(layers) if n not in COUNT_KINDS)
    if missing:
        print(f"  declared layers that did not run: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spotvol" / "__init__.py").is_file():
        print(f"perfbench: no spotvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for work in out.glob("*/*"):
            if work.is_dir():
                shutil.rmtree(work)
    result["meta"].update(git=git_rev(), nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
                          affinity=len(os.sched_getaffinity(0)))
    summary = summarize(result)
    result["summary"] = summary
    if args.trace:
        result["layers"]["estimator.rel_frob_err"] = summary["rel_frob_err"]
    (out / "result.json").write_text(json.dumps(result, indent=1))

    report(result, summary, bool(args.trace), spec)
    if args.trace:
        metrics = {m["name"]: {"value": result["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = (summary["failed"] == 0 and not result["warmup_failures"]
               and not result["once_failures"] and result["inputs_identical"])
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

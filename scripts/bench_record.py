#!/usr/bin/env python3
"""Write one BENCH_<workload>.json per benchmark workload at the repository root.

For every workload of BENCHMARK.json it runs the benchmark as it stands,

    python3 perfbench/run.py --workload W --seed 1 --seconds 25 --trace 1

and records what that run measured: the per-layer metrics of its last
line of output, the end-to-end metrics of the summary in
``.perfbench_out/W-seed1-trace1/result.json``, the command as it ran, and
the numpy version, ``nproc`` and BLAS thread count the run reports. The git
revision is taken here, with whether tracked files other than the BENCH
files differ from it, since perfbench reports ``unknown`` outside a git
work tree. A workload whose run fails writes no file, and the script
exits 1. Run from the repository root:

    python3 scripts/bench_record.py
"""

import json
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS = 1, 25


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def record(workload: str, revision: dict) -> bool:
    """Run perfbench on one workload and write its BENCH file; False if the run failed."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr[-2000:])
        print(f"{workload}: perfbench exited with status {run.returncode}", file=sys.stderr)
        return False
    last = json.loads(run.stdout.strip().splitlines()[-1])
    result = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace1"
                         / "result.json").read_text())
    meta = result["meta"]
    bench = {
        "workload": workload,
        "command": shlex.join(cmd),
        **revision,
        "correct": last["correct"],
        "end_to_end": result["summary"],
        "per_layer": last["metrics"],
        "params": result["params"],
        "numpy": meta["numpy"],
        "blas": meta["blas"],
        "blas_threads": meta["blas_threads"],
        "nproc": meta["nproc"],
        "python": meta["python"],
    }
    path = ROOT / f"BENCH_{workload}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    s = result["summary"]
    print(f"{path.name}: pass_s_p50 {s['pass_s_p50']:.4g} s, setup_s {s['setup_s']:.4g} s, "
          f"peak_rss_mb {s['peak_rss_mb']:.4g}, failed {s['failed']}")
    return True


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    changed = git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*.json")
    revision = {"git": git("rev-parse", "HEAD") or "unknown",
                "git_dirty": None if changed is None else bool(changed)}
    ok = [record(w["name"], revision) for w in spec["workloads"]]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

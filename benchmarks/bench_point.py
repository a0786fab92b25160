"""One point of the performance trajectory: ``BENCH_<pr>.json``.

    python3 benchmarks/bench_point.py --pr N
    python3 benchmarks/bench_point.py --pr M --tree ../parent --commit <sha>

Runs ``perfbench/run.py --trace 0`` of the checkout at ``--tree``
(default: this one) ``--runs`` times on each workload perfbench declares,
the workloads interleaved so drift of the box spreads over all of them,
run ``i`` on seed ``i``; perfbench sets the run length.  Writes the
commit, the box (nproc, CPU model), the run count and, per workload, the
median and interquartile range of every end-to-end metric, plus the
failed share of operations.  Each change appends its point;
EXPERIMENTS.md tabulates them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit_of(tree: Path) -> str:
    """``HEAD`` of ``tree``, with ``+dirty`` when a tracked file differs."""
    head = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    if head.returncode != 0:
        return "unknown"
    status = subprocess.run(
        ["git", "-C", str(tree), "status", "--porcelain",
         "--untracked-files=no"],
        capture_output=True, text=True,
    )
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def perfbench_workloads(tree: Path) -> tuple[str, ...]:
    """The workloads the perfbench of ``tree`` declares."""
    sys.path.insert(0, str(tree / "perfbench"))
    from run import WORKLOADS

    return WORKLOADS


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run; the last stdout line is its JSON report."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(run.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--tree", type=Path, default=Path.cwd())
    parser.add_argument("--commit", default=None,
                        help="commit of --tree (default: git rev-parse)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    tree = args.tree.resolve()
    commit = args.commit or commit_of(tree)
    workloads = perfbench_workloads(tree)
    reports: dict[str, list[dict]] = {w: [] for w in workloads}
    started = time.time()
    for seed in range(args.runs):
        for workload in workloads:
            reports[workload].append(run_once(tree, workload, seed))
            print(f"run {seed + 1}/{args.runs} {workload}: ok", flush=True)

    point = {
        "pr": args.pr,
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "runs": args.runs,
        "seeds": list(range(args.runs)),
        "wall_s": round(time.time() - started, 1),
        "workloads": {},
    }
    for workload, runs in reports.items():
        metrics = sorted({name for run in runs for name in run["metrics"]})
        point["workloads"][workload] = {
            "failed_frac": summarize([
                run["failed"] / max(1, run["attempted"]) for run in runs
            ]),
            "metrics": {
                name: summarize([
                    run["metrics"][name]["value"] for run in runs
                    if name in run["metrics"]
                ]) | {"unit": runs[0]["metrics"][name]["unit"]}
                for name in metrics
            },
        }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

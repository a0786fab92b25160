"""Per-layer solver sessions on the re-synthesis encode+solve path.

Runs the paper cases through the progressive flow twice — once on the
one-shot path (every pass re-encodes each layer from scratch) and once
with persistent solver sessions patched by deltas — and records per-case
wall clock, encode+solve time, and result quality.

A session re-assembles the exact standard form a scratch build produces,
so both variants must return the same chip; the timings are the input
for the keep-or-delete verdict on sessions.
"""

from __future__ import annotations

import dataclasses
import time

from repro.assays import benchmark_assay
from repro.hls import SynthesisSpec, synthesize

CASES = (1, 2, 3)
BASE = SynthesisSpec(
    max_devices=25,
    threshold=4,
    time_limit=20.0,
    mip_gap=0.05,
    max_iterations=3,
    improvement_threshold=-1.0,
)
VARIANTS = {
    # One-shot solve(model) calls: every pass re-encodes every layer.
    "oneshot": dict(enable_solver_sessions=False),
    # Session pool + delta encoding.
    "incremental": dict(enable_solver_sessions=True),
}

_RESULTS: dict = {}


def _run(case: int, variant: str):
    if (case, variant) not in _RESULTS:
        spec = dataclasses.replace(BASE, **VARIANTS[variant])
        started = time.monotonic()
        result = synthesize(benchmark_assay(case), spec)
        wall = time.monotonic() - started
        _RESULTS[(case, variant)] = (result, wall)
    return _RESULTS[(case, variant)]


def _encode_solve(result) -> float:
    return sum(
        s.build_time + s.encode_time + s.solve_time for s in result.solve_stats
    )


def test_both_variants_validate(benchmark):
    def run_all():
        return [_run(case, v) for case in CASES for v in VARIANTS]

    for result, _ in benchmark.pedantic(run_all, rounds=1, iterations=1):
        result.validate()


def test_incremental_report(benchmark, record_rows):
    benchmark.pedantic(
        lambda: [_run(case, v) for case in CASES for v in VARIANTS],
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{'case':<5} {'variant':<12} {'makespan':>12} {'#D':>4} "
        f"{'solves':>7} {'encode':>8} {'solve':>8} {'enc+sol':>8} {'wall':>8}"
    ]
    for case in CASES:
        rows = {}
        for variant in VARIANTS:
            result, wall = _run(case, variant)
            encode = sum(
                s.build_time + s.encode_time for s in result.solve_stats
            )
            solve = sum(s.solve_time for s in result.solve_stats)
            rows[variant] = (result, wall, encode, solve)
            lines.append(
                f"{case:<5} {variant:<12} {str(result.fixed_makespan) + 'm':>12} "
                f"{result.num_devices:>4} {result.ilp_solves:>7} "
                f"{encode:>7.2f}s {solve:>7.2f}s {encode + solve:>7.2f}s "
                f"{wall:>7.2f}s"
            )
        one, incr = rows["oneshot"], rows["incremental"]
        es_speedup = (one[2] + one[3]) / max(incr[2] + incr[3], 1e-9)
        wall_speedup = one[1] / max(incr[1], 1e-9)
        lines.append(
            f"{case:<5} {'speedup':<12} encode+solve {es_speedup:.2f}x, "
            f"wall {wall_speedup:.2f}x"
        )

    record_rows("incremental_ilp", "\n".join(lines))

    for case in CASES:
        one = _run(case, "oneshot")[0]
        incr = _run(case, "incremental")[0]
        assert (incr.fixed_makespan, incr.num_devices) == (
            one.fixed_makespan, one.num_devices
        ), case

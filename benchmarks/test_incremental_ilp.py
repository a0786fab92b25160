"""Incremental ILP on the re-synthesis encode+solve path.

Runs the paper cases through the progressive flow twice — once on the
pre-refactor one-shot path (every pass re-encodes each layer from scratch
and solves cold) and once on the incremental path (persistent solver
sessions patched by deltas, plus the warm-start objective cutoff) — and
records per-case wall clock, encode+solve time, and result quality.

The incremental path is allowed to land on a different within-gap optimum
(the cutoff row changes tie-breaking, which is why ``warm_cutoff``
participates in solve fingerprints), so the quality assertion is a bounded
regression against the one-shot makespan, not equality.  Byte-identity of
sessions on/off under the *same* spec is asserted separately in
tests/test_solver_sessions.py and the incremental-smoke CI job.
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
    # One-shot solve(model) calls: no sessions, eager conflict rows, warm
    # starts ignored by the HiGHS wrapper — the stack before the refactor.
    "oneshot": dict(enable_solver_sessions=False, warm_cutoff=False),
    # Session pool + delta encoding + warm-start objective cutoff.
    "incremental": dict(enable_solver_sessions=True, warm_cutoff=True),
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
    speedups = {}
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
        speedups[case] = (es_speedup, wall_speedup)
        lines.append(
            f"{case:<5} {'speedup':<12} encode+solve {es_speedup:.2f}x, "
            f"wall {wall_speedup:.2f}x"
        )

    best = max(speedups.values())
    lines.append(
        f"best re-synthesis encode+solve improvement: {best[0]:.2f}x "
        f"(wall {best[1]:.2f}x)"
    )
    record_rows("incremental_ilp", "\n".join(lines))

    for case in CASES:
        one = _run(case, "oneshot")[0]
        incr = _run(case, "incremental")[0]
        # The cutoff may move within the MIP gap, never far outside it.
        assert incr.fixed_makespan <= one.fixed_makespan * (
            1 + 3 * BASE.mip_gap
        ), (case, incr.fixed_makespan, one.fixed_makespan)

    # The hard-layer case must show the headline incremental win.  The
    # committed results file records the measured factor (>= 2x there);
    # the assertion keeps slack for noisy CI machines.  Cases whose layer
    # solves are trivial are recorded as-is above — encode bookkeeping on
    # sub-second solves is allowed to wash out, not hidden.
    assert best[0] >= 1.5, speedups

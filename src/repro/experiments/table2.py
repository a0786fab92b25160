"""Table 2 — synthesis results for the three bioassays.

For every case, both methods run with the paper's published parameters:
``|D| = 25``, indeterminate threshold ``t = 10``.  Reported per method:
assay execution time (with symbolic ``I_k`` terms), number of applied
devices, number of transportation paths, and program runtime — the exact
columns of the paper's Table 2.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from ..assays import benchmark_assay
from ..baselines import synthesize_conventional
from ..hls import SynthesisSpec, synthesize
from ..hls.synthesizer import SynthesisResult

#: The paper's Table 2 values, for shape comparison in EXPERIMENTS.md.
PAPER_TABLE2 = {
    1: {"conv": ("225m", 3, 3), "ours": ("220m", 2, 2)},
    2: {"conv": ("277m+I_1", 24, 82), "ours": ("244m+I_1", 21, 33)},
    3: {"conv": ("603m+I_1+I_2", 24, 95), "ours": ("492m+I_1+I_2", 24, 85)},
}


@dataclass
class Table2Row:
    """One (case, method) row of Table 2."""

    case: int
    method: str  # "Conv." or "Our"
    num_ops: int
    num_indeterminate: int
    exe_time: str
    fixed_makespan: int
    num_devices: int
    num_paths: int
    runtime_seconds: float
    layer_statuses: list[str]

    @property
    def columns(self) -> tuple:
        return (
            self.case,
            self.method,
            self.exe_time,
            self.num_devices,
            self.num_paths,
            f"{self.runtime_seconds:.1f}s",
        )


def default_spec(time_limit: float = 20.0, max_iterations: int = 2) -> SynthesisSpec:
    """The paper's experiment parameters (|D|=25, t=10)."""
    return SynthesisSpec(
        max_devices=25,
        threshold=10,
        time_limit=time_limit,
        max_iterations=max_iterations,
    )


def _row(case: int, method: str, result: SynthesisResult, elapsed: float) -> Table2Row:
    return Table2Row(
        case=case,
        method=method,
        num_ops=len(result.assay),
        num_indeterminate=result.assay.num_indeterminate,
        exe_time=result.makespan_expression,
        fixed_makespan=result.fixed_makespan,
        num_devices=result.num_devices,
        num_paths=result.num_paths,
        runtime_seconds=elapsed,
        layer_statuses=list(result.history[-1].layer_statuses),
    )


def run_case(
    case: int, spec: SynthesisSpec | None = None
) -> tuple[Table2Row, Table2Row]:
    """Run one benchmark case; returns (conventional row, our row)."""
    spec = spec or default_spec()
    assay = benchmark_assay(case)

    started = time.monotonic()
    conv = synthesize_conventional(assay, spec)
    conv_row = _row(case, "Conv.", conv, time.monotonic() - started)

    started = time.monotonic()
    ours = synthesize(assay, spec)
    our_row = _row(case, "Our", ours, time.monotonic() - started)
    return conv_row, our_row


def run_table2(
    spec: SynthesisSpec | None = None,
    cases: tuple[int, ...] = (1, 2, 3),
) -> list[Table2Row]:
    """Run the full Table 2 experiment."""
    rows: list[Table2Row] = []
    for case in cases:
        conv_row, our_row = run_case(case, spec)
        rows.extend((conv_row, our_row))
    return rows


def scaled_spec(spec: SynthesisSpec, case: int) -> SynthesisSpec:
    """Give the large cases a larger per-layer solve budget (the paper's
    runtimes likewise grow from seconds to minutes across the cases)."""
    factor = {1: 1.0, 2: 1.5, 3: 2.0}.get(case, 1.0)
    return dataclasses.replace(spec, time_limit=spec.time_limit * factor)

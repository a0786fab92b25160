"""Table 3 — improvement from progressive re-synthesis.

For the two cases with indeterminate operations (2 and 3), report the fixed
execution time and device count of the initial pass and of every
re-synthesis iteration, plus the relative improvement per iteration —
exactly the rows of the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..assays import benchmark_assay
from ..hls import SynthesisSpec, synthesize
from .table2 import default_spec

#: The paper's Table 3 values, for shape comparison in EXPERIMENTS.md.
PAPER_TABLE3 = {
    2: {"exe": (295, 247, 244), "devices": (21, 21, 21)},
    3: {"exe": (641, 530, 492), "devices": (24, 24, 24)},
}


@dataclass
class Table3Row:
    """Re-synthesis trajectory of one case."""

    case: int
    exe_times: list[int] = field(default_factory=list)
    devices: list[int] = field(default_factory=list)
    #: solve telemetry of the underlying synthesis run (see
    #: :func:`repro.experiments.report.synthesis_profile`).
    profile: dict = field(default_factory=dict)

    @property
    def improvements(self) -> list[float]:
        """Relative improvement of each iteration over its predecessor."""
        out = []
        for before, after in zip(self.exe_times, self.exe_times[1:]):
            out.append((before - after) / before if before else 0.0)
        return out

    @property
    def total_improvement(self) -> float:
        if not self.exe_times or not self.exe_times[0]:
            return 0.0
        return (self.exe_times[0] - min(self.exe_times)) / self.exe_times[0]


def run_table3_case(
    case: int, spec: SynthesisSpec | None = None
) -> Table3Row:
    """Progressive re-synthesis trajectory for one case.

    Reported as *best-so-far* per iteration: the synthesizer always keeps
    the best pass (a time-limited ILP incumbent can regress between
    passes), so the value after iteration k is the min over passes 0..k —
    the quantity the user actually obtains after k iterations.
    """
    from .report import synthesis_profile

    spec = spec or default_spec()
    result = synthesize(benchmark_assay(case), spec)
    exe_best: list[int] = []
    dev_best: list[int] = []
    for record in result.history:
        if not exe_best or record.fixed_makespan < exe_best[-1]:
            exe_best.append(record.fixed_makespan)
            dev_best.append(record.num_devices)
        else:
            exe_best.append(exe_best[-1])
            dev_best.append(dev_best[-1])
    return Table3Row(
        case=case,
        exe_times=exe_best,
        devices=dev_best,
        profile=synthesis_profile(result),
    )


def run_table3(
    spec: SynthesisSpec | None = None,
    cases: tuple[int, ...] = (2, 3),
) -> list[Table3Row]:
    return [run_table3_case(case, spec) for case in cases]

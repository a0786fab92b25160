"""Structured traces and campaign aggregates.

Every decision the engine takes — layer dispatch, fault, recovery-policy
attempt, re-synthesis splice — becomes one :class:`TraceRecord`, exportable
as JSONL for downstream analysis.  :class:`CampaignStats` is the
deterministic aggregate over a Monte-Carlo campaign: it is computed from
the seed-sorted run list only, so the merged statistics are byte-identical
regardless of how many worker processes produced the runs.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path


#: Canonical trace record kinds, in the order the engine emits them.
TRACE_KINDS = (
    "run_start",
    "layer_dispatch",
    "op_fault",
    "policy_attempt",
    "policy_result",
    "resynthesis_splice",
    "layer_complete",
    "run_end",
)


@dataclass(frozen=True)
class TraceRecord:
    """One engine decision, timestamped on the simulated clock."""

    seed: int
    time: int
    kind: str
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "time": self.time,
            "kind": self.kind,
            **self.data,
        }


def trace_lines(records) -> list[str]:
    """Render records (or ready-made dicts) as JSONL lines, stable key order."""
    out = []
    for record in records:
        data = record.to_json() if hasattr(record, "to_json") else record
        out.append(json.dumps(data, sort_keys=True, default=str))
    return out


def write_trace(path, records) -> int:
    """Write records as JSONL; returns the number of lines written."""
    lines = trace_lines(records)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def read_trace(path) -> list[dict]:
    """Load a JSONL trace back as dicts (for tests and tooling)."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


@dataclass(frozen=True)
class CampaignStats:
    """Deterministic aggregate of one Monte-Carlo campaign.

    All distribution fields cover *completed* runs only; aborted runs
    truncate at the failing layer and would drag the makespan statistics
    down (the same bias the robustness harness used to have).  Timing
    (wall clock) is deliberately absent so the stats are reproducible
    byte-for-byte across worker counts and machines.
    """

    runs: int
    completed: int
    failed: int
    #: fraction of runs that did not complete the assay.
    failure_rate: float
    #: total recovery actions that succeeded, by policy name.
    recoveries: dict[str, int]
    #: faults that actually fired across all runs.
    faults_fired: int
    #: contingency re-synthesis splices across all runs.
    resyntheses: int
    mean_makespan: float
    median_makespan: float
    p95_makespan: float
    best_makespan: int
    worst_makespan: int

    def to_json(self) -> dict:
        return {
            "runs": self.runs,
            "completed": self.completed,
            "failed": self.failed,
            "failure_rate": self.failure_rate,
            "recoveries": dict(sorted(self.recoveries.items())),
            "faults_fired": self.faults_fired,
            "resyntheses": self.resyntheses,
            "mean_makespan": self.mean_makespan,
            "median_makespan": self.median_makespan,
            "p95_makespan": self.p95_makespan,
            "best_makespan": self.best_makespan,
            "worst_makespan": self.worst_makespan,
        }

    def to_json_text(self) -> str:
        """Canonical JSON rendering (the byte-identity comparison target)."""
        return json.dumps(self.to_json(), sort_keys=True)


def aggregate_stats(run_records) -> CampaignStats:
    """Fold seed-sorted run records into a :class:`CampaignStats`.

    ``run_records`` is any iterable of objects with ``seed``, ``makespan``,
    ``completed``, ``recoveries`` (mapping policy name -> count),
    ``faults_fired`` and ``resyntheses`` attributes; ordering does not
    matter because records are re-sorted by seed here.
    """
    records = sorted(run_records, key=lambda r: r.seed)
    runs = len(records)
    completed = [r for r in records if r.completed]
    failed = runs - len(completed)
    recoveries: dict[str, int] = {}
    for record in records:
        for policy, count in record.recoveries.items():
            recoveries[policy] = recoveries.get(policy, 0) + count
    makespans = sorted(r.makespan for r in completed)
    if makespans:
        mean = statistics.mean(makespans)
        median = statistics.median(makespans)
        # Nearest rank: the smallest makespan at least 95 % of runs reach.
        p95 = float(makespans[math.ceil(0.95 * len(makespans)) - 1])
        best, worst = makespans[0], makespans[-1]
    else:
        mean = median = p95 = 0.0
        best = worst = 0
    return CampaignStats(
        runs=runs,
        completed=len(completed),
        failed=failed,
        failure_rate=failed / runs if runs else 0.0,
        recoveries=recoveries,
        faults_fired=sum(r.faults_fired for r in records),
        resyntheses=sum(r.resyntheses for r in records),
        mean_makespan=float(mean),
        median_makespan=float(median),
        p95_makespan=float(p95),
        best_makespan=best,
        worst_makespan=worst,
    )


def format_campaign(stats: CampaignStats) -> str:
    """Human-readable campaign summary for the CLI."""
    lines = [
        f"runs           : {stats.runs}",
        f"completed      : {stats.completed}",
        f"failed         : {stats.failed}"
        f"  (failure rate {stats.failure_rate:.1%})",
        f"faults fired   : {stats.faults_fired}",
        f"resyntheses    : {stats.resyntheses}",
    ]
    if stats.recoveries:
        per_policy = ", ".join(
            f"{name}={count}" for name, count in sorted(stats.recoveries.items())
        )
        lines.append(f"recoveries     : {per_policy}")
    if stats.completed:
        lines.append(
            f"makespan       : mean {stats.mean_makespan:.1f}, "
            f"median {stats.median_makespan:.1f}, "
            f"p95 {stats.p95_makespan:.1f}, "
            f"best {stats.best_makespan}, worst {stats.worst_makespan}"
        )
    return "\n".join(lines)

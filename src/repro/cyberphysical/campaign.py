"""Parallel Monte-Carlo fault campaigns.

A campaign runs the closed-loop engine many times with consecutive seeds
under one fault plan and policy chain, shards the seeds across a
``concurrent.futures.ProcessPoolExecutor``, and merges per-worker results
*deterministically*: run records carry their seed, the merge re-sorts by
seed, and :func:`~repro.cyberphysical.trace.aggregate_stats` consumes only
the sorted list — so the merged :class:`~repro.cyberphysical.trace.CampaignStats`
is byte-identical whatever ``jobs`` was.

Policies are reconstructed inside each worker from their names (policy
objects carry a live layer-solve cache and are deliberately not shipped
across processes); within a worker the contingency-re-synthesis cache is
shared across that shard's runs, so repeated contingencies replay earlier
layer solves instead of re-paying the ILP.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..errors import SpecificationError
from ..hls.synthesizer import SynthesisResult
from ..runtime.executor import RetryModel
from .engine import ExecutionEngine
from .faults import FaultPlan
from .policies import build_policies
from .trace import CampaignStats, TraceRecord, aggregate_stats


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign run needs, in picklable form."""

    runs: int = 32
    seed: int = 0
    jobs: int = 1
    #: recovery policy names (see :func:`repro.cyberphysical.policies.build_policies`).
    policies: tuple[str, ...] = ("all",)
    faults: FaultPlan = field(default_factory=FaultPlan)
    retry_model: RetryModel = field(default_factory=RetryModel)
    #: keep per-run traces in the records (disable for very large sweeps).
    keep_traces: bool = True

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise SpecificationError("campaign needs at least one run")
        if self.jobs < 1:
            raise SpecificationError("jobs must be >= 1")
        if not isinstance(self.policies, tuple):
            object.__setattr__(self, "policies", tuple(self.policies))


@dataclass(frozen=True)
class RunRecord:
    """Picklable outcome of one engine run."""

    seed: int
    makespan: int
    completed: bool
    recoveries: dict
    faults_fired: int
    resyntheses: int
    failed_ops: tuple
    #: JSON-ready trace dicts (empty when traces are disabled).
    trace: tuple


@dataclass
class CampaignOutcome:
    """A campaign's merged result."""

    stats: CampaignStats
    records: list[RunRecord]
    wall_time: float
    jobs: int

    def trace_records(self) -> list[dict]:
        """All runs' trace dicts, seed order (ready for JSONL export)."""
        out: list[dict] = []
        for record in sorted(self.records, key=lambda r: r.seed):
            out.extend(record.trace)
        return out


def run_one(
    result: SynthesisResult,
    config: CampaignConfig,
    seed: int,
    policies=None,
) -> RunRecord:
    """Execute one seeded engine run and condense it into a record.

    ``policies`` lets a caller (or worker shard) reuse one policy chain —
    and therefore one contingency solve cache — across runs.
    """
    if policies is None:
        policies = build_policies(config.policies)
    engine = ExecutionEngine(
        result,
        policies=policies,
        fault_plan=config.faults,
        retry_model=config.retry_model,
        seed=seed,
    )
    report = engine.run()
    trace: tuple = ()
    if config.keep_traces:
        trace = tuple(r.to_json() for r in report.trace)
    return RunRecord(
        seed=seed,
        makespan=report.makespan,
        completed=report.completed,
        recoveries=report.recoveries,
        faults_fired=report.faults_fired,
        resyntheses=report.resyntheses,
        failed_ops=tuple(report.failed_ops),
        trace=trace,
    )


def _run_shard(args) -> list[RunRecord]:
    """Worker entry point: run every seed of one shard sequentially."""
    result, config, seeds = args
    policies = build_policies(config.policies)
    return [run_one(result, config, seed, policies) for seed in seeds]


def _shard_seeds(seeds: list[int], shards: int) -> list[list[int]]:
    """Contiguous, balanced shards (at most ``shards`` non-empty lists)."""
    shards = min(shards, len(seeds))
    base, remainder = divmod(len(seeds), shards)
    out: list[list[int]] = []
    cursor = 0
    for k in range(shards):
        size = base + (1 if k < remainder else 0)
        out.append(seeds[cursor : cursor + size])
        cursor += size
    return [s for s in out if s]


def run_campaign(
    result: SynthesisResult, config: CampaignConfig | None = None
) -> CampaignOutcome:
    """Run a full Monte-Carlo campaign; deterministic for a given config.

    ``config.jobs == 1`` runs inline (no process pool); higher values shard
    the seed list across worker processes.  Either way the merged records
    are sorted by seed before aggregation, so the resulting
    :class:`CampaignStats` does not depend on the worker count.
    """
    config = config or CampaignConfig()
    started = time.monotonic()
    seeds = [config.seed + k for k in range(config.runs)]

    if config.jobs == 1:
        records = _run_shard((result, config, seeds))
    else:
        shards = _shard_seeds(seeds, config.jobs)
        payloads = [(result, config, shard) for shard in shards]
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            shard_results = list(pool.map(_run_shard, payloads))
        records = [record for shard in shard_results for record in shard]

    records.sort(key=lambda r: r.seed)
    stats = aggregate_stats(records)
    return CampaignOutcome(
        stats=stats,
        records=records,
        wall_time=time.monotonic() - started,
        jobs=config.jobs,
    )


def campaign_trace(outcome: CampaignOutcome) -> list[TraceRecord]:
    """Rehydrate an outcome's trace dicts as :class:`TraceRecord` objects."""
    out = []
    for data in outcome.trace_records():
        payload = dict(data)
        seed = payload.pop("seed")
        when = payload.pop("time")
        kind = payload.pop("kind")
        out.append(TraceRecord(seed=seed, time=when, kind=kind, data=payload))
    return out

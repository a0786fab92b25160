"""In-process batch workloads: ``ilp-resynth`` and ``greedy-scale``.

A round runs every job of the plan once, JSON in -> validated JSON out:
parse (``repro.io.json_io``), ``repro.hls.synthesize``,
``repro.periodic.schedule_throughput`` for periodic jobs, and the result
report.  Each cold job is followed by replays: the same assay resubmitted
with a higher improvement threshold through the layer-solve cache the cold
job filled, so every layer replays a cached solve (the in-process
counterpart of a service store hit).
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.hls import LayerSolveCache, synthesize
from repro.io.json_io import assay_from_json, result_to_json, spec_from_json
from repro.periodic import schedule_throughput

from checks import check_result, chip_objective
from common import RefClock, digest, self_peak_rss_mb
from inputs import BatchPlan, Job


@dataclass
class Outcome:
    """Everything one measured run observed (shared with service-mix)."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: per job, (seconds, reference seconds at the time) of each run that
    #: computed its result (cold) or replayed it (hit).
    cold: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    hit: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: (timed seconds, the same in reference units) of each round.
    rounds: list[tuple[float, float]] = field(default_factory=list)
    ref: RefClock = field(default_factory=RefClock)
    #: quality sums over the first cycle's cold jobs.
    quality: Counter = field(default_factory=Counter)
    #: per-layer counts read from result fields.
    counts: Counter = field(default_factory=Counter)
    #: output digests per job key (see :func:`output_digest`).
    digests: dict[str, dict] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    #: (kind, job, seconds) of runs since the last reference sample.
    unsettled: list[tuple[str, str, float]] = field(default_factory=list)

    def settle(self, ref: float | None = None) -> float:
        """Record the runs since the last call against ``ref``; by default
        take a reference sample and use the mean of it and the previous
        one.  Returns the runs' total in reference units."""
        if ref is None:
            self.ref.sample()
            ref = self.ref.latest
        for kind, job, seconds in self.unsettled:
            getattr(self, kind).setdefault(job, []).append((seconds, ref))
        total = sum(seconds for _kind, _job, seconds in self.unsettled)
        self.unsettled.clear()
        return total / ref

    def record(self, key: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems]


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def job_key(job: Job, mode: str, threshold: float | None) -> str:
    return f"{job.name}/{mode}/{threshold if threshold is not None else 0.1}"


def execute(job: Job, spec_json: dict, cache, call=_direct):
    """One job through the public entry points; returns
    ``(seconds, result, throughput, report)``."""
    started = time.perf_counter()
    assay = call("io.parse", assay_from_json, job.assay)
    spec = call("io.parse", spec_from_json, spec_json)
    result = call("hls.synthesize", synthesize, assay, spec, cache=cache)
    throughput = None
    if spec.throughput_mode == "periodic":
        throughput = call(
            "periodic.search", schedule_throughput, result, spec
        )
    report = call("io.emit", result_to_json, result, deterministic=True)
    return time.perf_counter() - started, result, throughput, report


def output_digest(report: dict, throughput) -> dict:
    """What must stay byte-identical: the result report and, for periodic
    jobs, the steady-state schedule."""
    if throughput is None:
        return {"report": digest(report), "periodic": None, "ii": None}
    starts = sorted(throughput.schedule.starts.items())
    return {
        "report": digest(report),
        "periodic": digest({"ii": throughput.ii, "starts": starts}),
        "ii": throughput.ii,
    }


def _tamper(result, report) -> None:
    """Drop one placement, as a corrupted output would."""
    layer = result.schedule.layers[0]
    uid = next(iter(layer.placements))
    del layer.placements[uid]
    report["layers"][0]["placements"] = [
        p for p in report["layers"][0]["placements"] if p["uid"] != uid
    ]


def _count(outcome: Outcome, result, throughput) -> None:
    counts = outcome.counts
    counts["hls.cache_hits"] += result.cache_hits
    counts["hls.cache_misses"] += result.ilp_solves
    for stats in result.solve_stats:
        if not stats.cache_hit:
            counts["ilp.nodes"] += stats.nodes
            counts["ilp.limit_hits"] += stats.status in ("feasible", "timeout")
    if throughput is not None:
        counts["periodic.probes"] += len(throughput.probes)


def run_batch(
    plan: BatchPlan,
    seconds: float,
    replays: tuple[float, ...],
    require_optimal: bool,
    golden: dict[str, dict] | None,
    tracer=None,
    tamper: int | None = None,
    ref_kind: str = "python",
) -> Outcome:
    """Run rounds of ``plan`` until ``seconds`` are used, at least one
    cycle (two rounds).  With a ``tracer``, each job runs inside a ``job``
    span and the program's public functions record child spans."""
    outcome = Outcome(ref=RefClock(ref_kind))
    call = _direct
    if tracer is not None:
        tracer.clear()
        call = tracer.call

    def run(job: Job, mode: str, threshold, cache, first_cycle: bool):
        spec_json = job.spec(mode, threshold)
        gc.collect()
        seconds_, result, throughput, report = call(
            "job", execute, job, spec_json, cache, call
        )
        key = job_key(job, mode, threshold)
        if tamper is not None and outcome.attempted == tamper:
            _tamper(result, report)
        problems = check_result(result, throughput, require_optimal)
        output = output_digest(report, throughput)
        expected = outcome.digests.setdefault(key, output)
        if golden is not None:
            expected = golden.get(key)
        if output != expected:
            problems.append(f"output {output} differs from {expected}")
        outcome.record(key, problems)
        _count(outcome, result, throughput)
        if first_cycle:
            quality = outcome.quality
            quality["makespan_sum"] += report["fixed_makespan"]
            quality["objective_sum"] += chip_objective(report, spec_json)
            if "storage" in report:
                quality["storage_cost_sum"] += report["storage"]["total_cost"]
            if throughput is not None:
                quality["ii_sum"] += throughput.ii
        return seconds_

    started = time.perf_counter()
    round_index = 0
    outcome.ref.sample()
    while True:
        first_cycle = round_index < 2
        timed = timed_rel = 0.0
        for entry in plan.jobs:
            mode = plan.mode(entry, round_index)
            cache = LayerSolveCache(
                capacity=spec_from_json(entry.specs[mode]).solve_cache_capacity
            )
            cold = run(entry, mode, None, cache, first_cycle)
            outcome.unsettled.append(("cold", entry.name, cold))
            timed += cold
            for threshold in replays:
                hit = run(entry, mode, threshold, cache, False)
                outcome.unsettled.append(("hit", entry.name, hit))
                timed += hit
            timed_rel += outcome.settle()
        outcome.rounds.append((timed, timed_rel))
        round_index += 1
        elapsed = time.perf_counter() - started
        per_round = elapsed / round_index
        if round_index >= 2 and elapsed + per_round > seconds:
            break
    outcome.peak_rss_mb = self_peak_rss_mb()
    return outcome


def warm_up(job: Job) -> None:
    """Pay first-call costs (imports, HiGHS start-up) before timing."""
    execute(job, job.spec("off"), None)

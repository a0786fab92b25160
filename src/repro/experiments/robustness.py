"""Monte-Carlo robustness analysis of hybrid schedules.

The paper argues hybrid scheduling beats both extremes: purely static
schedules must reserve worst-case slots for indeterminate operations, and
purely reactive execution cannot reserve devices for time-critical steps.
This harness quantifies the static comparison: it simulates many runs of a
hybrid schedule under a retry model and contrasts the realized makespan
distribution with the static worst-case reservation.

Every run goes through the cyberphysical
:class:`~repro.cyberphysical.engine.ExecutionEngine`, optionally under
recovery policies and an injected fault plan.  Runs may fail
(``on_exhausted="fail"``, or injected faults).  Failed runs truncate at the
failing layer, so their shorter makespans are *excluded* from the
distribution — mixing them in would bias ``mean``/``best`` downward exactly
when the chip performs worst; instead they surface as ``failure_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cyberphysical import ExecutionEngine, aggregate_stats, build_policies
from ..hls.synthesizer import SynthesisResult
from ..runtime import RetryModel


@dataclass(frozen=True)
class MakespanDistribution:
    """Summary statistics of simulated makespans (successful runs only)."""

    runs: int
    mean: float
    median: float
    p95: int
    worst: int
    best: int
    #: fraction of runs where at least one indeterminate op needed a retry.
    retry_rate: float
    #: the fixed (scheduled) part common to every run.
    scheduled: int
    #: fraction of runs that failed to complete the assay; failed runs are
    #: excluded from the distribution fields above.
    failure_rate: float = 0.0

    @property
    def mean_extra(self) -> float:
        """Average realized indeterminate tail time."""
        return self.mean - self.scheduled


def simulate_makespans(
    result: SynthesisResult,
    retry_model: RetryModel | None = None,
    runs: int = 100,
    seed: int = 0,
    policies=None,
    fault_plan=None,
) -> MakespanDistribution:
    """Run the engine ``runs`` times (seeds ``seed, seed + 1, ...``) and
    summarize the makespans.

    ``policies`` is a policy chain or an iterable of policy names, and
    ``fault_plan`` an injected :class:`~repro.cyberphysical.FaultPlan`;
    recovered runs count as successes.  Without either, a run aborts at
    its first failed layer.
    """
    retry_model = retry_model or RetryModel()
    policies = list(policies or ())
    if policies and all(isinstance(p, str) for p in policies):
        policies = build_policies(policies)
    reports = [
        ExecutionEngine(
            result,
            policies=policies,
            fault_plan=fault_plan,
            retry_model=retry_model,
            seed=seed + k,
        ).run()
        for k in range(runs)
    ]
    stats = aggregate_stats(reports)
    retried = sum(
        1 for r in reports if any(tries > 1 for tries in r.attempts.values())
    )
    return MakespanDistribution(
        runs=runs,
        mean=stats.mean_makespan,
        median=stats.median_makespan,
        p95=int(stats.p95_makespan),
        worst=stats.worst_makespan,
        best=stats.best_makespan,
        retry_rate=retried / runs,
        scheduled=result.fixed_makespan,
        failure_rate=stats.failure_rate,
    )


def static_worst_case(
    result: SynthesisResult, retry_model: RetryModel | None = None
) -> int:
    """Makespan a static scheduler must reserve: every indeterminate
    operation budgeted at ``max_attempts`` times its minimum duration."""
    retry_model = retry_model or RetryModel()
    total = result.fixed_makespan
    for layer in result.schedule.layers:
        ind = [p for p in layer.placements.values() if p.indeterminate]
        if ind:
            total += max(
                (retry_model.max_attempts - 1) * p.duration for p in ind
            )
    return total


def hybrid_advantage(
    result: SynthesisResult,
    retry_model: RetryModel | None = None,
    runs: int = 100,
    seed: int = 0,
    policies=None,
    fault_plan=None,
) -> float:
    """Average chip time the hybrid schedule saves vs static reservation.

    Returns a fraction in [0, 1); 0 when the assay has no indeterminate
    operations (both schedules are identical then).  ``policies`` and
    ``fault_plan`` pass through to :func:`simulate_makespans` so the
    advantage can be measured under recovery rather than abort.
    """
    retry_model = retry_model or RetryModel()
    static = static_worst_case(result, retry_model)
    if static <= 0:
        return 0.0
    dist = simulate_makespans(
        result,
        retry_model,
        runs=runs,
        seed=seed,
        policies=policies,
        fault_plan=fault_plan,
    )
    if dist.failure_rate >= 1.0:
        return 0.0
    return max(0.0, 1.0 - dist.mean / static)

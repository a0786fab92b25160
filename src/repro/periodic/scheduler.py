"""The II search: probe candidate intervals, certify the result.

Mirrors the one-shot flow's :mod:`repro.hls.backends` table — periodic
scheduler backends are listed by name in a module-level dict and selected
through ``spec.throughput_scheduler``:

* ``ilp``    — every probe builds and solves the modulo ILP of
  :mod:`repro.periodic.model`;
* ``greedy`` — every probe runs the modulo list scheduler;
* ``auto``   — the ILP when the model is reasonably sized, degrading to
  greedy **per probe** on a solver failure
  (:class:`~repro.errors.SolverError`), a timeout without incumbent, or
  an oversized pair set.

The search itself is a guarded binary search on ``[lower bound,
one-shot makespan]``.  The one-shot schedule is always feasible at
``II = makespan`` (consecutive iterations don't overlap at all), which
anchors the search from above; every accepted probe is re-validated by
the independent replay of :mod:`repro.periodic.validate`, so a probe
whose schedule fails validation counts as infeasible instead of
corrupting the result — modulo feasibility of a *heuristic* is not
perfectly monotone in II, and the guard keeps that a quality issue, not
a correctness one.  The achieved II carries the certified ResMII lower
bound and relative gap through the standard
:class:`~repro.ilp.SolveStats` fields.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import SchedulingError, SolverError
from ..hls.spec import PERIODIC_SCHEDULERS, SynthesisSpec
from ..ilp import SolveStats, relative_gap
from .bound import ii_lower_bound
from .greedy import greedy_modulo_schedule
from .model import build_periodic_model, feasible_lengths
from .problem import PeriodicProblem, build_periodic_problem
from .validate import (
    PeriodicSchedule,
    collect_periodic_violations,
    validate_periodic_schedule,
)

#: "auto" refuses the MIP above this many interval pairs and goes greedy:
#: beyond it the per-probe solves dominate wall clock without moving the
#: achieved II much on the paper cases.
AUTO_MAX_PAIRS = 600


@dataclass
class ProbeRecord:
    """One candidate II and what happened to it."""

    ii: int
    feasible: bool
    scheduler: str
    solve_time: float


@dataclass
class ThroughputResult:
    """A validated steady-state schedule plus its search telemetry."""

    schedule: PeriodicSchedule
    stats: SolveStats
    probes: list[ProbeRecord] = field(default_factory=list)
    #: the backend that produced the accepted schedule.
    scheduler: str = ""
    #: the ILP degraded to greedy at least once (solver failure/budget).
    degraded: bool = False

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def base_makespan(self) -> int:
        return self.schedule.problem.horizon

    @property
    def latency(self) -> int:
        return self.schedule.latency

    @property
    def lower_bound(self) -> float | None:
        return self.stats.lower_bound

    @property
    def integrality_gap(self) -> float | None:
        return self.stats.integrality_gap

    @property
    def speedup(self) -> float:
        """Steady-state throughput gain over back-to-back one-shot runs."""
        return self.base_makespan / self.ii if self.ii else float("inf")


class PeriodicSchedulerBackend:
    """One strategy for answering "is this II feasible, and how?"."""

    name = "periodic"

    def attempt(
        self, problem: PeriodicProblem, ii: int, search: "_Search"
    ) -> dict[str, int] | None:
        raise NotImplementedError


@dataclass
class _Search:
    """Mutable probe state shared across one II search."""

    spec: SynthesisSpec
    degraded: bool = False
    warned: bool = False

    def degrade(self, reason: str) -> None:
        self.degraded = True
        if not self.warned:
            self.warned = True
            warnings.warn(
                f"periodic ILP unavailable ({reason}); "
                f"degrading to the greedy modulo scheduler",
                RuntimeWarning,
                stacklevel=3,
            )


class GreedyPeriodicScheduler(PeriodicSchedulerBackend):
    name = "greedy"

    def attempt(self, problem, ii, search):
        return greedy_modulo_schedule(problem, ii)


class IlpPeriodicScheduler(PeriodicSchedulerBackend):
    name = "ilp"

    def attempt(self, problem, ii, search):
        spec = search.spec
        pmodel = build_periodic_model(problem, ii)
        solution = pmodel.model.solve(
            time_limit=spec.time_limit, mip_gap=spec.mip_gap
        )
        if not solution.status.has_solution:
            return None
        return pmodel.decode(solution)


class AutoPeriodicScheduler(PeriodicSchedulerBackend):
    """ILP with per-probe greedy degradation (the default)."""

    name = "auto"

    def __init__(self) -> None:
        self._ilp = IlpPeriodicScheduler()
        self._greedy = GreedyPeriodicScheduler()

    def attempt(self, problem, ii, search):
        pair_count = sum(
            len(group) * (len(group) - 1) // 2
            for group in problem.intervals_by_resource().values()
        )
        if not search.degraded and pair_count <= AUTO_MAX_PAIRS:
            try:
                starts = self._ilp.attempt(problem, ii, search)
            except SolverError as exc:
                search.degrade(str(exc))
            else:
                if starts is not None:
                    return starts
                # No incumbent within budget: give greedy one shot at the
                # same II before declaring it infeasible.
                return self._greedy.attempt(problem, ii, search)
        if not search.degraded and pair_count > AUTO_MAX_PAIRS:
            search.degraded = True  # size-based, no warning needed
        return self._greedy.attempt(problem, ii, search)


_PERIODIC_SCHEDULERS: dict[str, Callable[[], PeriodicSchedulerBackend]] = {
    "auto": AutoPeriodicScheduler,
    "ilp": IlpPeriodicScheduler,
    "greedy": GreedyPeriodicScheduler,
}


def available_periodic_schedulers() -> tuple[str, ...]:
    return tuple(_PERIODIC_SCHEDULERS)


def create_periodic_scheduler(name: str) -> PeriodicSchedulerBackend:
    try:
        factory = _PERIODIC_SCHEDULERS[name]
    except KeyError:
        raise SchedulingError(
            f"unknown periodic scheduler {name!r} "
            f"(choices: {', '.join(_PERIODIC_SCHEDULERS)})"
        ) from None
    return factory()


# The table must stay in lockstep with the spec-level enum the CLI and
# service validate against.
assert set(PERIODIC_SCHEDULERS) == set(_PERIODIC_SCHEDULERS)


def _validated(
    problem: PeriodicProblem, ii: int, starts: dict[str, int] | None
) -> PeriodicSchedule | None:
    if starts is None:
        return None
    schedule = PeriodicSchedule(problem=problem, ii=ii, starts=starts)
    if collect_periodic_violations(schedule):
        return None
    return schedule


def schedule_throughput(
    source,
    spec: SynthesisSpec | None = None,
) -> ThroughputResult:
    """Minimize the initiation interval of ``source``.

    ``source`` is a one-shot :class:`~repro.hls.synthesizer.
    SynthesisResult` (reduced via :func:`build_periodic_problem`) or an
    already-built :class:`PeriodicProblem`.  Returns a validated
    :class:`ThroughputResult`; raises :class:`SchedulingError` only when
    even the one-shot baseline fails periodic validation (which would
    mean the one-shot result itself is broken).
    """
    if isinstance(source, PeriodicProblem):
        problem = source
    else:
        problem = build_periodic_problem(source)
    spec = spec or problem.spec

    started = time.monotonic()
    bound, certificate = ii_lower_bound(problem)
    backend = create_periodic_scheduler(spec.throughput_scheduler)
    search = _Search(spec=spec)
    probes: list[ProbeRecord] = []

    best = _validated(problem, max(problem.horizon, 1), problem.baseline_starts)
    if best is None:
        raise SchedulingError(
            "one-shot schedule fails periodic replay at II = makespan; "
            "the synthesis result is inconsistent"
        )
    best_scheduler = "baseline"

    floor = max(bound, 1)
    if spec.target_ii is not None:
        floor = max(floor, spec.target_ii)

    lo, hi = floor, best.ii
    while lo < hi:
        mid = (lo + hi) // 2
        probe_started = time.monotonic()
        starts = None
        if feasible_lengths(problem, mid):
            starts = backend.attempt(problem, mid, search)
        schedule = _validated(problem, mid, starts)
        probes.append(
            ProbeRecord(
                ii=mid,
                feasible=schedule is not None,
                scheduler=backend.name,
                solve_time=time.monotonic() - probe_started,
            )
        )
        if schedule is not None:
            best = schedule
            best_scheduler = backend.name
            hi = mid
        else:
            lo = mid + 1

    validate_periodic_schedule(best)
    stats = SolveStats(
        layer=-1,
        backend=f"periodic-{backend.name}",
        status="FEASIBLE" if best.ii > bound else "OPTIMAL",
        solve_time=time.monotonic() - started,
        objective=float(best.ii),
        lower_bound=float(bound),
    )
    stats.integrality_gap = relative_gap(stats.objective, stats.lower_bound)
    if certificate is None:
        # The arithmetic ResMII bound holds regardless, but without an
        # OPTIMAL LP certificate the gap is reported, not certified.
        stats.status += " (uncertified-lp)"
    return ThroughputResult(
        schedule=best,
        stats=stats,
        probes=probes,
        scheduler=best_scheduler,
        degraded=search.degraded,
    )

"""Scheduler backends: the strategies for one layer solve.

Extracted from the old monolithic ``synthesizer._solve_layer`` so the
per-layer solve is a first-class, isolated stage.  A
:class:`SchedulerBackend` turns a
:class:`~repro.hls.milp_model.LayerProblem` into a
:class:`~repro.hls.decode.LayerSolveResult`:

* ``ilp-highs`` — the layer ILP alone, no fallback race;
* ``greedy`` — the list-scheduling heuristic alone;
* ``lp-bound`` — the greedy schedule plus a certified LP-relaxation lower
  bound (no ILP search; the degraded service path pins this one);
* ``portfolio`` (default) — the paper flow: the ILP raced against
  previous-pass reuse and the greedy schedule on :func:`layer_cost`, with
  the seed's fallback ladder.

The module-level ``_SCHEDULERS`` dict is the closed list of names;
:func:`create_scheduler` rejects any other.

Every backend attaches certified-quality telemetry to its
:class:`~repro.ilp.SolveStats`: the achieved layer objective, a proven
lower bound when one exists (the LP-relaxation optimum or the MIP dual
bound — never the requested ``spec.mip_gap`` tolerance echoed back), and
the resulting integrality gap.

Uid discipline: backends allocate device uids for *the returned result
only* (never for discarded race candidates), so the caller's allocator
advances by exactly ``len(result.new_devices)`` per solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Protocol

from ..errors import InfeasibleError, ReproError, SchedulingError, SolverError
from ..ilp import (
    Solution,
    SolveStats,
    SolveStatus,
    relative_gap,
    relaxation_bound,
)
from .decode import LayerSolveResult, decode_layer_solution
from .heuristic import schedule_layer_greedy
from .milp_model import (
    LayerModel,
    LayerProblem,
    build_layer_model,
    encode_layer_start,
)
from .schedule import LayerSchedule
from .transport import path_key

if TYPE_CHECKING:
    from ..ilp.highs import HighsSession
    from .session import SessionPool
    from .spec import SynthesisSpec

#: Wall-clock cap (seconds) on one LP-relaxation bound solve.  The LP is
#: polynomial — far cheaper than the ILP it bounds — so a short budget is
#: enough on the paper cases, and keeps the bound from eating the layer's
#: solve budget on pathological models.
LP_BOUND_BUDGET = 10.0


def layer_cost(
    result: LayerSolveResult, problem: LayerProblem, spec: "SynthesisSpec"
) -> float:
    """Evaluate a decoded layer result under the layer ILP's objective.

    Used to compare the ILP incumbent against the greedy fallback on equal
    terms: weighted makespan + cost of newly integrated devices + newly
    created transportation paths.
    """
    costs = spec.cost_model
    weights = spec.weights
    area = sum(d.area(costs) for d in result.new_devices)
    processing = sum(d.processing_cost(costs) for d in result.new_devices)

    new_paths: set[tuple[str, str]] = set()

    def note(dev_a: str, dev_b: str) -> None:
        if dev_a != dev_b:
            pair = path_key(dev_a, dev_b)
            if pair not in problem.existing_paths:
                new_paths.add(pair)

    for parent, child in problem.in_layer_edges:
        note(result.binding[parent], result.binding[child])
    for parent_device, child in problem.incoming:
        note(parent_device, result.binding[child])
    for parent, child_device in problem.outgoing:
        note(result.binding[parent], child_device)

    # Storage pressure, mirroring the ILP objective exactly: ``w`` per
    # crossing edge bound apart (the model charges ``w * (1 - od)`` when
    # co-binding is legal and the constant ``w`` when it is not — both
    # reduce to "charged unless bound together").
    storage = 0.0
    for (parent_device, child), weight in problem.storage_in.items():
        if result.binding[child] != parent_device:
            storage += weight
    for (parent, child_device), weight in problem.storage_out.items():
        if result.binding[parent] != child_device:
            storage += weight

    return (
        weights.time * result.schedule.makespan
        + weights.area * area
        + weights.processing * processing
        + weights.paths * len(new_paths)
        + storage
    )


def _relaxation_bound(
    layer_model: LayerModel, spec: "SynthesisSpec"
) -> Solution | None:
    """Solve the layer LP relaxation; the optimum certifies a lower bound.

    Returns the LP :class:`Solution` when it solved to optimality, else
    ``None`` — a time- or iteration-limited LP proves nothing and must not
    be reported as a bound.
    """
    return relaxation_bound(
        layer_model.model, time_limit=min(spec.time_limit, LP_BOUND_BUDGET)
    )


def _solution_bound(solution: Solution | None) -> float | None:
    """The proven dual bound a MIP solve carries, if any.

    An OPTIMAL solve without an explicit dual bound is its own bound; a
    time-limited solve only certifies what its solver proved (which may be
    nothing — then ``None``, never the incumbent objective).
    """
    if solution is None:
        return None
    bound = solution.bound
    if bound is None and solution.status is SolveStatus.OPTIMAL:
        bound = solution.objective
    if bound is None or not math.isfinite(bound):
        return None
    return bound


def _certify(
    stats: SolveStats,
    result: LayerSolveResult,
    problem: LayerProblem,
    spec: "SynthesisSpec",
    bound: float | None,
) -> SolveStats:
    """Attach the achieved objective and the certified bound to ``stats``.

    ``bound`` is a proven lower bound on the layer objective or ``None``;
    the recorded gap is the *achieved* one, computed from the result, never
    the requested ``spec.mip_gap`` tolerance.  A bound a hair above the
    achieved cost (LP/ILP tolerance noise) is clamped down to it, so
    ``lower_bound <= objective`` holds exactly.
    """
    cost = layer_cost(result, problem, spec)
    stats.objective = cost if math.isfinite(cost) else None
    if bound is not None and math.isfinite(bound) and stats.objective is not None:
        stats.lower_bound = min(bound, cost)
        stats.integrality_gap = relative_gap(cost, stats.lower_bound)
    return stats


def _load_highs() -> None:
    """Import SciPy's HiGHS bindings before a backend starts its clocks.

    The first import in a process takes about half a second; loaded
    inside the timed model acquisition it was charged to the first
    layer's ``encode_time``.  Still lazy: only backends that solve with
    HiGHS call this, so ``import repro`` and the greedy path never load
    SciPy.
    """
    from ..ilp import highs  # noqa: F401


def _acquire_layer_model(
    problem: LayerProblem,
    spec: "SynthesisSpec",
    sessions: "SessionPool | None",
) -> tuple[LayerModel, "HighsSession | None"]:
    """The layer model for ``problem`` plus its solver session, if any.

    With a session pool (and ``spec.enable_solver_sessions``), the model
    comes from the pool — delta-mutated in place when the previous pass's
    session can absorb the change, freshly built otherwise — and solves go
    through the attached :class:`~repro.ilp.highs.HighsSession`.  Without one,
    the model is built from scratch and solved statelessly; results are
    identical either way (the session re-assembles the same standard form).
    """
    if sessions is not None and spec.enable_solver_sessions:
        session = sessions.acquire(problem, spec)
        return session.layer_model, session.solver
    return build_layer_model(problem, spec), None


def _run_layer_solve(
    layer_model: LayerModel,
    solver: "HighsSession | None",
    spec: "SynthesisSpec",
) -> Solution:
    """One layer MIP solve, in-session when ``solver`` is given."""
    if solver is not None:
        return solver.solve(time_limit=spec.time_limit, mip_gap=spec.mip_gap)
    return layer_model.model.solve(
        time_limit=spec.time_limit, mip_gap=spec.mip_gap
    )


def _candidate_allocator() -> Callable[[], str]:
    """Uid source for race candidates; winners are renamed by the caller."""
    counter = [0]

    def allocate() -> str:
        uid = f"cand#{counter[0]}"
        counter[0] += 1
        return uid

    return allocate


def rename_new_devices(
    result: LayerSolveResult, allocate_uid: Callable[[], str]
) -> LayerSolveResult:
    """Re-issue the result's new-device uids from ``allocate_uid``.

    Draws exactly ``len(result.new_devices)`` uids, in new-device order, and
    rewrites the binding and schedule accordingly.  Fixed-device references
    are untouched.
    """
    if not result.new_devices:
        return result
    mapping = {d.uid: allocate_uid() for d in result.new_devices}
    new_devices = [replace(d, uid=mapping[d.uid]) for d in result.new_devices]
    binding = {
        op: mapping.get(dev, dev) for op, dev in result.binding.items()
    }
    schedule = LayerSchedule(index=result.schedule.index)
    for placement in result.schedule.placements.values():
        schedule.place(
            replace(
                placement,
                device_uid=mapping.get(
                    placement.device_uid, placement.device_uid
                ),
            )
        )
    return replace(
        result, binding=binding, schedule=schedule, new_devices=new_devices
    )


class SchedulerBackend(Protocol):
    """One strategy for solving a single layer.

    ``solve`` must draw uids for the returned result's new devices (and
    nothing else) from ``allocate_uid``; ``warm_from`` is the previous
    pass's result for this layer, already rebased onto the problem's fixed
    devices, or ``None``; the pipeline builds it only for backends whose
    ``reads_warm_start`` is true.  ``sessions`` is the run's solver-session
    pool (or ``None``); backends that build the layer MIP acquire their
    model through it so re-solves mutate a live model instead of
    re-encoding.
    """

    name: str
    reads_warm_start: bool

    def solve(
        self,
        problem: LayerProblem,
        spec: "SynthesisSpec",
        allocate_uid: Callable[[], str],
        warm_from: LayerSolveResult | None = None,
        sessions: "SessionPool | None" = None,
    ) -> LayerSolveResult: ...


class GreedyBackend:
    """The list-scheduling heuristic alone (always feasible, never optimal)."""

    name = "greedy"
    reads_warm_start = False

    def solve(
        self,
        problem: LayerProblem,
        spec: "SynthesisSpec",
        allocate_uid: Callable[[], str],
        warm_from: LayerSolveResult | None = None,
        sessions: "SessionPool | None" = None,
    ) -> LayerSolveResult:
        build_started = time.monotonic()
        try:
            result = schedule_layer_greedy(problem, spec, allocate_uid)
        except SchedulingError as exc:
            raise SolverError(
                f"layer {problem.layer_index}: greedy scheduler failed: {exc}"
            ) from exc
        result.stats = SolveStats(
            layer=problem.layer_index,
            backend="heuristic",
            status=result.solver_status,
            build_time=time.monotonic() - build_started,
        )
        _certify(result.stats, result, problem, spec, None)
        return result


class IlpBackend:
    """The layer ILP alone, no fallback race."""

    name = "ilp-highs"
    reads_warm_start = False

    def solve(
        self,
        problem: LayerProblem,
        spec: "SynthesisSpec",
        allocate_uid: Callable[[], str],
        warm_from: LayerSolveResult | None = None,
        sessions: "SessionPool | None" = None,
    ) -> LayerSolveResult:
        _load_highs()
        encode_started = time.monotonic()
        layer_model, solver = _acquire_layer_model(problem, spec, sessions)
        encode_time = time.monotonic() - encode_started
        solution = _run_layer_solve(layer_model, solver, spec)
        if solution.status.has_solution:
            result = decode_layer_solution(layer_model, solution, allocate_uid)
            base = solution.stats
            result.stats = SolveStats(
                layer=problem.layer_index,
                backend=base.backend if base else "highs",
                status=result.solver_status,
                nodes=base.nodes if base else 0,
                build_time=encode_time,
                encode_time=encode_time,
                solve_time=base.solve_time if base else 0.0,
            )
            _certify(
                result.stats, result, problem, spec,
                _solution_bound(solution),
            )
            return result
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                f"layer {problem.layer_index} is infeasible under |D|="
                f"{spec.max_devices}"
            )
        raise SolverError(
            f"layer {problem.layer_index}: no solution within "
            f"{spec.time_limit}s on backend {self.name!r}"
        )


class PortfolioBackend:
    """ILP, greedy, and previous-pass reuse race (the paper flow).

    The greedy list scheduler is cheap and always feasible, so it doubles
    as both a fallback (when the ILP finds no incumbent in time) and a
    quality floor (when the ILP's time-limited incumbent is poor).

    ``warm_from``, the previous pass's result for this layer, re-enters the
    race as a candidate whenever it is still feasible for the current
    problem, so a time-limited re-solve can never regress below what the
    previous pass already achieved.  That floor is also what lets
    re-synthesis converge: a reused solution keeps the binding stable,
    which keeps the transport estimates stable, which lets the next pass
    hit the solve cache.  It is encoded against the layer model only when
    a race or fallback asks for it; an OPTIMAL solve never does.
    """

    name = "portfolio"
    reads_warm_start = True

    def solve(
        self,
        problem: LayerProblem,
        spec: "SynthesisSpec",
        allocate_uid: Callable[[], str],
        warm_from: LayerSolveResult | None = None,
        sessions: "SessionPool | None" = None,
    ) -> LayerSolveResult:
        _load_highs()
        build_started = time.monotonic()
        greedy: LayerSolveResult | None = None
        if spec.allow_heuristic_fallback:
            try:
                greedy = schedule_layer_greedy(
                    problem, spec, _candidate_allocator()
                )
            except SchedulingError:
                greedy = None

        encode_started = time.monotonic()
        layer_model, solver = _acquire_layer_model(problem, spec, sessions)
        encode_time = time.monotonic() - encode_started
        build_time = time.monotonic() - build_started

        def warm_candidate() -> LayerSolveResult | None:
            """The previous pass's solution, re-decoded for this problem."""
            if warm_from is None:
                return None
            warm_values = encode_layer_start(layer_model, warm_from)
            if warm_values is None:
                return None
            reused = decode_layer_solution(
                layer_model,
                Solution(
                    status=SolveStatus.FEASIBLE,
                    objective=layer_model.model.objective.value(warm_values),
                    values=warm_values,
                    backend="reuse",
                ),
                _candidate_allocator(),
            )
            reused.solver_status = "warm"
            return reused

        # The certified bound for this layer, resolved at most once: the
        # ILP's proven dual bound when it has one, else the LP-relaxation
        # optimum (so even all-heuristic outcomes leave with a certificate).
        bound_cache: dict[str, float | None] = {}

        def certified_bound(solution: Solution | None) -> float | None:
            if "bound" not in bound_cache:
                bound = _solution_bound(solution)
                if bound is None:
                    relaxed = _relaxation_bound(layer_model, spec)
                    bound = relaxed.objective if relaxed is not None else None
                bound_cache["bound"] = bound
            return bound_cache["bound"]

        def finalize(
            result: LayerSolveResult, solution: Solution | None = None
        ) -> LayerSolveResult:
            base = solution.stats if solution is not None else None
            result = rename_new_devices(result, allocate_uid)
            result.stats = SolveStats(
                layer=problem.layer_index,
                backend=base.backend if base else "heuristic",
                status=result.solver_status,
                nodes=base.nodes if base else 0,
                build_time=build_time,
                encode_time=encode_time,
                solve_time=base.solve_time if base else 0.0,
                cache_hit=False,
            )
            _certify(
                result.stats, result, problem, spec, certified_bound(solution)
            )
            return result

        try:
            solution = _run_layer_solve(layer_model, solver, spec)
        except SolverError:
            fallback = warm_candidate() or greedy
            if fallback is not None:
                return finalize(fallback)
            raise

        if solution.status.has_solution:
            ilp_result = decode_layer_solution(
                layer_model, solution, _candidate_allocator()
            )
            if solution.status is SolveStatus.OPTIMAL:
                return finalize(ilp_result, solution)
            # Time-limited incumbent: race it against the previous pass's
            # solution and the greedy schedule.  Candidate order breaks cost
            # ties — reuse first, for binding stability across passes.
            candidates = [
                c
                for c in (warm_candidate(), ilp_result, greedy)
                if c is not None
            ]
            winner = min(
                candidates, key=lambda c: layer_cost(c, problem, spec)
            )
            return finalize(winner, solution)
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                f"layer {problem.layer_index} is infeasible under |D|="
                f"{spec.max_devices}"
            )
        fallback = warm_candidate() or greedy
        if fallback is not None:
            return finalize(fallback, solution)
        raise SolverError(
            f"layer {problem.layer_index}: no solution within "
            f"{spec.time_limit}s and fallback disabled"
        )


class LpBoundBackend:
    """The greedy schedule plus a certified LP-relaxation lower bound.

    No ILP search runs: the schedule is the list scheduler's (always
    feasible, runtime bounded by the layer size), and the LP relaxation of
    the layer ILP supplies a proven lower bound on the layer objective —
    so the result reports "within X% of optimal" without ever exposing the
    run to the exact solver's wall clock.  The degraded service path pins
    this backend for exactly that trade.
    """

    name = "lp-bound"
    reads_warm_start = False

    def solve(
        self,
        problem: LayerProblem,
        spec: "SynthesisSpec",
        allocate_uid: Callable[[], str],
        warm_from: LayerSolveResult | None = None,
        sessions: "SessionPool | None" = None,
    ) -> LayerSolveResult:
        _load_highs()
        build_started = time.monotonic()
        try:
            result = schedule_layer_greedy(problem, spec, allocate_uid)
        except SchedulingError as exc:
            raise SolverError(
                f"layer {problem.layer_index}: greedy scheduler failed: {exc}"
            ) from exc
        # The model exists only to be relaxed once — no re-solves to
        # amortize, so this backend stays eager and session-free.
        encode_started = time.monotonic()
        layer_model = build_layer_model(problem, spec)
        encode_time = time.monotonic() - encode_started
        build_time = time.monotonic() - build_started
        relaxed = _relaxation_bound(layer_model, spec)
        result.stats = SolveStats(
            layer=problem.layer_index,
            backend="lp-bound",
            status=result.solver_status,
            build_time=build_time,
            encode_time=encode_time,
            solve_time=relaxed.runtime if relaxed is not None else 0.0,
        )
        _certify(
            result.stats, result, problem, spec,
            relaxed.objective if relaxed is not None else None,
        )
        return result


_SCHEDULERS: dict[str, Callable[[], SchedulerBackend]] = {
    "portfolio": PortfolioBackend,
    "greedy": GreedyBackend,
    "ilp-highs": IlpBackend,
    "lp-bound": LpBoundBackend,
}


def available_schedulers() -> tuple[str, ...]:
    return tuple(_SCHEDULERS)


def create_scheduler(name: str) -> SchedulerBackend:
    try:
        factory = _SCHEDULERS[name]
    except KeyError:
        choices = ", ".join(available_schedulers())
        raise ReproError(
            f"unknown scheduler {name!r} (choices: {choices})"
        ) from None
    return factory()


#: The scheduler a degraded (timeout-fallback) re-run pins: the greedy
#: list scheduler plus a short-budget LP bound — it never runs the exact
#: ILP search, so its runtime is bounded by the layer size alone, and the
#: re-run still leaves with a certified integrality gap instead of a
#: blind "degraded" flag.
DEGRADED_SCHEDULER = "lp-bound"


def degraded_spec(spec: "SynthesisSpec") -> "SynthesisSpec":
    """A copy of ``spec`` pinned to the always-feasible degraded path.

    Used by the synthesis service when a job's ILP solve exceeds its
    wall-clock budget: the re-run keeps every problem-defining knob
    (device cap, threshold, weights, transport model) but swaps the
    per-layer scheduler for :data:`DEGRADED_SCHEDULER` and skips
    re-synthesis refinement passes, trading solution quality for a
    bounded, predictable runtime.  Results produced this way are flagged
    ``degraded`` on the wire — with the certified gap the LP bound proves
    — and never stored as the run's canonical result.
    """
    return replace(
        spec,
        scheduler=DEGRADED_SCHEDULER,
        max_iterations=0,
        improvement_threshold=max(0.0, spec.improvement_threshold),
        # The degraded path never runs the exact ILP, so ``time_limit``
        # only caps the LP bound solve — don't let the (too-small) budget
        # that failed the original run starve the certificate as well.
        time_limit=max(spec.time_limit, LP_BOUND_BUDGET),
    )

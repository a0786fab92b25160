"""Compiler-style pass pipeline for progressive re-synthesis (Sec. 3.2).

The old 650-line ``synthesizer.py`` interleaved layering, the pass loop,
per-layer problem construction, solving, convergence checks, and
validation in one function.  This module sequences them as explicit
stages over a :class:`~repro.hls.context.SynthesisContext`:

    LayeringStage
      → PassLoop( TransportRefineStage
                  → LayerSolveStage per layer
                  → StoragePlanStage
                  → ConvergenceStage )
      → ValidateStage

Synthesis semantics are unchanged: the initial pass solves layers front to
back with forward device inheritance (``D_i = D_{i-1} ∪ D'_i``), every
re-synthesis pass gives layer ``L_i`` the previous pass's device set
``D \\ D'_i`` (Fig. 6), transportation times are refined between passes
(Sec. 4.1), and iteration stops on the paper's improvement rule or on
full solve-cache convergence.  What changed is that each piece is now a
replaceable object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from ..devices.device import GeneralDevice
from ..layering import LayeringResult, layer_assay
from ..operations.assay import Assay
from .backends import create_scheduler
from .cache import LayerSolveCache
from .context import PassState, SynthesisContext, beats
from .decode import LayerSolveResult
from .milp_model import LayerProblem
from .schedule import LayerSchedule
from .spec import SynthesisSpec
from .transport import TransportEstimator

if TYPE_CHECKING:
    from .session import SessionPool
    from .synthesizer import SynthesisResult


# ---------------------------------------------------------------------------
# Layer-problem construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerEdges:
    """One layer's dependency edges, each tuple in ``assay.edges`` order."""

    #: both ends in the layer.
    inner: tuple[tuple[str, str], ...]
    #: parent in an earlier layer, child in this one.
    incoming: tuple[tuple[str, str], ...]
    #: parent in this layer, child in a later one.
    outgoing: tuple[tuple[str, str], ...]

    @property
    def touching(self) -> tuple[tuple[str, str], ...]:
        """Every edge with an end in the layer."""
        return self.inner + self.incoming + self.outgoing


def layer_edge_index(
    assay: Assay, layering: LayeringResult
) -> dict[int, LayerEdges]:
    """Every layer's :class:`LayerEdges`, from one pass over the edges."""
    layer_of = layering.layer_of
    groups = {layer.index: ([], [], []) for layer in layering.layers}
    for edge in assay.edges:
        parent_layer = layer_of[edge[0]]
        child_layer = layer_of[edge[1]]
        if parent_layer == child_layer:
            groups[parent_layer][0].append(edge)
        else:
            groups[child_layer][1].append(edge)
            groups[parent_layer][2].append(edge)
    return {
        index: LayerEdges(tuple(inner), tuple(incoming), tuple(outgoing))
        for index, (inner, incoming, outgoing) in groups.items()
    }


def prepare_layer_problem(
    assay: Assay,
    layering: LayeringResult,
    spec: SynthesisSpec,
    transport: TransportEstimator,
    state: PassState,
    layer,
    resynthesis: bool,
) -> LayerProblem:
    """Build layer ``layer``'s solve problem from the evolving pass state.

    The layer's edges come from ``state.layer_edges`` and its existing
    paths from ``state.path_counts``, so the work scales with the layer
    (plus one copy of the path set), not with the assay.

    On re-synthesis passes this also *mutates* ``state``: the layer's own
    previously-born devices are dropped (unless another layer's current
    binding still references them), realizing the paper's ``D \\ D'_i``
    inheritance.  Whether one is referenced is read from ``state.refs``
    less the layer's own ops, not from a scan of the whole binding.

    The problem carries a copy of ``state.inventory``, so the greedy
    scheduler registers the inherited devices one configuration at a
    time.
    """
    edges = state.layer_edges[layer.index]
    ops = [assay[uid] for uid in layer.uids]
    in_edges = list(edges.inner)
    edge_transport = {e: transport.edge_time(*e) for e in in_edges}
    # Each op's release margin is its slowest in-layer outgoing transfer
    # (``transport.release_time`` within the layer), read off the
    # layer's own edges.
    slowest: dict[str, int] = {}
    for (parent, _), transfer in edge_transport.items():
        if parent not in slowest or transfer > slowest[parent]:
            slowest[parent] = transfer
    release = {uid: slowest.get(uid, 0) for uid in layer.uids}

    binding = state.binding
    if resynthesis:
        own: dict[str, int] = {}
        for uid in layer.uids:
            device = binding.get(uid)
            if device is not None:
                own[device] = own.get(device, 0) + 1
        refs = state.refs
        droppable = [
            uid
            for uid, born in state.born.items()
            if born == layer.index and refs.get(uid, 0) == own.get(uid, 0)
        ]
        for uid in droppable:
            state.drop_device(uid)

    fixed_devices = list(state.devices.values())
    free_slots = max(0, spec.max_devices - len(fixed_devices))

    incoming = [(binding[p], c) for p, c in edges.incoming if p in binding]
    outgoing = [(p, binding[c]) for p, c in edges.outgoing if c in binding]
    # Paths already implied by edges not touching this layer.
    existing_paths = set(state.path_counts)
    for key, count in state.layer_paths(layer.index).items():
        if state.path_counts[key] == count:
            existing_paths.discard(key)

    # Storage pressure (extension): each cross-layer edge whose endpoints
    # bind apart will have to buffer its reagent once per spanned layer
    # boundary; charge that as a linear objective bias so layer solves
    # prefer co-locating long-lived intermediates.  Empty in off mode,
    # keeping every downstream code path byte-identical to the paper flow.
    storage_in: dict[tuple[str, str], float] = {}
    storage_out: dict[tuple[str, str], float] = {}
    pressure = spec.storage_pressure_weight()
    if pressure > 0:
        layer_of = layering.layer_of
        for p, c in edges.incoming:
            if p in binding:
                span = layer.index - layer_of[p]
                key = (binding[p], c)
                storage_in[key] = storage_in.get(key, 0.0) + pressure * span
        for p, c in edges.outgoing:
            if c in binding:
                span = layer_of[c] - layer.index
                key = (p, binding[c])
                storage_out[key] = storage_out.get(key, 0.0) + pressure * span

    return LayerProblem(
        layer_index=layer.index,
        ops=ops,
        in_layer_edges=in_edges,
        edge_transport=edge_transport,
        release=release,
        fixed_devices=fixed_devices,
        free_slots=free_slots,
        incoming=incoming,
        outgoing=outgoing,
        existing_paths=existing_paths,
        storage_in=storage_in,
        storage_out=storage_out,
        inventory=state.inventory.copy(),
    )


def apply_layer_result(
    state: PassState, layer_index: int, result: LayerSolveResult
) -> None:
    """Fold one layer's solve into the pass state."""
    state.results[layer_index] = result
    for device in result.new_devices:
        state.add_device(device, layer_index)
    state.bind_layer(layer_index, result.binding)


def rebase_warm_result(
    result: LayerSolveResult,
    fixed_devices: list[GeneralDevice],
    previous_devices: dict[str, GeneralDevice],
) -> LayerSolveResult | None:
    """Translate a previous pass's layer result onto the current device set.

    Earlier layers of the current pass may have replaced inherited devices
    with freshly-allocated ones, so the old binding can reference uids that
    no longer exist.  Stale references are remapped onto structurally
    identical current fixed devices (same container, capacity, accessories,
    signature); the result's own new devices are left alone because the
    start-vector encoder maps those onto free slots positionally.  Returns
    ``None`` when a stale device has no unclaimed structural twin, which
    means the earlier layers genuinely changed the device mix and the old
    solution cannot carry over.
    """
    fixed_uids = {d.uid for d in fixed_devices}
    own_uids = {d.uid for d in result.new_devices}
    stale = sorted(
        {
            uid
            for uid in result.binding.values()
            if uid not in fixed_uids and uid not in own_uids
        }
    )
    if not stale:
        return result

    def token(device: GeneralDevice):
        return (
            device.container,
            device.capacity,
            frozenset(device.accessories),
            device.signature,
        )

    taken = set(result.binding.values())
    pool: dict[tuple, list[str]] = {}
    for device in fixed_devices:
        if device.uid not in taken:
            pool.setdefault(token(device), []).append(device.uid)
    mapping: dict[str, str] = {}
    for uid in stale:
        old = previous_devices.get(uid)
        twins = pool.get(token(old)) if old is not None else None
        if not twins:
            return None
        mapping[uid] = twins.pop(0)

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
    return replace(result, binding=binding, schedule=schedule)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class LayeringStage:
    """Split the assay into layers of at most ``t`` indeterminate ops."""

    name = "layering"

    def run(self, context: SynthesisContext) -> None:
        context.layering = layer_assay(context.assay, context.spec.threshold)
        context.layer_edges = layer_edge_index(context.assay, context.layering)


class TransportRefineStage:
    """Refine transportation estimates from the latest binding (Sec. 4.1)."""

    name = "transport_refine"

    def run(self, context: SynthesisContext) -> None:
        context.transport.refine(context.current.binding)


class LayerSolveStage:
    """Solve one layer: cache replay, else the scheduler backend.

    The scheduler backend is chosen by ``spec.scheduler`` (see
    ``hls/backends.py``).  Layers of a backend without
    ``uses_solve_cache`` (``greedy``, ``lp-bound``) bypass the cache (see
    ``hls/cache.py``): they are neither keyed, stored nor replayed, so
    such a run leaves a given cache untouched.
    """

    name = "layer_solve"

    def solve(
        self,
        problem: LayerProblem,
        spec: SynthesisSpec,
        allocate_uid: Callable[[], str],
        cache: LayerSolveCache | None = None,
        warm_from: LayerSolveResult | None = None,
        sessions: "SessionPool | None" = None,
    ) -> LayerSolveResult:
        backend = create_scheduler(spec.scheduler)
        if cache is None or not backend.uses_solve_cache:
            return backend.solve(
                problem, spec, allocate_uid, warm_from, sessions=sessions
            )
        key = cache.key(problem, spec)
        replayed = cache.lookup(problem, spec, allocate_uid, key=key)
        if replayed is not None:
            return replayed
        result = backend.solve(
            problem, spec, allocate_uid, warm_from, sessions=sessions
        )
        cache.store(problem, spec, result, key=key)
        return result


class StoragePlanStage:
    """Synthesize the storage plan of a scheduled pass (extension).

    Runs between layer solving and the next transport refinement: every
    layer-crossing reagent gets a hold / channel / reservoir decision
    (see :mod:`repro.storage`).  A no-op returning ``None`` when
    ``storage_mode`` is ``off``.
    """

    name = "storage_plan"

    def run(self, context: SynthesisContext, state: PassState):
        if context.spec.storage_mode == "off":
            return None
        from ..storage import plan_storage

        return plan_storage(
            context.assay, context.layering, state.schedule(), context.spec
        )


class ConvergenceStage:
    """The paper's iteration rule plus full-cache-convergence early stop.

    The early stop needs cache hits, so it never fires for ``greedy`` or
    ``lp-bound`` runs: with a negative threshold they run
    ``max_iterations`` re-synthesis
    passes unless a pass worsens the makespan by the threshold or more.
    """

    name = "convergence"

    def should_stop(
        self,
        context: SynthesisContext,
        previous_makespan: int,
        candidate: PassState,
    ) -> bool:
        improvement = (
            (previous_makespan - candidate.fixed_makespan) / previous_makespan
            if previous_makespan
            else 0.0
        )
        if improvement <= context.spec.improvement_threshold:
            return True
        # Every layer replayed an earlier solve: the loop has converged.
        return candidate.all_cache_hits


class PassLoop:
    """Initial pass + re-synthesis iterations over the layer sequence."""

    name = "pass_loop"

    def __init__(self, layer_solve: LayerSolveStage | None = None) -> None:
        self.layer_solve = layer_solve or LayerSolveStage()
        self.transport_refine = TransportRefineStage()
        self.storage_plan = StoragePlanStage()
        self.convergence = ConvergenceStage()

    def run(self, context: SynthesisContext) -> None:
        current = self.run_pass(context, previous=None)
        context.history.append(self._record(context, 0, current))
        best = current

        for iteration in range(1, context.spec.max_iterations + 1):
            previous_makespan = current.fixed_makespan
            refine_started = time.monotonic()
            self.transport_refine.run(self._with_current(context, current))
            refine_time = time.monotonic() - refine_started
            candidate = self.run_pass(context, previous=current)
            record = self._record(context, iteration, candidate)
            record.stage_timings[self.transport_refine.name] = refine_time
            context.history.append(record)
            if beats(candidate, best, context.assay, context.spec):
                best = candidate
            stop = self.convergence.should_stop(
                context, previous_makespan, candidate
            )
            current = candidate
            if stop:
                break

        context.current = current
        context.best = best

    @staticmethod
    def _with_current(
        context: SynthesisContext, current: PassState
    ) -> SynthesisContext:
        context.current = current
        return context

    def run_pass(
        self,
        context: SynthesisContext,
        previous: PassState | None,
    ) -> PassState:
        """One pass over all layers; records per-stage wall time."""
        assay = context.assay
        spec = context.spec
        timings = {"prepare": 0.0, "solve": 0.0, "apply": 0.0}

        state = (
            PassState(context.layer_edges)
            if previous is None
            else previous.continued()
        )
        state.transport_snapshot = context.transport.snapshot()
        state.transport_estimator = context.transport.fork()
        # Only some backends read the previous pass's layer result.
        warm_start = (
            previous is not None
            and create_scheduler(spec.scheduler).reads_warm_start
        )

        for layer in context.layering.layers:
            stamp = time.monotonic()
            problem = prepare_layer_problem(
                assay,
                context.layering,
                spec,
                context.transport,
                state,
                layer,
                resynthesis=previous is not None,
            )
            warm_from = (
                previous.results.get(layer.index) if warm_start else None
            )
            if warm_from is not None:
                warm_from = rebase_warm_result(
                    warm_from, problem.fixed_devices, previous.devices
                )
            timings["prepare"] += time.monotonic() - stamp

            stamp = time.monotonic()
            result = self.layer_solve.solve(
                problem,
                spec,
                context.uids,
                cache=context.cache,
                warm_from=warm_from,
                sessions=context.sessions,
            )
            timings["solve"] += time.monotonic() - stamp

            stamp = time.monotonic()
            apply_layer_result(state, layer.index, result)
            timings["apply"] += time.monotonic() - stamp

        # Prune devices nothing references anymore (e.g. replaced during
        # re-synthesis).
        for uid in [u for u in state.devices if u not in state.refs]:
            state.drop_device(uid)
        self._last_timings = timings
        return state

    def _record(
        self, context: SynthesisContext, index: int, state: PassState
    ) -> "IterationRecord":
        from .synthesizer import IterationRecord

        plan = state.storage_plan = self.storage_plan.run(context, state)
        return IterationRecord(
            index=index,
            fixed_makespan=state.fixed_makespan,
            num_devices=len(state.used_devices()),
            num_paths=len(state.path_counts),
            storage_demand=None if plan is None else plan.demand,
            storage_cost=None if plan is None else plan.total_cost,
            layer_statuses=[
                state.results[i].solver_status for i in sorted(state.results)
            ],
            runtime=time.monotonic() - context.started,
            layer_stats=[
                state.results[i].stats
                for i in sorted(state.results)
                if state.results[i].stats is not None
            ],
            stage_timings=dict(getattr(self, "_last_timings", {})),
        )


class ValidateStage:
    """Assemble the final result from the best pass and validate it."""

    name = "validate"

    def run(self, context: SynthesisContext) -> "SynthesisResult":
        from .synthesizer import SynthesisResult

        best = context.best
        schedule = best.schedule()
        paths = schedule.transportation_paths(context.assay.edges)
        result = SynthesisResult(
            assay=context.assay,
            spec=context.spec,
            layering=context.layering,
            schedule=schedule,
            devices=best.used_devices(),
            paths=paths,
            history=context.history,
            runtime=time.monotonic() - context.started,
            transport=best.transport_estimator or context.transport,
            edge_transport=dict(best.transport_snapshot),
            cache_counters=(
                context.cache.counters() if context.cache is not None else {}
            ),
            # Planned when the pass loop recorded the pass.
            storage_plan=best.storage_plan,
        )
        result.validate()
        return result


class SynthesisPipeline:
    """The full flow: layering → pass loop → validation."""

    def __init__(
        self,
        layering: LayeringStage | None = None,
        pass_loop: PassLoop | None = None,
        validate: ValidateStage | None = None,
    ) -> None:
        self.layering = layering or LayeringStage()
        self.pass_loop = pass_loop or PassLoop()
        self.validate = validate or ValidateStage()

    @property
    def stages(self) -> tuple:
        return (self.layering, self.pass_loop, self.validate)

    def run(self, context: SynthesisContext) -> "SynthesisResult":
        self.layering.run(context)
        self.pass_loop.run(context)
        return self.validate.run(context)

"""Cross-pass layer-solve caching for progressive re-synthesis.

The re-synthesis loop (paper Sec. 3.2) repeatedly re-solves every layer's
ILP, but once the transportation estimates and the device inventory stop
changing, consecutive passes pose *identical* per-layer problems — pure
wasted solver time on the Table 2/3 hot path.  This module memoizes decoded
:class:`~repro.hls.decode.LayerSolveResult` objects keyed by a canonical
fingerprint of the :class:`~repro.hls.milp_model.LayerProblem` (plus the
solve-relevant :class:`~repro.hls.spec.SynthesisSpec` fields).

Device uids are *canonicalized* in the fingerprint — fixed devices are
referred to by their position in ``problem.fixed_devices``, new devices by
their slot index — so a hit replays cleanly into the current pass's
inventory even though every pass re-allocates fresh device uids.  Replay
maps the canonical references back onto the current fixed-device uids and
materializes new devices through the caller's uid allocator, so a hit
gives the stored schedule, binding structure and objective at near-zero
cost.

Only layers solved by a HiGHS-backed scheduler are cached
(:class:`repro.hls.pipeline.LayerSolveStage`).  The greedy list scheduler
breaks ties on raw device uids, which the key names by position, so a
replayed greedy layer could differ from a fresh solve; and a greedy layer
rarely poses a problem an earlier pass posed, so keying it is mostly
cost.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from ..devices.device import GeneralDevice
from ..ilp import SolveStats
from ..operations.assay import Assay
from ..operations.operation import Operation
from .decode import LayerSolveResult
from .milp_model import LayerProblem
from .schedule import LayerSchedule, OpPlacement
from .spec import SynthesisSpec

#: Canonical reference to a device: ("fixed", index into fixed_devices) or
#: ("new", index into the result's new_devices).
_DeviceRef = tuple[str, int]


def _device_token(device: GeneralDevice) -> tuple:
    """Configuration of a device, independent of its uid."""
    return (
        device.container.value,
        device.capacity.value,
        tuple(sorted(device.accessories)),
        device.signature,
    )


def _cached_token(device: GeneralDevice) -> tuple[tuple, str]:
    """``_device_token(device)`` and its repr, computed once per device
    object.

    Devices are frozen, so the pair never goes stale; it is kept in the
    instance dict, as :func:`functools.cached_property` would keep it.
    """
    try:
        return device.__dict__["_cache_token"]
    except KeyError:
        token = _device_token(device)
        pair = device.__dict__["_cache_token"] = (token, repr(token))
        return pair


def _op_token_repr(op: Operation) -> str:
    """``repr`` of an operation's entry in the layer ops token, computed
    once per operation object.

    Operations (and their durations) are frozen, so the string never goes
    stale; it is kept in the instance dict like :func:`_cached_token`.
    """
    try:
        return op.__dict__["_layer_token"]
    except KeyError:
        text = op.__dict__["_layer_token"] = repr(
            (
                op.uid,
                op.duration.scheduled,
                op.is_indeterminate,
                op.requirement_signature(),
            )
        )
        return text


def _ops_repr(ops: list[Operation]) -> str:
    """``repr`` of a layer problem's ops token, from cached entries."""
    return _tuple_repr([_op_token_repr(op) for op in ops])


def _tuple_repr(parts: list[str]) -> str:
    """``repr`` of a tuple whose items have the reprs ``parts``."""
    if len(parts) == 1:
        return "(" + parts[0] + ",)"
    return "(" + ", ".join(parts) + ")"


def _spec_token(spec: SynthesisSpec) -> tuple:
    """The spec fields a layer solve depends on.

    Transportation parameters are deliberately absent: their effect is
    already captured through ``edge_transport`` and ``release`` in the
    problem itself.
    """
    weights = spec.weights
    costs = spec.cost_model
    return (
        spec.max_devices,
        spec.binding_mode.value,
        # Retired knobs stay pinned to their only remaining values, so the
        # token keeps its bytes (service store keys, fingerprint_run, are
        # persisted): the solver backend ("auto") here; the warm-start
        # switch (True), warm-start cutoff (False) and conflict-encoding
        # mode ("eager") below.  Solver sessions are deliberately absent:
        # a session re-assembles the exact standard form a scratch build
        # produces.
        "auto",
        spec.scheduler,
        spec.time_limit,
        spec.mip_gap,
        spec.allow_heuristic_fallback,
        True,
        False,
        "eager",
        (weights.time, weights.area, weights.processing, weights.paths),
        tuple(sorted((k[0].value, k[1].value, v) for k, v in costs.area.items())),
        tuple(
            sorted(
                (k[0].value, k[1].value, v)
                for k, v in costs.container_processing.items()
            )
        ),
        tuple(sorted(costs.accessory_processing.items())),
        costs.default_accessory_processing,
        tuple(sorted(spec.registry.names)),
        # Storage knobs (extension): modes must never share cached solves
        # or stored run results — the pressure terms change objectives.
        (
            spec.storage_mode,
            spec.storage_capacity,
            (
                spec.storage_weights.hold,
                spec.storage_weights.channel,
                spec.storage_weights.reservoir,
            ),
        ),
    )


def _run_spec_token(spec: SynthesisSpec) -> tuple:
    """Every spec field that can change a whole synthesis run's outcome.

    Extends :func:`_spec_token` (the per-layer-solve fields) with the
    run-level knobs: the layering threshold, the re-synthesis iteration
    policy, and the transportation-estimation parameters.  Fields that
    only change *how fast* an identical result is produced —
    ``enable_solve_cache``, ``solve_cache_capacity`` — are deliberately
    excluded.
    """
    progression = spec.transport_progression
    return (
        _spec_token(spec),
        spec.threshold,
        spec.max_iterations,
        spec.improvement_threshold,
        spec.transport_default,
        (progression.minimum, progression.maximum, progression.terms),
        # Throughput knobs (extension): they never change the one-shot
        # synthesis result, but they do change what a *job* produces (the
        # periodic payload block), so runs must not share fingerprints
        # across modes.
        (
            spec.throughput_mode,
            spec.target_ii,
            spec.throughput_scheduler,
            spec.throughput_variants,
        ),
    )


def _assay_token(assay: Assay) -> tuple:
    """Canonical content token of an assay (name excluded)."""
    ops_token = tuple(
        (
            op.uid,
            op.duration.minimum,
            op.is_indeterminate,
            op.capacity.value,
            op.container.value if op.container else None,
            tuple(sorted(op.accessories)),
            op.function,
        )
        for op in sorted(assay, key=lambda op: op.uid)
    )
    edges_token = tuple(sorted(assay.edges))
    return (ops_token, edges_token)


def fingerprint_run(
    assay: Assay, spec: SynthesisSpec, method: str = "hls"
) -> str:
    """Canonical fingerprint of one whole synthesis run's input.

    Two invocations with the same assay content, the same solve-relevant
    spec fields, and the same ``method`` ("hls" or "conventional") pose
    the identical synthesis problem — the addressing key of the service
    result store (:mod:`repro.service.store`) and of request coalescing
    (:mod:`repro.service.queue`).  The assay *name* is excluded: renaming
    an assay does not change its synthesis.
    """
    payload = ("synthesis-run-v1", method, _assay_token(assay),
               _run_spec_token(spec))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _ref_order(item: tuple) -> tuple:
    """Total sort key for token tuples holding canonical device references.

    A reference is an int (fixed-device position) or, for an unknown uid,
    the raw string; ints order first.  Agrees with the natural tuple order
    wherever that is defined.
    """
    return tuple((isinstance(x, str), x) for x in item)


def _sorted_token(items) -> tuple:
    """``items`` sorted, as a tuple.

    Well-formed problems only hold int references, so their tokens sort
    naturally and keep their bytes.  Where an unknown uid's string meets
    an int at one tuple position the natural comparison fails; those
    tokens sort by :func:`_ref_order` instead.
    """
    items = list(items)
    try:
        return tuple(sorted(items))
    except TypeError:
        return tuple(sorted(items, key=_ref_order))


def fingerprint_layer_problem(problem: LayerProblem, spec: SynthesisSpec) -> str:
    """Canonical fingerprint of one layer solve's complete input.

    Covers the ops (durations, component requirements, indeterminacy), the
    in-layer dependency structure with its transportation estimates, release
    margins, the *configurations* of the inherited devices, the free-slot
    budget, cross-layer device bindings (incoming/outgoing), the already-paid
    transportation paths, and the solve-relevant spec fields.  Fixed-device
    uids are replaced by their list position, so renaming the inventory
    between passes does not break matching.
    """
    fixed = problem.fixed_devices
    canon = {d.uid: i for i, d in enumerate(fixed)}

    def canon_uid(uid: str):
        # Unknown uids (never the case for well-formed problems) degrade to
        # the raw string: correct, merely less shareable.
        return canon.get(uid, uid)

    edges_token = tuple(
        sorted(
            (parent, child, problem.edge_transport[(parent, child)])
            for parent, child in problem.in_layer_edges
        )
    )
    release_token = tuple(sorted(problem.release.items()))
    incoming_token = _sorted_token(
        (canon_uid(parent), child) for parent, child in problem.incoming
    )
    outgoing_token = _sorted_token(
        (parent, canon_uid(child)) for parent, child in problem.outgoing
    )
    storage_token = (
        _sorted_token(
            (canon_uid(dev), child, weight)
            for (dev, child), weight in problem.storage_in.items()
        ),
        _sorted_token(
            (parent, canon_uid(dev), weight)
            for (parent, dev), weight in problem.storage_out.items()
        ),
    )
    paths_token = _sorted_token(
        _canon_path(a, b, canon) for a, b in problem.existing_paths
    )
    # The reprs of the payload tuple's items: the ops and devices tokens
    # are built from cached reprs.
    payload = [
        repr("layer-solve-v1"),
        repr(problem.layer_index),
        _ops_repr(problem.ops),
        repr(edges_token),
        repr(release_token),
        _tuple_repr([_cached_token(d)[1] for d in fixed]),
        repr(problem.free_slots),
        repr(incoming_token),
        repr(outgoing_token),
        repr(paths_token),
        repr(storage_token),
        repr(_spec_token(spec)),
    ]
    return hashlib.sha256(_tuple_repr(payload).encode()).hexdigest()


def _canon_path(a: str, b: str, canon: dict[str, int]) -> tuple:
    """One path's canonical pair: its ends' fixed-device positions (an
    unknown uid kept as its raw string), smaller ``repr`` first."""
    ref_a = canon.get(a, a)
    ref_b = canon.get(b, b)
    return (ref_a, ref_b) if repr(ref_a) <= repr(ref_b) else (ref_b, ref_a)


def structural_fingerprint_layer_problem(
    problem: LayerProblem, spec: SynthesisSpec
) -> str:
    """Fingerprint of a layer problem's *structure* — everything except the
    transportation estimates and release margins.

    This is the session-pool key (:mod:`repro.hls.session`): two problems
    that match structurally build models with identical variables and rows
    whose only differences are coefficient/rhs/bound *values* derived from
    ``edge_transport`` and ``release`` — exactly what
    :func:`repro.hls.milp_model.encode_layer_delta` can patch in place.
    Raw device uids are used because the model's variable layout depends
    on them (it sorts device pairs by uid ``repr`` when laying out path
    variables).
    """
    devices_token = tuple(
        (d.uid, _cached_token(d)[0]) for d in problem.fixed_devices
    )
    payload = [
        repr("layer-session-v1"),
        repr(problem.layer_index),
        _ops_repr(problem.ops),
        repr(tuple(sorted(problem.in_layer_edges))),
        repr(devices_token),
        repr(problem.free_slots),
        repr(tuple(sorted(problem.incoming))),
        repr(tuple(sorted(problem.outgoing))),
        repr(tuple(sorted(problem.existing_paths))),
        repr(
            (
                tuple(sorted(problem.storage_in.items())),
                tuple(sorted(problem.storage_out.items())),
            )
        ),
        repr(_spec_token(spec)),
    ]
    return hashlib.sha256(_tuple_repr(payload).encode()).hexdigest()


@dataclass(frozen=True)
class _CachedPlacement:
    uid: str
    device: _DeviceRef
    start: int
    duration: int
    indeterminate: bool


@dataclass(frozen=True)
class _CachedSolve:
    """A decoded layer result with all device uids canonicalized.

    It holds no uid state, so a later pass materializes it through its own
    allocator.
    """

    placements: tuple[_CachedPlacement, ...]
    new_devices: tuple[tuple, ...]  # _device_token per new device
    objective: float
    solver_status: str
    solver_runtime: float
    backend: str
    #: certified lower bound on the layer objective, carried across replays
    #: so a cache hit keeps its quality certificate (None = uncertified).
    lower_bound: float | None


def encode_layer_result(
    problem: LayerProblem, result: LayerSolveResult
) -> _CachedSolve | None:
    """Canonicalize ``result`` against ``problem`` (uids → positions).

    Returns ``None`` when the result references devices outside the
    problem or skips one of its ops — never the case for a well-formed
    solve.
    """
    fixed_index = {d.uid: i for i, d in enumerate(problem.fixed_devices)}
    new_index = {d.uid: j for j, d in enumerate(result.new_devices)}

    placements = []
    for op in problem.ops:
        if op.uid not in result.schedule:
            return None
        placement = result.schedule[op.uid]
        uid = placement.device_uid
        if uid in new_index:
            ref: _DeviceRef = ("new", new_index[uid])
        elif uid in fixed_index:
            ref = ("fixed", fixed_index[uid])
        else:
            return None
        placements.append(
            _CachedPlacement(
                uid=op.uid,
                device=ref,
                start=placement.start,
                duration=placement.duration,
                indeterminate=placement.indeterminate,
            )
        )

    return _CachedSolve(
        placements=tuple(placements),
        new_devices=tuple(_cached_token(d)[0] for d in result.new_devices),
        objective=result.objective,
        solver_status=result.solver_status,
        solver_runtime=result.solver_runtime,
        backend=result.stats.backend if result.stats else "",
        lower_bound=result.stats.lower_bound if result.stats else None,
    )


def materialize_layer_result(
    entry: _CachedSolve, problem: LayerProblem, allocate_uid
) -> LayerSolveResult:
    """Replay an encoded solve into the current pass (no stats attached).

    New devices are materialized with fresh uids from ``allocate_uid``;
    fixed-device references resolve to the problem's current inventory.
    """
    from ..components.containers import Capacity, ContainerKind

    new_devices = [
        GeneralDevice(
            uid=allocate_uid(),
            container=ContainerKind(container),
            capacity=Capacity(capacity),
            accessories=frozenset(accessories),
            signature=signature,
        )
        for container, capacity, accessories, signature in entry.new_devices
    ]
    schedule = LayerSchedule(index=problem.layer_index)
    binding: dict[str, str] = {}
    for cached in entry.placements:
        kind, index = cached.device
        device_uid = (
            new_devices[index].uid
            if kind == "new"
            else problem.fixed_devices[index].uid
        )
        binding[cached.uid] = device_uid
        schedule.place(
            OpPlacement(
                uid=cached.uid,
                device_uid=device_uid,
                start=cached.start,
                duration=cached.duration,
                indeterminate=cached.indeterminate,
            )
        )
    return LayerSolveResult(
        schedule=schedule,
        binding=binding,
        new_devices=new_devices,
        objective=entry.objective,
        solver_status=entry.solver_status,
        solver_runtime=0.0,
    )


@dataclass
class LayerSolveCache:
    """Memoizes decoded layer results across re-synthesis passes.

    ``capacity`` bounds the entry count with least-recently-used eviction
    (``None`` = unbounded).  A long-lived process — the synthesis service,
    a Monte-Carlo campaign with contingency re-synthesis — would otherwise
    accumulate one entry per distinct layer problem forever.
    """

    capacity: int | None = None
    _entries: dict[str, _CachedSolve] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict[str, int]:
        """Hit/miss/eviction telemetry plus the current size and bound."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity if self.capacity is not None else 0,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def _touch(self, key: str) -> None:
        # dicts preserve insertion order; re-inserting moves the key to the
        # most-recently-used end.
        entry = self._entries.pop(key)
        self._entries[key] = entry

    def _insert(self, key: str, entry: _CachedSolve) -> None:
        self._entries.pop(key, None)
        self._entries[key] = entry
        if self.capacity is None:
            return
        while len(self._entries) > max(1, self.capacity):
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1

    @staticmethod
    def key(problem: LayerProblem, spec: SynthesisSpec) -> str:
        """The cache key of ``problem`` (its canonical fingerprint).

        :meth:`lookup` and :meth:`store` accept it precomputed, so a miss
        followed by a store fingerprints the problem once.
        """
        return fingerprint_layer_problem(problem, spec)

    def store(
        self,
        problem: LayerProblem,
        spec: SynthesisSpec,
        result: LayerSolveResult,
        key: str | None = None,
    ) -> None:
        """Record ``result`` under ``problem``'s fingerprint (``key``, when
        the caller already computed it with :meth:`key`).

        Results that reference devices outside the problem (never produced
        by a well-formed solve) are silently not cached.
        """
        entry = encode_layer_result(problem, result)
        if entry is None:
            return
        self._insert(key or self.key(problem, spec), entry)

    def lookup(
        self,
        problem: LayerProblem,
        spec: SynthesisSpec,
        allocate_uid,
        key: str | None = None,
    ) -> LayerSolveResult | None:
        """Replay a cached result into the current pass, if one matches.

        ``key`` is ``problem``'s :meth:`key`, when already computed.  New
        devices are materialized with fresh uids from ``allocate_uid``;
        fixed-device references resolve to the problem's current inventory.
        """
        started = time.monotonic()
        key = key or self.key(problem, spec)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)

        result = materialize_layer_result(entry, problem, allocate_uid)
        result.stats = SolveStats(
            layer=problem.layer_index,
            backend=entry.backend,
            status=entry.solver_status,
            build_time=time.monotonic() - started,
            solve_time=0.0,
            cache_hit=True,
        )
        # A hit poses the identical layer problem (same fingerprint), so
        # the original solve's certificate transfers to the replay as-is.
        from .backends import _certify

        _certify(result.stats, result, problem, spec, entry.lower_bound)
        return result

"""Shared state of one synthesis run, threaded through the pass pipeline.

The old driver kept everything in local variables of ``synthesize()``;
pulling it into an explicit :class:`SynthesisContext` lets the pipeline
stages (``hls/pipeline.py``) and the scheduler backends
(``hls/backends.py``) operate on the same state without threading a dozen
parameters around — and lets callers like the conventional baseline or
contingency re-synthesis inject their own transport estimator, solve
cache, or binding rule up front.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..devices.device import GeneralDevice
from ..layering import LayeringResult
from ..operations.assay import Assay
from .cache import LayerSolveCache
from .decode import LayerSolveResult
from .schedule import HybridSchedule
from .session import SessionPool
from .spec import SynthesisSpec
from .transport import TransportEstimator, path_key

if TYPE_CHECKING:
    from ..storage import StoragePlan
    from .pipeline import LayerEdges


class UidAllocator:
    """Deterministic ``d0, d1, ...`` device-uid source.

    Backends draw uids for adopted results only (see ``hls/backends.py``),
    so the counter advances by exactly ``len(result.new_devices)`` per
    layer solve.
    """

    def __init__(self, start: int = 0) -> None:
        self.counter = start

    def __call__(self) -> str:
        uid = f"d{self.counter}"
        self.counter += 1
        return uid


class PassState:
    """State of one synthesis pass over all layers.

    ``layer_edges`` is the layering's edge index
    (:func:`repro.hls.pipeline.layer_edge_index`), shared by every pass;
    a state without one can hold results but not bind layers.
    """

    def __init__(
        self, layer_edges: Mapping[int, LayerEdges] | None = None
    ) -> None:
        self.layer_edges = layer_edges or {}
        self.devices: dict[str, GeneralDevice] = {}
        self.born: dict[str, int] = {}
        self.results: dict[int, LayerSolveResult] = {}
        self.binding: dict[str, str] = {}
        #: path key -> number of assay edges whose ends ``binding`` maps
        #: onto that pair of distinct devices.  Changed only by
        #: :meth:`bind_layer`, so it always matches ``binding``.
        self.path_counts: dict[tuple[str, str], int] = {}
        #: per-edge transportation estimates this pass was built with.
        self.transport_snapshot: dict[tuple[str, str], int] = {}
        #: frozen estimator state matching ``transport_snapshot``.
        self.transport_estimator: TransportEstimator | None = None
        #: this pass's storage plan, set when the pass loop records the
        #: pass (``None`` when ``storage_mode`` is ``off``).
        self.storage_plan: StoragePlan | None = None

    def continued(self) -> PassState:
        """A new state starting from this one's devices and binding."""
        state = PassState(self.layer_edges)
        state.devices = dict(self.devices)
        state.born = dict(self.born)
        state.binding = dict(self.binding)
        state.path_counts = dict(self.path_counts)
        return state

    def bind_layer(self, layer_index: int, binding: dict[str, str]) -> None:
        """Bind layer ``layer_index``'s ops, keeping ``path_counts`` in
        step: only the layer's own edges can change their path."""
        counts = self.path_counts
        for key, count in self.layer_paths(layer_index).items():
            if counts[key] == count:
                del counts[key]
            else:
                counts[key] -= count
        self.binding.update(binding)
        for key, count in self.layer_paths(layer_index).items():
            counts[key] = counts.get(key, 0) + count

    def layer_paths(self, layer_index: int) -> dict[tuple[str, str], int]:
        """The part of ``path_counts`` due to layer ``layer_index``'s
        edges (in-layer, incoming and outgoing)."""
        counts: dict[tuple[str, str], int] = {}
        binding = self.binding
        for parent, child in self.layer_edges[layer_index].touching:
            device_a = binding.get(parent)
            device_b = binding.get(child)
            if device_a is None or device_b is None or device_a == device_b:
                continue
            key = path_key(device_a, device_b)
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def fixed_makespan(self) -> int:
        return sum(r.schedule.makespan for r in self.results.values())

    @property
    def all_cache_hits(self) -> bool:
        """True when every layer replayed a cached solve: the pass posed
        exactly the problems of an earlier pass, so iterating further
        cannot change anything."""
        return bool(self.results) and all(
            r.stats is not None and r.stats.cache_hit
            for r in self.results.values()
        )

    def schedule(self) -> HybridSchedule:
        return HybridSchedule(
            layers=[self.results[i].schedule for i in sorted(self.results)]
        )

    def used_devices(self) -> dict[str, GeneralDevice]:
        used = set(self.binding.values())
        return {uid: dev for uid, dev in self.devices.items() if uid in used}


def pass_objective(
    state: PassState, assay: Assay, spec: SynthesisSpec
) -> float:
    """A pass's full weighted objective (makespan, area, processing, paths).

    Mirrors the per-layer ILP objective at whole-schedule scope; used to
    rank passes whose fixed makespans tie.
    """
    costs = spec.cost_model
    weights = spec.weights
    devices = state.used_devices().values()
    schedule = state.schedule()
    return (
        weights.time * state.fixed_makespan
        + weights.area * sum(d.area(costs) for d in devices)
        + weights.processing * sum(d.processing_cost(costs) for d in devices)
        + weights.paths * len(schedule.transportation_paths(assay.edges))
    )


def beats(
    candidate: PassState, best: PassState, assay: Assay, spec: SynthesisSpec
) -> bool:
    """Whether ``candidate`` should replace the best pass so far.

    Primary criterion is the fixed makespan; ties are broken on the full
    weighted objective so an equal-makespan pass only wins by actually
    being cheaper (fewer/smaller devices or fewer paths).  A full tie
    keeps the earlier pass.
    """
    if candidate.fixed_makespan != best.fixed_makespan:
        return candidate.fixed_makespan < best.fixed_makespan
    return pass_objective(candidate, assay, spec) < pass_objective(
        best, assay, spec
    )


@dataclass
class SynthesisContext:
    """Everything a synthesis run reads and mutates, in one place.

    Built once by :func:`repro.hls.synthesizer.synthesize` (or directly by
    callers that need to pre-seed pieces: the conventional baseline swaps
    the binding rule via the spec, contingency re-synthesis passes a warm
    cross-run cache) and handed to
    :class:`repro.hls.pipeline.SynthesisPipeline`.
    """

    assay: Assay
    spec: SynthesisSpec
    #: transportation estimator; defaulted from the spec when omitted.
    transport: TransportEstimator | None = None
    #: cross-pass layer-solve cache; defaulted per ``enable_solve_cache``
    #: when omitted (pass an external cache to share across runs).
    cache: LayerSolveCache | None = None
    #: per-layer solver sessions, reused across re-synthesis passes;
    #: defaulted per ``spec.enable_solver_sessions`` when omitted.
    sessions: SessionPool | None = None

    # -- populated by the pipeline stages --------------------------------
    layering: LayeringResult | None = None
    #: the layering's edge index (``pipeline.layer_edge_index``).
    layer_edges: dict[int, LayerEdges] | None = None
    history: list = field(default_factory=list)
    current: PassState | None = None
    best: PassState | None = None
    started: float = field(default_factory=time.monotonic)
    uids: UidAllocator = field(default_factory=UidAllocator)

    def __post_init__(self) -> None:
        if self.transport is None:
            self.transport = TransportEstimator(self.assay, self.spec)
        if self.cache is None and self.spec.enable_solve_cache:
            self.cache = LayerSolveCache(
                capacity=self.spec.solve_cache_capacity
            )
        if self.sessions is None and self.spec.enable_solver_sessions:
            self.sessions = SessionPool()

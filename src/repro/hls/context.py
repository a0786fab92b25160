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

import itertools
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..devices.device import BindingMode, GeneralDevice
from ..layering import LayeringResult
from ..operations.assay import Assay
from .cache import LayerSolveCache, _cached_token
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


@dataclass(slots=True)
class FitAnswers:
    """``can_execute`` answers of one configuration under one binding
    mode, by op requirement signature."""

    #: the configuration's binding key under the mode
    #: (:meth:`GeneralDevice.binding_key`).
    key: object
    #: signatures the configuration can run.
    fits: set[tuple] = field(default_factory=set)
    #: signatures it cannot run.
    misses: set[tuple] = field(default_factory=set)


class InventoryIndex:
    """A device inventory grouped by configuration.

    Under component-oriented binding (and the EXACT baseline alike),
    whether a device can run an op depends only on the device's
    configuration: container, capacity, accessories and signature, the
    uid-free ``_device_token``.  A layer solve therefore decides legality
    once per configuration and hands the answer to all of its devices.

    ``uids`` maps each configuration (the token's repr) to its devices'
    uids in inventory order.  The other three fields only ever grow and
    are shared by every :meth:`copy`, so a copy taken for a layer problem
    stays valid while the pass goes on:

    * ``position`` numbers every device ever added, increasing in
      inventory order, to merge the uids of several configurations;
    * ``representative`` keeps one device per configuration met, the one
      legality is tested on;
    * ``answers`` maps a binding mode and a configuration to its
      :class:`FitAnswers`.

    They belong to one run (one chain of :class:`PassState`), not to the
    process, so a long-lived service does not accumulate them.
    """

    def __init__(self) -> None:
        self.uids: dict[str, tuple[str, ...]] = {}
        self.position: dict[str, int] = {}
        self.representative: dict[str, GeneralDevice] = {}
        self.answers: dict[BindingMode, dict[str, FitAnswers]] = {}
        self._order = itertools.count()

    @classmethod
    def of(cls, devices: Iterable[GeneralDevice]) -> InventoryIndex:
        """The index of ``devices``, in their order."""
        index = cls()
        for device in devices:
            index.add(device)
        return index

    def copy(self) -> InventoryIndex:
        """An index of the same inventory; later changes to either one's
        devices do not show in the other."""
        index = InventoryIndex()
        index.uids = dict(self.uids)
        index.position = self.position
        index.representative = self.representative
        index.answers = self.answers
        index._order = self._order
        return index

    def add(self, device: GeneralDevice) -> None:
        """Append ``device`` to the inventory."""
        config = _cached_token(device)[1]
        uid = device.uid
        self.uids[config] = self.uids.get(config, ()) + (uid,)
        self.position[uid] = next(self._order)
        self.representative.setdefault(config, device)

    def drop(self, device: GeneralDevice) -> None:
        """Remove ``device`` from the inventory."""
        config = _cached_token(device)[1]
        uids = tuple(uid for uid in self.uids[config] if uid != device.uid)
        if uids:
            self.uids[config] = uids
        else:
            del self.uids[config]


class PassState:
    """State of one synthesis pass over all layers.

    ``layer_edges`` is the layering's edge index
    (:func:`repro.hls.pipeline.layer_edge_index`), shared by every pass;
    a state without one can hold results but not bind layers.

    ``devices``, ``born`` and ``inventory`` change together, through
    :meth:`add_device` and :meth:`drop_device`; ``binding``,
    ``path_counts`` and ``refs`` change together, through
    :meth:`bind_layer`.
    """

    def __init__(
        self, layer_edges: Mapping[int, LayerEdges] | None = None
    ) -> None:
        self.layer_edges = layer_edges or {}
        self.devices: dict[str, GeneralDevice] = {}
        self.born: dict[str, int] = {}
        #: ``devices`` by configuration (see :class:`InventoryIndex`).
        self.inventory = InventoryIndex()
        self.results: dict[int, LayerSolveResult] = {}
        self.binding: dict[str, str] = {}
        #: path key -> number of assay edges whose ends ``binding`` maps
        #: onto that pair of distinct devices.
        self.path_counts: dict[tuple[str, str], int] = {}
        #: device uid -> number of ops ``binding`` maps onto it (devices
        #: with none are absent).
        self.refs: dict[str, int] = {}
        #: ``(layer index, layer_paths(layer index))`` of the last
        #: :meth:`layer_paths` call; ``binding`` changes only through
        #: :meth:`bind_layer`, whose last step is such a call, so it
        #: always matches ``binding``.
        self._layer_paths: tuple[int, dict[tuple[str, str], int]] | None = (
            None
        )
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
        state.inventory = self.inventory.copy()
        state.binding = dict(self.binding)
        state.path_counts = dict(self.path_counts)
        state.refs = dict(self.refs)
        return state

    def add_device(self, device: GeneralDevice, layer_index: int) -> None:
        """Add ``device``, born in layer ``layer_index``, to the inventory."""
        self.devices[device.uid] = device
        self.born[device.uid] = layer_index
        self.inventory.add(device)

    def drop_device(self, uid: str) -> None:
        """Remove device ``uid`` from the inventory."""
        self.inventory.drop(self.devices.pop(uid))
        del self.born[uid]

    def bind_layer(self, layer_index: int, binding: dict[str, str]) -> None:
        """Bind layer ``layer_index``'s ops, keeping ``path_counts`` and
        ``refs`` in step: only the layer's own edges can change their
        path."""
        counts = self.path_counts
        memo = self._layer_paths
        before = (
            memo[1]
            if memo is not None and memo[0] == layer_index
            else self.layer_paths(layer_index)
        )
        for key, count in before.items():
            if counts[key] == count:
                del counts[key]
            else:
                counts[key] -= count
        refs = self.refs
        old = self.binding
        for op_uid, device in binding.items():
            previous = old.get(op_uid)
            if previous is not None:
                if refs[previous] == 1:
                    del refs[previous]
                else:
                    refs[previous] -= 1
            refs[device] = refs.get(device, 0) + 1
        old.update(binding)
        for key, count in self.layer_paths(layer_index).items():
            counts[key] = counts.get(key, 0) + count

    def layer_paths(self, layer_index: int) -> dict[tuple[str, str], int]:
        """The part of ``path_counts`` due to layer ``layer_index``'s
        edges (in-layer, incoming and outgoing).

        The answer is kept until the next call, so :meth:`bind_layer`
        reuses the one taken while the layer's problem was prepared
        instead of scanning the layer's edges again.
        """
        counts: dict[tuple[str, str], int] = {}
        binding = self.binding
        for parent, child in self.layer_edges[layer_index].touching:
            device_a = binding.get(parent)
            device_b = binding.get(child)
            if device_a is None or device_b is None or device_a == device_b:
                continue
            key = path_key(device_a, device_b)
            counts[key] = counts.get(key, 0) + 1
        self._layer_paths = (layer_index, counts)
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
    return (
        weights.time * state.fixed_makespan
        + weights.area * sum(d.area(costs) for d in devices)
        + weights.processing * sum(d.processing_cost(costs) for d in devices)
        + weights.paths * len(state.path_counts)
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

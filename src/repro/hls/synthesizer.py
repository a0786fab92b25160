"""Progressive re-synthesis: result records and the ``synthesize`` façade.

Synthesis runs in passes over the layer sequence (paper Sec. 3.2):

* **initial pass** — layers are solved front to back; each layer inherits
  every device built so far (``D_i = D_{i-1} ∪ D'_i``) and pays only for the
  devices it newly integrates;
* **re-synthesis passes** — each layer ``L_i`` inherits ``D \\ D'_i``, the
  full device set of the previous pass minus the devices ``L_i`` itself
  introduced, so the configuration choices of *posterior* layers become
  visible (Fig. 6).  Between passes, transportation times are refined from
  the latest binding (Sec. 4.1).

Passes repeat while the relative makespan improvement exceeds
``spec.improvement_threshold`` (the paper's 10 % rule), up to
``spec.max_iterations``.

The machinery lives in sibling modules — :mod:`repro.hls.context` (run
state), :mod:`repro.hls.pipeline` (the stage sequence) and
:mod:`repro.hls.backends` (per-layer scheduler strategies).  This
module keeps the public result types and the one-call entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..devices.device import GeneralDevice
from ..devices.inventory import DeviceInventory
from ..ilp import SolveStats, relative_gap
from ..layering import LayeringResult
from ..operations.assay import Assay
from .backends import layer_cost
from .cache import LayerSolveCache
from .context import PassState, SynthesisContext, beats, pass_objective
from .schedule import HybridSchedule
from .spec import SynthesisSpec
from .transport import TransportEstimator
from .validate import validate_result

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.plan import StoragePlan

#: Backwards-compatible aliases — the pass machinery moved to
#: hls/context.py and hls/backends.py in the pipeline refactor.
_Pass = PassState
_beats = beats
_pass_objective = pass_objective

__all__ = [
    "IterationRecord",
    "SynthesisResult",
    "synthesize",
    "build_inventory",
    "layer_cost",
]


@dataclass
class IterationRecord:
    """Summary of one synthesis pass (Table 3 rows)."""

    index: int  # 0 = initial pass
    fixed_makespan: int
    num_devices: int
    num_paths: int
    layer_statuses: list[str]
    runtime: float
    #: per-layer solve telemetry, in layer order.
    layer_stats: list[SolveStats] = field(default_factory=list)
    #: wall-clock seconds per pipeline stage for this pass
    #: (``prepare`` / ``solve`` / ``apply``, plus ``transport_refine`` on
    #: re-synthesis passes).
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: storage-plan summary of the pass (``None`` when storage_mode=off):
    #: reagents needing storage structure, and the plan's weighted cost.
    storage_demand: int | None = None
    storage_cost: float | None = None

    @property
    def label(self) -> str:
        return "Initial" if self.index == 0 else f"{self.index}. Ite."

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.layer_stats if s.cache_hit)

    @property
    def ilp_solves(self) -> int:
        """Layers this pass actually solved (i.e. did not replay)."""
        return sum(1 for s in self.layer_stats if not s.cache_hit)

    @property
    def lower_bound(self) -> float | None:
        """Certified lower bound on this pass's total layer objective.

        The sum of the per-layer bounds — valid only when *every* layer
        solve carried one, so a single uncertified layer voids the pass's
        certificate (``None``), never weakens it silently.
        """
        if not self.layer_stats:
            return None
        bounds = [s.lower_bound for s in self.layer_stats]
        if any(b is None for b in bounds):
            return None
        return sum(bounds)

    @property
    def total_objective(self) -> float | None:
        """Sum of the per-layer achieved objectives, when all are known."""
        if not self.layer_stats:
            return None
        objectives = [s.objective for s in self.layer_stats]
        if any(o is None for o in objectives):
            return None
        return sum(objectives)

    @property
    def integrality_gap(self) -> float | None:
        """Certified relative gap of this pass's schedule, or ``None``.

        ``(total objective - total lower bound) / total objective`` over
        the per-layer solves; 0.0 means every layer was proven optimal.
        """
        return relative_gap(self.total_objective, self.lower_bound)


@dataclass
class SynthesisResult:
    """Complete synthesis output."""

    assay: Assay
    spec: SynthesisSpec
    layering: LayeringResult
    schedule: HybridSchedule
    devices: dict[str, GeneralDevice]
    paths: set[tuple[str, str]]
    history: list[IterationRecord] = field(default_factory=list)
    runtime: float = 0.0
    transport: TransportEstimator | None = None
    #: the per-edge transportation estimates the selected pass scheduled
    #: against (validation replays dependencies with exactly these).
    edge_transport: dict[tuple[str, str], int] = field(default_factory=dict)
    #: layer-solve-cache counters of the run (entries/capacity/hits/
    #: misses/evictions — see :meth:`LayerSolveCache.counters`); empty when
    #: the run had no cache.
    cache_counters: dict[str, int] = field(default_factory=dict)
    #: synthesized storage decisions of the selected pass (see
    #: :mod:`repro.storage`); ``None`` when ``storage_mode`` is ``off``.
    storage_plan: "StoragePlan | None" = None

    @property
    def fixed_makespan(self) -> int:
        return self.schedule.fixed_makespan

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def makespan_expression(self) -> str:
        return self.schedule.makespan_expression()

    @property
    def solve_stats(self) -> list[SolveStats]:
        """All per-layer solve records across every pass, in pass order."""
        return [s for record in self.history for s in record.layer_stats]

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.solve_stats if s.cache_hit)

    @property
    def ilp_solves(self) -> int:
        """Layer solves actually performed (cache hits excluded)."""
        return sum(1 for s in self.solve_stats if not s.cache_hit)

    @property
    def total_nodes(self) -> int:
        """Branch-and-bound nodes explored across all layer solves."""
        return sum(s.nodes for s in self.solve_stats)

    @property
    def total_solve_time(self) -> float:
        return sum(s.solve_time for s in self.solve_stats)

    @property
    def _certified_record(self) -> "IterationRecord | None":
        """The pass with the tightest quality certificate, if any."""
        certified = [
            r for r in self.history if r.integrality_gap is not None
        ]
        if not certified:
            return None
        return min(certified, key=lambda r: r.integrality_gap)

    @property
    def lower_bound(self) -> float | None:
        """Certified lower bound of the best-certified pass (see
        :attr:`integrality_gap`); ``None`` when no pass was certified."""
        record = self._certified_record
        return record.lower_bound if record is not None else None

    @property
    def integrality_gap(self) -> float | None:
        """The tightest certified gap any pass achieved, or ``None``.

        A pass is certified when every one of its layer solves carried a
        proven lower bound; its gap certifies that pass's schedule was
        within that fraction of the per-layer optima.
        """
        record = self._certified_record
        return record.integrality_gap if record is not None else None

    def validate(self) -> None:
        validate_result(self)
        if self.storage_plan is not None:
            from ..storage import validate_storage_plan

            validate_storage_plan(
                self.storage_plan,
                self.assay,
                self.layering,
                self.schedule,
                self.spec,
            )


def synthesize(
    assay: Assay,
    spec: SynthesisSpec | None = None,
    transport: TransportEstimator | None = None,
    cache: LayerSolveCache | None = None,
) -> SynthesisResult:
    """Run the full component-oriented synthesis flow on ``assay``.

    Thin façade over :class:`repro.hls.pipeline.SynthesisPipeline`:
    builds a :class:`repro.hls.context.SynthesisContext` and runs the
    stage sequence.  ``transport`` overrides the transportation estimator
    — e.g. a :class:`repro.layout.LayoutTransportEstimator` that refines
    from an actual device placement instead of usage ranks.  ``cache``
    supplies an external cross-run :class:`LayerSolveCache` (used by
    contingency re-synthesis to replay layer solves across repeated
    re-planning); when omitted, a per-run cache is created according to
    ``spec.enable_solve_cache``.
    """
    from .pipeline import SynthesisPipeline

    context = SynthesisContext(
        assay=assay,
        spec=spec or SynthesisSpec(),
        transport=transport,
        cache=cache,
        started=time.monotonic(),
    )
    return SynthesisPipeline().run(context)


def build_inventory(result: SynthesisResult) -> DeviceInventory:
    """Package a result's devices as a :class:`DeviceInventory` snapshot."""
    inventory = DeviceInventory(result.spec.max_devices)
    for layer in result.schedule.layers:
        for placement in layer.placements.values():
            uid = placement.device_uid
            if uid not in inventory:
                inventory.add(result.devices[uid], layer.index)
    return inventory


def _solve_layer(
    problem,
    spec: SynthesisSpec,
    allocate_uid,
    cache: LayerSolveCache | None = None,
    warm_from=None,
):
    """One layer solve through the pipeline's solve stage.

    Kept as a module-level function (the pre-pipeline entry point) for
    tests and tools that exercise a single layer: cache replay first, then
    the spec's scheduler backend (see ``hls/backends.py``).
    """
    from .pipeline import LayerSolveStage

    return LayerSolveStage().solve(
        problem, spec, allocate_uid, cache=cache, warm_from=warm_from
    )


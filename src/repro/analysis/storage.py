"""Cross-layer reagent storage analysis.

When a dependency edge crosses a layer boundary and its endpoints are bound
to different devices, the parent's output must be buffered somewhere while
the boundary's real-time decision plays out — the quantity the layering
algorithm's eviction step minimizes (Fig. 5).  This module reports exactly
which reagents need storage at each boundary and sizes the demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..storage.planner import evictions

if TYPE_CHECKING:  # pragma: no cover
    from ..hls.synthesizer import SynthesisResult


@dataclass(frozen=True)
class StoredReagent:
    """One buffered reagent: the crossing dependency edge that needs it."""

    producer: str
    consumer: str
    boundary: int  # stored across the end of this layer index
    #: True when parent and child are bound to the same device and no other
    #: operation runs there in between: the reagent can simply stay in
    #: place, needing no separate storage.
    held_in_place: bool


@dataclass
class StorageReport:
    """Storage demand per layer boundary."""

    reagents: list[StoredReagent] = field(default_factory=list)

    def at_boundary(self, layer_index: int) -> list[StoredReagent]:
        return [r for r in self.reagents if r.boundary == layer_index]

    def demand(self, layer_index: int) -> int:
        """Reagents needing actual storage capacity at a boundary."""
        return sum(
            1 for r in self.at_boundary(layer_index) if not r.held_in_place
        )

    @property
    def peak_demand(self) -> int:
        boundaries = {r.boundary for r in self.reagents}
        return max((self.demand(b) for b in boundaries), default=0)

    @property
    def total_crossings(self) -> int:
        return len(self.reagents)


def storage_report(result: "SynthesisResult") -> StorageReport:
    """Compute the storage demand of a synthesis result."""
    layer_of = result.layering.layer_of
    binding = result.schedule.binding
    evicted = evictions(result.layering, result.schedule)
    reagents = []
    for parent, child in result.layering.cross_layer_edges():
        held = (
            binding[parent] == binding[child]
            and (parent, child) not in evicted
        )
        reagents.extend(
            StoredReagent(
                producer=parent,
                consumer=child,
                boundary=boundary,
                held_in_place=held,
            )
            for boundary in range(layer_of[parent], layer_of[child])
        )
    return StorageReport(reagents=reagents)


@dataclass(frozen=True)
class StorageConflict:
    """A reagent that cannot simply wait inside its producer's device.

    The producer's device executes another operation between the reagent's
    production and its consumption, so the reagent must be moved to
    dedicated storage (or the schedule re-bound).
    """

    producer: str
    consumer: str
    device_uid: str
    evicting_op: str


def storage_conflicts(result: "SynthesisResult") -> list[StorageConflict]:
    """Cross-layer reagents whose producer device gets reused before the
    consumer runs (see :func:`repro.storage.planner.evictions`)."""
    return [
        StorageConflict(
            producer=parent,
            consumer=child,
            device_uid=result.schedule.find(parent)[1].device_uid,
            evicting_op=evictor,
        )
        for (parent, child), evictor in evictions(
            result.layering, result.schedule
        ).items()
    ]

"""Storage planner: hold vs channel vs reservoir per crossing reagent.

Runs after a pass's layers are solved (every operation placed and bound)
and before transport refinement.  For each dependency edge that crosses
a layer boundary the planner chooses the cheapest *feasible* place for
the intermediate fluid to wait:

* **hold** — the reagent stays in its producer's device.  Free when the
  consumer is bound to the same device; in ``auto`` mode a cross-device
  hold is also allowed (at the ``hold`` weight) since the device merely
  stays occupied.  Infeasible whenever another operation runs on the
  producer's device before the consumer starts (the eviction analysis of
  :func:`evictions`).
* **channel** — the reagent parks in the producer↔consumer transport
  channel (``channel``/``auto`` modes).  Feasible only when the two
  devices differ (the channel exists exactly then, since every bound-
  apart edge creates a path) and the channel is not already storing
  another reagent at any spanned boundary.
* **reservoir** — always-feasible fallback: a slot in a dedicated
  storage reservoir.  Reservoirs are sized first-fit against the spec's
  ``storage_capacity`` and priced per :mod:`repro.components.storage`.

All tie-breaks are deterministic (edges in (layer, producer, consumer)
order; equal-cost options prefer hold, then channel).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..components.storage import StorageReservoir
from ..errors import SpecificationError, ValidationError
from ..hls.transport import path_key
from .plan import (
    CHANNEL,
    HOLD,
    RESERVOIR,
    StorageDecision,
    StoragePlan,
    channel_location,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..hls.schedule import HybridSchedule
    from ..hls.spec import SynthesisSpec
    from ..layering.layering import LayeringResult
    from ..operations.assay import Assay


def evictions(
    layering: "LayeringResult", schedule: "HybridSchedule"
) -> dict[tuple[str, str], str]:
    """Crossing edges whose reagent cannot wait in its producer's device.

    A reagent produced by ``p`` (layer i) for ``c`` (layer j > i) waits in
    ``p``'s device after layer i ends.  Any operation scheduled on that
    device in layers i+1..j-1, or in layer j before ``c`` starts, evicts
    the reagent into storage — also when ``p`` and ``c`` share the device,
    since the reagent then has nowhere to wait.  Maps each evicted edge, in
    assay edge order, to the first operation that evicts it.  Runs over
    the raw (layering, schedule) pair, so an intermediate pass state
    works as well as a finished result.
    """
    layer_of = layering.layer_of
    # Per layer, device uid -> its placements ordered by (start, uid), as
    # ``LayerSchedule.on_device`` lists them; built once instead of once
    # per (edge, spanned layer).
    on_device: list[dict[str, list]] = []
    for layer in schedule.layers:
        by_device: dict[str, list] = {}
        for placement in layer.placements.values():
            by_device.setdefault(placement.device_uid, []).append(placement)
        for placements in by_device.values():
            placements.sort(key=lambda p: (p.start, p.uid))
        on_device.append(by_device)
    evicting: dict[tuple[str, str], str] = {}
    for parent, child in layering.cross_layer_edges():
        lp, lc = layer_of[parent], layer_of[child]
        device_uid = schedule.layer(lp)[parent].device_uid
        child_start = schedule.layer(lc)[child].start
        for mid in range(lp + 1, lc + 1):
            evictor = next(
                (
                    other.uid
                    for other in on_device[mid].get(device_uid, ())
                    if other.uid != child
                    and (mid < lc or other.start < child_start)
                ),
                None,
            )
            if evictor is not None:
                evicting[(parent, child)] = evictor
                break
    return evicting


def evicted_edges(
    assay: "Assay",
    layering: "LayeringResult",
    schedule: "HybridSchedule",
) -> set[tuple[str, str]]:
    """Crossing edges whose producer device is reused before consumption
    (see :func:`evictions`)."""
    return set(evictions(layering, schedule))


class StoragePlanner:
    """Deterministic greedy min-cost storage assignment."""

    def __init__(self, spec: "SynthesisSpec") -> None:
        if spec.storage_mode == "off":
            raise SpecificationError(
                "storage_mode=off synthesizes no storage plan"
            )
        self.spec = spec

    def plan(
        self,
        assay: "Assay",
        layering: "LayeringResult",
        schedule: "HybridSchedule",
    ) -> StoragePlan:
        spec = self.spec
        mode = spec.storage_mode
        weights = spec.storage_weights
        layer_of = layering.layer_of
        binding = schedule.binding
        paths = schedule.transportation_paths(assay.edges)
        evicted = evicted_edges(assay, layering, schedule)

        crossings = sorted(
            layering.cross_layer_edges(),
            key=lambda edge: (layer_of[edge[0]], edge[0], edge[1]),
        )

        decisions: list[StorageDecision] = []
        #: (channel key, boundary) pairs already storing a reagent.
        channel_busy: set[tuple[tuple[str, str], int]] = set()
        #: reservoir decisions awaiting a first-fit reservoir slot,
        #: kept as (decision list index, boundaries).
        pending_reservoir: list[tuple[int, range]] = []

        for producer, consumer in crossings:
            lp, lc = layer_of[producer], layer_of[consumer]
            span = lc - lp
            boundaries = range(lp, lc)
            bp, bc = binding[producer], binding[consumer]
            hold_ok = (producer, consumer) not in evicted

            # (cost, preference, mode, location) — min() picks cheapest,
            # ties prefer hold over channel over reservoir.
            options: list[tuple[float, int, str, str]] = []
            if hold_ok and bp == bc:
                options.append((0.0, 0, HOLD, bp))
            elif hold_ok and mode == "auto":
                options.append((weights.hold * span, 0, HOLD, bp))
            if mode in ("channel", "auto") and bp != bc:
                key = path_key(bp, bc)
                free = key in paths and all(
                    (key, b) not in channel_busy for b in boundaries
                )
                if free:
                    options.append(
                        (weights.channel * span, 1, CHANNEL,
                         channel_location(bp, bc))
                    )
            options.append((weights.reservoir * span, 2, RESERVOIR, ""))

            cost, _, chosen, location = min(options)
            if chosen == CHANNEL:
                key = path_key(bp, bc)
                channel_busy.update((key, b) for b in boundaries)
            decisions.append(
                StorageDecision(
                    producer=producer,
                    consumer=consumer,
                    first_boundary=lp,
                    last_boundary=lc - 1,
                    mode=chosen,
                    location=location,
                    cost=cost,
                )
            )
            if chosen == RESERVOIR:
                pending_reservoir.append((len(decisions) - 1, boundaries))

        reservoirs = self._assign_reservoirs(decisions, pending_reservoir)
        return StoragePlan(mode=mode, decisions=decisions, reservoirs=reservoirs)

    def _assign_reservoirs(
        self,
        decisions: list[StorageDecision],
        pending: list[tuple[int, range]],
    ) -> list[StorageReservoir]:
        """First-fit reservoir sizing; rewrites decision locations."""
        capacity = self.spec.storage_capacity
        occupancy: list[dict[int, int]] = []
        for index, boundaries in pending:
            slot = None
            for res_index, load in enumerate(occupancy):
                if all(load.get(b, 0) < capacity for b in boundaries):
                    slot = res_index
                    break
            if slot is None:
                slot = len(occupancy)
                occupancy.append({})
            load = occupancy[slot]
            for b in boundaries:
                load[b] = load.get(b, 0) + 1
            decision = decisions[index]
            decisions[index] = StorageDecision(
                producer=decision.producer,
                consumer=decision.consumer,
                first_boundary=decision.first_boundary,
                last_boundary=decision.last_boundary,
                mode=decision.mode,
                location=f"s{slot}",
                cost=decision.cost,
            )
        return [
            StorageReservoir(uid=f"s{i}", capacity=capacity)
            for i in range(len(occupancy))
        ]


def plan_storage(
    assay: "Assay",
    layering: "LayeringResult",
    schedule: "HybridSchedule",
    spec: "SynthesisSpec",
) -> StoragePlan:
    """Synthesize the storage plan of one scheduled pass."""
    return StoragePlanner(spec).plan(assay, layering, schedule)


def validate_storage_plan(
    plan: StoragePlan,
    assay: "Assay",
    layering: "LayeringResult",
    schedule: "HybridSchedule",
    spec: "SynthesisSpec",
) -> None:
    """Independent consistency replay; raises :class:`ValidationError`.

    Checks decision coverage (exactly one per crossing edge), hold
    feasibility against the eviction analysis, channel existence and
    single-occupancy, and reservoir capacity at every boundary.
    """
    problems: list[str] = []
    layer_of = layering.layer_of
    binding = schedule.binding
    paths = schedule.transportation_paths(assay.edges)
    evicted = evicted_edges(assay, layering, schedule)

    expected = set(layering.cross_layer_edges())
    got = {(d.producer, d.consumer) for d in plan.decisions}
    for edge in sorted(expected - got):
        problems.append(f"crossing edge {edge} has no storage decision")
    for edge in sorted(got - expected):
        problems.append(f"decision for non-crossing edge {edge}")
    if len(got) != len(plan.decisions):
        problems.append("duplicate storage decisions for one edge")

    channel_seen: dict[tuple[str, int], str] = {}
    reservoir_load: dict[tuple[str, int], int] = {}
    reservoir_by_uid = {r.uid: r for r in plan.reservoirs}
    for d in plan.decisions:
        edge = (d.producer, d.consumer)
        if edge not in expected:
            continue
        lp, lc = layer_of[d.producer], layer_of[d.consumer]
        if (d.first_boundary, d.last_boundary) != (lp, lc - 1):
            problems.append(f"{edge}: boundaries mismatch layering")
            continue
        if d.cost < 0:
            problems.append(f"{edge}: negative storage cost")
        if d.mode == HOLD:
            if d.location != binding[d.producer]:
                problems.append(f"{edge}: hold away from producer device")
            if edge in evicted:
                problems.append(f"{edge}: hold on an evicted device")
        elif d.mode == CHANNEL:
            bp, bc = binding[d.producer], binding[d.consumer]
            if bp == bc:
                problems.append(f"{edge}: channel storage on one device")
            elif path_key(bp, bc) not in paths:
                problems.append(f"{edge}: channel path does not exist")
            elif d.location != channel_location(bp, bc):
                problems.append(f"{edge}: channel location mismatch")
            for b in d.boundaries:
                key = (d.location, b)
                if key in channel_seen:
                    problems.append(
                        f"{edge}: channel {d.location} already stores "
                        f"{channel_seen[key]} at boundary {b}"
                    )
                else:
                    channel_seen[key] = d.producer
        elif d.mode == RESERVOIR:
            reservoir = reservoir_by_uid.get(d.location)
            if reservoir is None:
                problems.append(f"{edge}: unknown reservoir {d.location!r}")
                continue
            for b in d.boundaries:
                key = (d.location, b)
                reservoir_load[key] = reservoir_load.get(key, 0) + 1
                if reservoir_load[key] > reservoir.capacity:
                    problems.append(
                        f"reservoir {d.location} over capacity at boundary {b}"
                    )
        else:
            problems.append(f"{edge}: unknown storage mode {d.mode!r}")

    if problems:
        raise ValidationError(
            "storage plan failed validation:\n  " + "\n  ".join(problems)
        )

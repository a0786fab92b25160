"""Tests for storage conflict detection (repro.analysis.storage)."""

import dataclasses

from repro.analysis.storage import storage_conflicts, storage_report
from repro.hls import synthesize
from repro.hls.schedule import HybridSchedule, LayerSchedule, OpPlacement
from repro.operations import AssayBuilder


class TestStorageConflictsSynthetic:
    """Conflicts checked on hand-built schedules for exact control."""

    def build_result(
        self, child_start: int, extra_on_device: bool, child_device: str = "dY"
    ):
        """parent (layer 0, device dX) -> child (layer 1); optionally an
        unrelated op occupies dX in layer 1 before the child starts (the
        child then runs on ``child_device``)."""
        from repro.hls import SynthesisSpec
        from repro.hls.synthesizer import SynthesisResult
        from repro.layering import layer_assay

        b = AssayBuilder("sc")
        p = b.op("p", 3, container="chamber")
        g = b.op("g", 2, indeterminate=True)
        b.op("c", 2, container="chamber", after=[p, g])
        assay = b.build()
        layering = layer_assay(assay, threshold=1)

        l0 = LayerSchedule(index=0)
        l0.place(OpPlacement("p", "dX", 0, 3))
        l0.place(OpPlacement("g", "dG", 3, 2, indeterminate=True))
        l1 = LayerSchedule(index=1)
        if extra_on_device:
            l1.place(OpPlacement("c", child_device, child_start, 2))
            l1.place(OpPlacement("intruder", "dX", 0, 1))
        else:
            l1.place(OpPlacement("c", "dX", child_start, 2))
        schedule = HybridSchedule(layers=[l0, l1])
        # intruder is not an assay op; storage_conflicts only walks assay
        # edges but inspects placements, so register it in the assay too.
        if extra_on_device:
            assay2 = AssayBuilder("sc2")
            p2 = assay2.op("p", 3, container="chamber")
            g2 = assay2.op("g", 2, indeterminate=True)
            assay2.op("c", 2, container="chamber", after=[p2, g2])
            assay2.op("intruder", 1, container="chamber")
            assay = assay2.build()
            layering = layer_assay(assay, threshold=1)

        from repro.devices import GeneralDevice
        from repro.components import Capacity, ContainerKind

        devices = {
            uid: GeneralDevice(uid, ContainerKind.CHAMBER, Capacity.SMALL)
            for uid in schedule.used_devices()
        }
        return SynthesisResult(
            assay=assay,
            spec=SynthesisSpec(max_devices=10),
            layering=layering,
            schedule=schedule,
            devices=devices,
            paths=schedule.transportation_paths(assay.edges),
        )

    def test_reagent_waits_in_place_no_conflict(self):
        result = self.build_result(child_start=1, extra_on_device=False)
        # p -> c crosses the boundary; c runs on p's device with nothing
        # in between.
        conflicts = [
            c for c in storage_conflicts(result) if c.producer == "p"
        ]
        assert conflicts == []

    def test_intruder_evicts_reagent(self):
        result = self.build_result(child_start=3, extra_on_device=True)
        conflicts = [
            c for c in storage_conflicts(result) if c.producer == "p"
        ]
        assert len(conflicts) == 1
        assert conflicts[0].evicting_op == "intruder"
        assert conflicts[0].device_uid == "dX"

    def test_co_bound_reagent_evicted_needs_storage(self):
        # c shares p's device, but the intruder runs there first: the
        # reagent cannot wait in place.
        result = self.build_result(
            child_start=3, extra_on_device=True, child_device="dX"
        )
        report = storage_report(result)
        (reagent,) = [r for r in report.reagents if r.producer == "p"]
        assert not reagent.held_in_place
        assert report.demand(0) == 2  # p->c and g->c


class TestStorageConflictsOnSynthesis:
    def test_reported_conflicts_are_real(self, indeterminate_assay, fast_spec):
        spec = dataclasses.replace(fast_spec, max_iterations=1)
        result = synthesize(indeterminate_assay, spec)
        for conflict in storage_conflicts(result):
            # Replay the definition independently.
            lp = result.layering.layer_of[conflict.producer]
            lc = result.layering.layer_of[conflict.consumer]
            assert lp < lc
            _, pp = result.schedule.find(conflict.producer)
            assert pp.device_uid == conflict.device_uid
            _, evict = result.schedule.find(conflict.evicting_op)
            assert evict.device_uid == conflict.device_uid

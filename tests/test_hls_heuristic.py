"""Tests for the greedy list-scheduling fallback (repro.hls.heuristic)."""

import itertools

import pytest

from repro.devices import BindingMode, GeneralDevice
from repro.components import Capacity, ContainerKind
from repro.errors import SchedulingError
from repro.hls import SynthesisSpec
from repro.hls.context import InventoryIndex
from repro.hls.heuristic import schedule_layer_greedy
from repro.hls.milp_model import LayerProblem
from repro.operations import Fixed, Indeterminate, Operation

COUNTER = itertools.count()


def fresh_uid():
    return f"hd{next(COUNTER)}"


def problem_for(ops, edges=(), transport=0, fixed=(), slots=4):
    edge_transport = {e: transport for e in edges}
    release = {
        op.uid: max(
            (edge_transport[e] for e in edges if e[0] == op.uid), default=0
        )
        for op in ops
    }
    return LayerProblem(
        layer_index=0,
        ops=list(ops),
        in_layer_edges=list(edges),
        edge_transport=edge_transport,
        release=release,
        fixed_devices=list(fixed),
        free_slots=slots,
    )


def greedy(problem, **spec_kwargs):
    spec = SynthesisSpec(max_devices=8, time_limit=1, **spec_kwargs)
    return schedule_layer_greedy(problem, spec, fresh_uid)


class TestGreedyScheduling:
    def test_respects_dependencies(self):
        ops = [Operation("p", Fixed(4)), Operation("c", Fixed(2))]
        result = greedy(problem_for(ops, edges=[("p", "c")], transport=3))
        assert result.schedule["c"].start >= result.schedule["p"].end + 3

    def test_no_device_overlap(self):
        ops = [Operation(f"o{i}", Fixed(5)) for i in range(4)]
        result = greedy(problem_for(ops, slots=2))
        by_device = {}
        for uid, dev in result.binding.items():
            by_device.setdefault(dev, []).append(result.schedule[uid])
        for placements in by_device.values():
            placements.sort(key=lambda p: p.start)
            for a, b in zip(placements, placements[1:]):
                assert b.start >= a.end

    def test_device_cap_respected(self):
        ops = [Operation(f"o{i}", Fixed(5)) for i in range(5)]
        result = greedy(problem_for(ops, slots=2))
        assert len(set(result.binding.values())) <= 2

    def test_reuses_existing_devices(self):
        device = GeneralDevice(
            "fix0", ContainerKind.CHAMBER, Capacity.SMALL, frozenset()
        )
        ops = [Operation("o", Fixed(3), container=ContainerKind.CHAMBER)]
        result = greedy(problem_for(ops, fixed=[device], slots=0))
        assert result.binding["o"] == "fix0"
        assert not result.new_devices

    def test_raises_when_impossible(self):
        device = GeneralDevice(
            "fix0", ContainerKind.CHAMBER, Capacity.SMALL, frozenset()
        )
        op = Operation("o", Fixed(3), container=ContainerKind.RING)
        with pytest.raises(SchedulingError):
            greedy(problem_for([op], fixed=[device], slots=0))

    def test_indeterminate_rule14(self):
        ops = [
            Operation("long", Fixed(30)),
            Operation("cap", Indeterminate(4)),
        ]
        result = greedy(problem_for(ops))
        cap = result.schedule["cap"]
        latest = max(p.start for p in result.schedule.placements.values())
        assert latest <= cap.end

    def test_indeterminate_distinct_devices(self):
        ops = [Operation(f"i{k}", Indeterminate(3)) for k in range(3)]
        result = greedy(problem_for(ops))
        devices = [result.binding[f"i{k}"] for k in range(3)]
        assert len(set(devices)) == 3

    def test_status_marker(self):
        result = greedy(problem_for([Operation("o", Fixed(1))]))
        assert result.solver_status == "heuristic"

    def test_indeterminate_after_fixed_on_same_device(self):
        # One slot: the indeterminate op must queue after the fixed one.
        ops = [Operation("w", Fixed(5)), Operation("cap", Indeterminate(3))]
        result = greedy(problem_for(ops, slots=1))
        assert result.binding["w"] == result.binding["cap"]
        assert result.schedule["cap"].start >= result.schedule["w"].end


class TestInventoryIndex:
    """Registration by configuration keeps the fixed-device order."""

    @staticmethod
    def chamber(uid, *accessories):
        return GeneralDevice(
            uid, ContainerKind.CHAMBER, Capacity.SMALL, frozenset(accessories)
        )

    def problem(self, inventory=None):
        # Three plain ops keep both fixed devices busy, so the third one
        # may take the only free slot unless the indeterminate ops need
        # it: they need it only when ``i1`` is matched to the pump device
        # ``i2`` requires, i.e. when "x2" is listed before "y".
        ops = [
            Operation(f"f{k}", Fixed(5), container=ContainerKind.CHAMBER)
            for k in range(3)
        ] + [
            Operation("i1", Indeterminate(3), container=ContainerKind.CHAMBER),
            Operation(
                "i2", Indeterminate(3), container=ContainerKind.CHAMBER,
                accessories=frozenset({"pump"}),
            ),
        ]
        problem = problem_for(
            ops, fixed=[self.chamber("y"), self.chamber("x2", "pump")],
            slots=1,
        )
        problem.inventory = inventory
        return problem

    def test_merged_lists_follow_inventory_order(self):
        # The pass state's index after "x1" was dropped: "x2"'s
        # configuration was met first, but "y" comes first in the
        # inventory.
        index = InventoryIndex.of(
            [self.chamber("x1", "pump"), self.chamber("y"),
             self.chamber("x2", "pump")]
        )
        index.drop(self.chamber("x1", "pump"))
        assert list(index.uids) == [
            "('chamber', 'small', ('pump',), None)",
            "('chamber', 'small', (), None)",
        ]
        indexed = greedy(self.problem(index))
        derived = greedy(self.problem())
        assert len(indexed.new_devices) == len(derived.new_devices) == 1
        assert indexed.binding["f2"] == indexed.new_devices[0].uid
        assert derived.binding["f2"] == derived.new_devices[0].uid

    def test_answers_are_kept_for_the_run(self):
        index = InventoryIndex.of([self.chamber("y")])
        greedy(self.problem(index))
        plain = index.answers[BindingMode.COVER][
            "('chamber', 'small', (), None)"
        ]
        assert plain.key is Capacity.SMALL
        assert plain.fits == {("chamber", "small", ())}
        assert plain.misses == {("chamber", "small", ("pump",))}

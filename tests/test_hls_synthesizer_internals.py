"""Unit tests for synthesizer internals: layer_cost, pass bookkeeping,
path exclusion, the ILP-vs-greedy race, the scheduler registry and the
device-uid allocator."""


import pytest

from repro.components import Capacity, ContainerKind
from repro.devices import GeneralDevice
from repro.errors import ReproError, SerializationError, SpecificationError
from repro.hls import (
    SynthesisSpec,
    UidAllocator,
    available_schedulers,
    create_scheduler,
    synthesize,
)
from repro.hls.decode import LayerSolveResult
from repro.hls.milp_model import LayerProblem
from repro.hls.schedule import LayerSchedule, OpPlacement
from repro.hls.synthesizer import layer_cost
from repro.io.json_io import spec_from_json, spec_to_json
from repro.operations import AssayBuilder, Fixed, Operation

from .test_hls_pipeline_incremental import paths_excluding_layer


def make_layer_result(bindings: dict[str, str], makespan_ops, new_devices=()):
    schedule = LayerSchedule(index=0)
    for uid, (start, dur) in makespan_ops.items():
        schedule.place(OpPlacement(uid, bindings[uid], start, dur))
    return LayerSolveResult(
        schedule=schedule,
        binding=dict(bindings),
        new_devices=list(new_devices),
    )


class TestLayerCost:
    def spec(self):
        return SynthesisSpec(max_devices=5, time_limit=5)

    def problem(self, ops, edges=(), existing=(), incoming=(), outgoing=()):
        return LayerProblem(
            layer_index=0,
            ops=ops,
            in_layer_edges=list(edges),
            edge_transport={e: 0 for e in edges},
            release={op.uid: 0 for op in ops},
            fixed_devices=[],
            free_slots=5,
            incoming=list(incoming),
            outgoing=list(outgoing),
            existing_paths=set(existing),
        )

    def test_makespan_term(self):
        spec = self.spec()
        ops = [Operation("a", Fixed(4))]
        result = make_layer_result({"a": "d0"}, {"a": (0, 4)})
        cost = layer_cost(result, self.problem(ops), spec)
        assert cost == pytest.approx(spec.weights.time * 4)

    def test_new_device_cost_counted(self):
        spec = self.spec()
        device = GeneralDevice("n0", ContainerKind.CHAMBER, Capacity.SMALL)
        ops = [Operation("a", Fixed(4))]
        result = make_layer_result(
            {"a": "n0"}, {"a": (0, 4)}, new_devices=[device]
        )
        cost = layer_cost(result, self.problem(ops), spec)
        costs = spec.cost_model
        expected = (
            spec.weights.time * 4
            + spec.weights.area * device.area(costs)
            + spec.weights.processing * device.processing_cost(costs)
        )
        assert cost == pytest.approx(expected)

    def test_new_path_counted_once(self):
        spec = self.spec()
        ops = [Operation("a", Fixed(2)), Operation("b", Fixed(2)),
               Operation("c", Fixed(2))]
        edges = [("a", "b"), ("a", "c")]
        result = make_layer_result(
            {"a": "d0", "b": "d1", "c": "d1"},
            {"a": (0, 2), "b": (2, 2), "c": (4, 2)},
        )
        cost = layer_cost(result, self.problem(ops, edges), spec)
        # Single (d0, d1) path although two edges use it.
        assert cost == pytest.approx(
            spec.weights.time * 6 + spec.weights.paths * 1
        )

    def test_existing_path_free(self):
        spec = self.spec()
        ops = [Operation("a", Fixed(2)), Operation("b", Fixed(2))]
        edges = [("a", "b")]
        result = make_layer_result(
            {"a": "d0", "b": "d1"}, {"a": (0, 2), "b": (2, 2)}
        )
        cost = layer_cost(
            result, self.problem(ops, edges, existing=[("d0", "d1")]), spec
        )
        assert cost == pytest.approx(spec.weights.time * 4)

    def test_incoming_and_outgoing_paths(self):
        spec = self.spec()
        ops = [Operation("a", Fixed(2))]
        result = make_layer_result({"a": "d0"}, {"a": (0, 2)})
        problem = self.problem(
            ops, incoming=[("dPrev", "a")], outgoing=[("a", "dNext")]
        )
        cost = layer_cost(result, problem, spec)
        assert cost == pytest.approx(
            spec.weights.time * 2 + spec.weights.paths * 2
        )


class TestPathsExcludingLayer:
    """The full-scan oracle of ``test_hls_pipeline_incremental``."""

    def test_excludes_layer_touching_edges(self):
        b = AssayBuilder("px")
        x = b.op("x", 2)
        y = b.op("y", 2, after=[x])
        z = b.op("z", 2, after=[y])
        assay = b.build()
        binding = {"x": "d0", "y": "d1", "z": "d2"}
        paths = paths_excluding_layer(assay, binding, layer_uids={"z"})
        assert paths == {("d0", "d1")}

    def test_unbound_ops_skipped(self):
        b = AssayBuilder("px2")
        x = b.op("x", 2)
        b.op("y", 2, after=[x])
        assay = b.build()
        paths = paths_excluding_layer(assay, {"x": "d0"}, layer_uids=set())
        assert paths == set()


class TestGreedyRace:
    def test_optimal_ilp_always_wins(self, linear_assay):
        """With a generous time limit, the ILP proves optimality and its
        result is used regardless of the greedy outcome."""
        spec = SynthesisSpec(
            max_devices=6, time_limit=30, max_iterations=0,
        )
        result = synthesize(linear_assay, spec)
        assert result.history[0].layer_statuses == ["optimal"]

    def test_starved_ilp_falls_back_to_greedy(self, linear_assay):
        spec = SynthesisSpec(
            max_devices=6, time_limit=1e-4, max_iterations=0,
        )
        result = synthesize(linear_assay, spec)
        assert result.history[0].layer_statuses == ["heuristic"]
        result.validate()

    def test_fallback_disabled_raises(self, linear_assay):
        from repro.errors import SolverError

        spec = SynthesisSpec(
            max_devices=6, time_limit=1e-4, max_iterations=0,
            allow_heuristic_fallback=False,
        )
        with pytest.raises(SolverError):
            synthesize(linear_assay, spec)


class TestSchedulerRegistry:
    def test_builtin_backends_registered(self):
        names = available_schedulers()
        assert {"portfolio", "greedy", "ilp-highs"} <= set(names)
        assert "ilp-bnb" not in names  # HiGHS is the only solver

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ReproError):
            create_scheduler("simulated-annealing")

    #: never-registered and retired scheduler names alike
    UNKNOWN = ("simulated-annealing", "approx-lp")

    def test_spec_validates_scheduler(self):
        for name in self.UNKNOWN:
            with pytest.raises(SpecificationError):
                SynthesisSpec(scheduler=name)

    def test_spec_json_validates_scheduler(self):
        for name in self.UNKNOWN:
            data = dict(spec_to_json(SynthesisSpec()), scheduler=name)
            with pytest.raises(SerializationError):
                spec_from_json(data)

    def test_backends_expose_names(self):
        for name in available_schedulers():
            assert create_scheduler(name).name == name


class TestUidAllocator:
    def test_sequential_uids(self):
        uids = UidAllocator()
        assert [uids() for _ in range(3)] == ["d0", "d1", "d2"]

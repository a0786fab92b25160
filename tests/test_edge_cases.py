"""Edge-case and error-path tests across modules."""

import itertools

import pytest

from repro.components import Capacity, ContainerKind
from repro.devices import BindingMode, GeneralDevice
from repro.errors import SolverError
from repro.hls import SynthesisSpec, synthesize
from repro.hls.decode import decode_layer_solution
from repro.hls.milp_model import (
    LEGAL_COMBOS,
    LayerProblem,
    build_layer_model,
    is_slot,
    slot_key,
)
from repro.ilp import Solution, SolveStatus
from repro.operations import AssayBuilder, Fixed, Operation

COUNTER = itertools.count(1000)


def fresh_uid():
    return f"e{next(COUNTER)}"


def tiny_problem(ops=None, slots=2):
    ops = ops or [Operation("solo", Fixed(3))]
    return LayerProblem(
        layer_index=0,
        ops=ops,
        in_layer_edges=[],
        edge_transport={},
        release={op.uid: 0 for op in ops},
        fixed_devices=[],
        free_slots=slots,
    )


class TestDecodeErrorPaths:
    def test_decode_rejects_unsolved(self):
        layer_model = build_layer_model(
            tiny_problem(), SynthesisSpec(max_devices=2, time_limit=5)
        )
        empty = Solution(status=SolveStatus.INFEASIBLE)
        with pytest.raises(SolverError):
            decode_layer_solution(layer_model, empty, fresh_uid)

    def test_decode_detects_missing_binding(self):
        spec = SynthesisSpec(max_devices=2, time_limit=5)
        layer_model = build_layer_model(tiny_problem(), spec)
        solution = layer_model.model.solve(time_limit=5)
        # Corrupt: clear the op's binding variables.
        for (uid, key), var in layer_model.od.items():
            solution.values[var] = 0.0
        with pytest.raises(SolverError):
            decode_layer_solution(layer_model, solution, fresh_uid)

    def test_decode_detects_configless_slot(self):
        spec = SynthesisSpec(max_devices=2, time_limit=5)
        layer_model = build_layer_model(tiny_problem(), spec)
        solution = layer_model.model.solve(time_limit=5)
        # Corrupt: mark a slot used but wipe its configuration.
        used_slot = next(
            j for j, var in layer_model.used.items()
            if solution.int_value(var) == 1
        )
        for (j, kind, cap), var in layer_model.conf.items():
            if j == used_slot:
                solution.values[var] = 0.0
        with pytest.raises(SolverError):
            decode_layer_solution(layer_model, solution, fresh_uid)


class TestModelInternals:
    def test_legal_combos_complete(self):
        assert len(LEGAL_COMBOS) == 6
        kinds = {kind for kind, _ in LEGAL_COMBOS}
        assert kinds == set(ContainerKind)

    def test_slot_key_roundtrip(self):
        key = slot_key(3)
        assert is_slot(key)
        assert not is_slot("d0")
        assert not is_slot(("other", 1))

    def test_symmetry_breaking_constraints_present(self):
        layer_model = build_layer_model(
            tiny_problem(slots=3), SynthesisSpec(max_devices=3, time_limit=5)
        )
        names = set(layer_model.model.constraints)
        assert "slot_order[1]" in names
        assert "slot_order[2]" in names

    def test_exact_mode_slot_signature_vars(self):
        spec = SynthesisSpec(
            max_devices=2, time_limit=5, binding_mode=BindingMode.EXACT
        )
        ops = [
            Operation("a", Fixed(2), accessories=frozenset({"pump"})),
            Operation("b", Fixed(2)),
        ]
        layer_model = build_layer_model(tiny_problem(ops), spec)
        # 2 slots x 2 distinct signatures.
        assert len(layer_model.sig) == 4

    def test_release_margin_zero_for_sinks(self):
        problem = tiny_problem()
        assert problem.release["solo"] == 0


class TestSpecEdgeCases:
    def test_single_device_serial_everything(self):
        b = AssayBuilder("serial")
        for k in range(3):
            b.op(f"o{k}", 4, container="chamber")
        spec = SynthesisSpec(max_devices=1, time_limit=10, max_iterations=0)
        result = synthesize(b.build(), spec)
        assert result.num_devices == 1
        assert result.fixed_makespan == 12  # fully serialized

    def test_all_indeterminate_assay(self):
        b = AssayBuilder("allind")
        for k in range(3):
            b.op(f"i{k}", 3, indeterminate=True)
        spec = SynthesisSpec(
            max_devices=4, threshold=3, time_limit=10, max_iterations=0
        )
        result = synthesize(b.build(), spec)
        assert result.layering.num_layers == 1
        assert len(result.schedule.layers[0].indeterminate_uids) == 3
        assert result.makespan_expression.endswith("+I_1")

    def test_single_op_assay(self):
        b = AssayBuilder("one")
        b.op("only", 7, container="ring", accessories=["pump"])
        result = synthesize(
            b.build(), SynthesisSpec(max_devices=1, time_limit=5)
        )
        assert result.fixed_makespan == 7
        assert result.num_devices == 1
        assert result.num_paths == 0

    def test_zero_iterations_single_pass(self, linear_assay):
        spec = SynthesisSpec(max_devices=5, time_limit=5, max_iterations=0)
        result = synthesize(linear_assay, spec)
        assert len(result.history) == 1

    def test_transport_default_zero(self, diamond_assay):
        spec = SynthesisSpec(
            max_devices=5, time_limit=5, max_iterations=0,
            transport_default=0,
        )
        result = synthesize(diamond_assay, spec)
        result.validate()


class TestLargeCapacityForcing:
    def test_large_volume_op_gets_ring(self):
        """A LARGE-capacity op can only exist in a ring (constraint (3)
        intent) — even when the op leaves the container kind open."""
        op = Operation("bulk", Fixed(5), capacity=Capacity.LARGE)
        result_spec = SynthesisSpec(max_devices=1, time_limit=5)
        b = AssayBuilder("bulk")
        b.op("bulk", 5, capacity="large")
        result = synthesize(b.build(), result_spec)
        device = next(iter(result.devices.values()))
        assert device.container is ContainerKind.RING
        assert device.capacity is Capacity.LARGE

    def test_tiny_volume_op_gets_chamber(self):
        b = AssayBuilder("droplet")
        b.op("droplet", 5, capacity="tiny")
        result = synthesize(
            b.build(), SynthesisSpec(max_devices=1, time_limit=5)
        )
        device = next(iter(result.devices.values()))
        assert device.container is ContainerKind.CHAMBER
        assert device.capacity is Capacity.TINY


class TestCsvExport:
    def test_table2_csv(self):
        from repro.experiments.export import table2_to_csv
        from repro.experiments.table2 import Table2Row

        row = Table2Row(
            case=1, method="Our", num_ops=16, num_indeterminate=0,
            exe_time="94m", fixed_makespan=94, num_devices=4, num_paths=2,
            runtime_seconds=10.0, layer_statuses=["optimal"],
        )
        csv_text = table2_to_csv([row])
        assert "case,method" in csv_text.splitlines()[0]
        assert "1,Our,16,0,94m,94,4,2,10.0" in csv_text

    def test_table3_csv_long_format(self):
        from repro.experiments.export import table3_to_csv
        from repro.experiments.table3 import Table3Row

        row = Table3Row(case=2, exe_times=[295, 247], devices=[21, 21])
        lines = table3_to_csv([row]).strip().splitlines()
        assert lines[0] == "case,iteration,exe_time,devices"
        assert lines[1] == "2,0,295,21"
        assert lines[2] == "2,1,247,21"

    def test_save_csv(self, tmp_path):
        from repro.experiments.export import save_csv

        path = tmp_path / "out.csv"
        save_csv("a,b\n1,2\n", path)
        assert path.read_text().startswith("a,b")

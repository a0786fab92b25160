"""Tests for repro.devices (general devices + inventory)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import Capacity, ContainerKind
from repro.components.containers import kinds_for_capacity
from repro.components.costs import default_cost_model
from repro.devices import BindingMode, DeviceInventory, GeneralDevice
from repro.errors import SpecificationError
from repro.operations import Fixed, Operation


def mixer(uid="mixer"):
    """A classic rotary mixer: ring + pump."""
    return GeneralDevice(uid, ContainerKind.RING, Capacity.SMALL,
                         frozenset({"pump"}))


class TestGeneralDevice:
    def test_illegal_configuration(self):
        with pytest.raises(SpecificationError):
            GeneralDevice("d", ContainerKind.RING, Capacity.TINY)

    def test_empty_uid_rejected(self):
        with pytest.raises(SpecificationError):
            GeneralDevice("", ContainerKind.RING, Capacity.SMALL)

    def test_covers_matching_op(self):
        op = Operation("mix", Fixed(5), container=ContainerKind.RING,
                       accessories=["pump"])
        assert mixer().covers(op)

    def test_covers_open_container(self):
        # The paper's headline: a cell-isolation op (no container kind
        # preference) binds to a mixer.
        op = Operation("isolate", Fixed(5), accessories=["pump"])
        assert mixer().covers(op)

    def test_covers_rejects_capacity_mismatch(self):
        op = Operation("mix", Fixed(5), capacity=Capacity.MEDIUM,
                       accessories=["pump"])
        assert not mixer().covers(op)

    def test_covers_rejects_missing_accessory(self):
        op = Operation("wash", Fixed(5), accessories=["sieve_valve"])
        assert not mixer().covers(op)

    def test_covers_rejects_wrong_kind(self):
        op = Operation("o", Fixed(5), container=ContainerKind.CHAMBER)
        assert not mixer().covers(op)

    def test_exact_mode_needs_signature(self):
        op = Operation("mix", Fixed(5), container=ContainerKind.RING,
                       accessories=["pump"])
        assert not mixer().can_execute(op, BindingMode.EXACT)
        typed = GeneralDevice(
            "d", ContainerKind.RING, Capacity.SMALL, frozenset({"pump"}),
            signature=op.requirement_signature(),
        )
        assert typed.can_execute(op, BindingMode.EXACT)

    def test_exact_mode_rejects_cover_only(self):
        rich = Operation("rich", Fixed(5), container=ContainerKind.RING,
                         accessories=["pump", "sieve_valve"])
        poor = Operation("poor", Fixed(5), container=ContainerKind.RING,
                         accessories=["pump"])
        device = GeneralDevice.for_operation("d", rich, BindingMode.EXACT)
        assert device.can_execute(rich, BindingMode.EXACT)
        assert not device.can_execute(poor, BindingMode.EXACT)
        # ... while COVER mode would allow it:
        cover_device = GeneralDevice.for_operation("d2", rich)
        assert cover_device.can_execute(poor, BindingMode.COVER)

    def test_costs(self):
        costs = default_cost_model()
        device = mixer()
        assert device.area(costs) == costs.container_area(
            ContainerKind.RING, Capacity.SMALL
        )
        assert device.processing_cost(costs) == (
            costs.container_cost(ContainerKind.RING, Capacity.SMALL)
            + costs.accessory_cost("pump")
        )

    def test_for_operation_prefers_chamber(self):
        op = Operation("o", Fixed(5))
        device = GeneralDevice.for_operation("d", op)
        assert device.container is ContainerKind.CHAMBER

    def test_for_operation_forced_ring(self):
        op = Operation("o", Fixed(5), capacity=Capacity.LARGE)
        device = GeneralDevice.for_operation("d", op)
        assert device.container is ContainerKind.RING

    def test_for_operation_respects_explicit_kind(self):
        op = Operation("o", Fixed(5), container=ContainerKind.RING)
        device = GeneralDevice.for_operation("d", op)
        assert device.container is ContainerKind.RING

    def test_for_operation_illegal_override(self):
        op = Operation("o", Fixed(5), container=ContainerKind.RING)
        with pytest.raises(SpecificationError):
            GeneralDevice.for_operation("d", op,
                                        container=ContainerKind.CHAMBER)


class TestDeviceInventory:
    def test_add_and_lookup(self):
        inv = DeviceInventory(3)
        device = inv.add(mixer(), layer_index=0)
        assert inv["mixer"] is device
        assert len(inv) == 1
        assert inv.free_slots == 2

    def test_cap_enforced(self):
        inv = DeviceInventory(1)
        inv.add(mixer("a"), 0)
        with pytest.raises(SpecificationError):
            inv.add(mixer("b"), 0)

    def test_duplicate_uid(self):
        inv = DeviceInventory(3)
        inv.add(mixer("a"), 0)
        with pytest.raises(SpecificationError):
            inv.add(mixer("a"), 1)

    def test_fresh_uid_unique(self):
        inv = DeviceInventory(5)
        inv.add(GeneralDevice("d0", ContainerKind.CHAMBER, Capacity.SMALL), 0)
        assert inv.fresh_uid() != "d0"

    def test_provenance_queries(self):
        inv = DeviceInventory(5)
        inv.add(mixer("a"), 0)
        inv.add(mixer("b"), 1)
        inv.add(mixer("c"), 1)
        assert [d.uid for d in inv.devices_of_layer(1)] == ["b", "c"]
        assert [d.uid for d in inv.inherited_for_forward(1)] == ["a"]
        assert {d.uid for d in inv.inherited_for_resynthesis(1)} == {"a"}

    def test_invalid_cap(self):
        with pytest.raises(SpecificationError):
            DeviceInventory(0)

    def test_copy_independent(self):
        inv = DeviceInventory(3)
        inv.add(mixer("a"), 0)
        clone = inv.copy()
        clone.add(mixer("b"), 0)
        assert "b" not in inv


ACCESSORIES = ("pump", "sieve_valve", "cell_trap", "optical_system")


@st.composite
def operations(draw):
    capacity = draw(st.sampled_from(list(Capacity)))
    return Operation(
        "op",
        Fixed(1),
        capacity=capacity,
        container=draw(
            st.sampled_from((None,) + kinds_for_capacity(capacity))
        ),
        accessories=draw(st.frozensets(st.sampled_from(ACCESSORIES))),
    )


@st.composite
def devices(draw, ops):
    """Any legal device, often shaped after one of ``ops``; its EXACT
    signature is unset or its template op's."""
    template = draw(st.one_of(st.sampled_from(ops), operations()))
    return GeneralDevice(
        "d",
        draw(st.sampled_from(kinds_for_capacity(template.capacity))),
        template.capacity,
        draw(
            st.one_of(
                st.just(template.accessories),
                st.frozensets(st.sampled_from(ACCESSORIES)),
            )
        ),
        signature=draw(
            st.sampled_from((None, template.requirement_signature()))
        ),
    )


@st.composite
def binding_cases(draw):
    ops = draw(st.lists(operations(), min_size=1, max_size=6))
    devs = draw(st.lists(devices(ops), max_size=12))
    return ops, devs, draw(st.sampled_from(list(BindingMode)))


@settings(max_examples=300, deadline=None)
@given(binding_cases())
def test_binding_key_indexes_can_execute(case):
    """Scanning only the op's binding-key bucket finds exactly the devices
    a full scan finds, in the same order."""
    ops, devs, mode = case
    buckets: dict[object, list[int]] = {}
    for i, device in enumerate(devs):
        buckets.setdefault(device.binding_key(mode), []).append(i)
    for op in ops:
        key = GeneralDevice.op_binding_key(op, mode)
        full = [i for i, d in enumerate(devs) if d.can_execute(op, mode)]
        assert all(devs[i].binding_key(mode) == key for i in full)
        bucketed = [
            i for i in buckets.get(key, ()) if devs[i].can_execute(op, mode)
        ]
        assert bucketed == full

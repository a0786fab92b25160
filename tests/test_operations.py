"""Tests for repro.operations (durations, operations, assays, builder)."""

import pytest

from repro.components import Capacity, ContainerKind
from repro.errors import CycleError, GraphError, SpecificationError
from repro.operations import (
    Assay,
    AssayBuilder,
    Fixed,
    Indeterminate,
    Operation,
)


class TestDuration:
    def test_fixed(self):
        d = Fixed(10)
        assert not d.is_indeterminate
        assert d.scheduled == 10

    def test_indeterminate(self):
        d = Indeterminate(5)
        assert d.is_indeterminate
        assert d.scheduled == 5

    def test_zero_rejected(self):
        with pytest.raises(SpecificationError):
            Fixed(0)

    def test_negative_rejected(self):
        with pytest.raises(SpecificationError):
            Indeterminate(-3)

    def test_non_integer_rejected(self):
        with pytest.raises(SpecificationError):
            Fixed(2.5)  # type: ignore[arg-type]


class TestOperation:
    def test_minimal(self):
        op = Operation("o", Fixed(1))
        assert op.capacity is Capacity.SMALL
        assert op.container is None
        assert op.accessories == frozenset()

    def test_empty_uid_rejected(self):
        with pytest.raises(SpecificationError):
            Operation("", Fixed(1))

    def test_illegal_container_capacity(self):
        with pytest.raises(SpecificationError):
            Operation("o", Fixed(1), capacity=Capacity.TINY,
                      container=ContainerKind.RING)

    def test_accessories_coerced_to_frozenset(self):
        op = Operation("o", Fixed(1), accessories=["pump", "pump"])
        assert op.accessories == frozenset({"pump"})

    def test_allowed_kinds_specified(self):
        op = Operation("o", Fixed(1), container=ContainerKind.RING)
        assert op.allowed_container_kinds == (ContainerKind.RING,)

    def test_allowed_kinds_open_small(self):
        op = Operation("o", Fixed(1), capacity=Capacity.SMALL)
        assert set(op.allowed_container_kinds) == {
            ContainerKind.RING, ContainerKind.CHAMBER
        }

    def test_allowed_kinds_open_tiny(self):
        op = Operation("o", Fixed(1), capacity=Capacity.TINY)
        assert op.allowed_container_kinds == (ContainerKind.CHAMBER,)

    def test_signature_stable(self):
        a = Operation("a", Fixed(1), accessories=["pump", "sieve_valve"])
        b = Operation("b", Fixed(2), accessories=["sieve_valve", "pump"])
        assert a.requirement_signature() == b.requirement_signature()

    def test_signature_distinguishes_container(self):
        a = Operation("a", Fixed(1), container=ContainerKind.RING)
        b = Operation("b", Fixed(1))
        assert a.requirement_signature() != b.requirement_signature()

    def test_covers_subset_accessories(self):
        big = Operation("big", Fixed(1), container=ContainerKind.RING,
                        accessories=["pump", "sieve_valve"])
        small = Operation("small", Fixed(1), container=ContainerKind.RING,
                          accessories=["pump"])
        assert big.covers(small)
        assert not small.covers(big)

    def test_covers_requires_same_capacity(self):
        a = Operation("a", Fixed(1), capacity=Capacity.MEDIUM)
        b = Operation("b", Fixed(1), capacity=Capacity.SMALL)
        assert not a.covers(b)

    def test_indeterminate_flag(self):
        op = Operation("o", Indeterminate(3))
        assert op.is_indeterminate


class TestAssay:
    def build(self):
        a = Assay("t")
        a.add(Operation("p", Fixed(2)))
        a.add(Operation("c", Fixed(3)))
        a.add_dependency("p", "c")
        return a

    def test_parents_children(self):
        a = self.build()
        assert a.children("p") == ["c"]
        assert a.parents("c") == ["p"]

    def test_duplicate_uid_rejected(self):
        a = self.build()
        with pytest.raises(SpecificationError):
            a.add(Operation("p", Fixed(1)))

    def test_dependency_unknown_op(self):
        a = self.build()
        with pytest.raises(SpecificationError):
            a.add_dependency("p", "ghost")

    def test_cycle_rejected_immediately(self):
        a = self.build()
        with pytest.raises(CycleError):
            a.add_dependency("c", "p")

    def test_rejected_cycle_edge_is_rolled_back(self):
        a = self.build()
        a.add(Operation("g", Fixed(1)))
        a.add_dependency("c", "g")
        edges = sorted(a.edges)
        with pytest.raises(CycleError) as excinfo:
            a.add_dependency("g", "p")
        assert str(excinfo.value) == (
            "dependency cycle detected: 'p' -> 'c' -> 'g' -> 'p'"
        )
        assert sorted(a.edges) == edges
        assert a.topological_order() == ["p", "c", "g"]
        a.validate()
        a.add(Operation("h", Fixed(1)))
        a.add_dependency("p", "h")
        assert a.children("p") == ["c", "h"]

    def test_self_dependency_rejected(self):
        a = self.build()
        with pytest.raises(GraphError):
            a.add_dependency("p", "p")
        assert a.edges == [("p", "c")]

    def test_cached_views_are_fresh_copies(self):
        a = self.build()
        a.topological_order().clear()
        a.edges.clear()
        assert a.topological_order() == ["p", "c"]
        assert a.edges == [("p", "c")]

    def test_mutation_invalidates_cached_views(self):
        a = self.build()
        assert a.topological_order() == ["p", "c"]
        a.add(Operation("g", Fixed(1)))
        assert a.topological_order() == ["p", "g", "c"]
        a.add_dependency("g", "p")
        assert a.topological_order() == ["g", "p", "c"]
        assert sorted(a.edges) == [("g", "p"), ("p", "c")]

    def test_parse_sorts_a_constant_number_of_times(self, monkeypatch):
        # Complexity guard: building an assay must not re-sort the graph
        # per edge.  Counting calls keeps the check independent of timing.
        import repro.operations.assay as assay_module
        from repro.assays import random_assay
        from repro.io import assay_from_json, assay_to_json

        data = assay_to_json(random_assay(1000, seed=1, edge_probability=0.01))
        assert len(data["dependencies"]) > 1000
        calls = []
        real_sort = assay_module.topological_sort

        def counting_sort(graph):
            calls.append(len(graph))
            return real_sort(graph)

        monkeypatch.setattr(assay_module, "topological_sort", counting_sort)
        parsed = assay_from_json(data)
        parsed.topological_order()
        parsed.edges
        assert calls == [1000]

    def test_ancestors_descendants(self):
        a = self.build()
        a.add(Operation("g", Fixed(1)))
        a.add_dependency("c", "g")
        assert a.ancestors("g") == {"p", "c"}
        assert a.descendants("p") == {"c", "g"}

    def test_topological_order(self):
        order = self.build().topological_order()
        assert order.index("p") < order.index("c")

    def test_indeterminate_listing(self):
        a = self.build()
        a.add(Operation("i", Indeterminate(4)))
        assert a.indeterminate_uids == ["i"]
        assert a.num_indeterminate == 1

    def test_total_fixed_work(self):
        assert self.build().total_fixed_work() == 5

    def test_getitem_unknown(self):
        with pytest.raises(SpecificationError):
            self.build()["nope"]

    def test_graph_copy_isolated(self):
        a = self.build()
        g = a.graph
        g.remove_node("p")
        assert "p" in a


class TestReplicate:
    def test_counts_scale(self):
        base = AssayBuilder("b")
        x = base.op("x", 2)
        base.op("y", 3, indeterminate=True, after=[x])
        assay = base.build().replicate(4)
        assert len(assay) == 8
        assert assay.num_indeterminate == 4
        assert len(assay.edges) == 4

    def test_replicas_independent(self):
        base = AssayBuilder("b")
        x = base.op("x", 2)
        base.op("y", 3, after=[x])
        assay = base.build().replicate(2)
        assert assay.children("x#0") == ["y#0"]
        assert assay.children("x#1") == ["y#1"]

    def test_zero_copies_rejected(self):
        a = Assay("e")
        with pytest.raises(SpecificationError):
            a.replicate(0)

    def test_subset(self):
        base = AssayBuilder("b")
        x = base.op("x", 2)
        y = base.op("y", 3, after=[x])
        base.op("z", 1, after=[y])
        sub = base.build().subset(["x", "y"])
        assert len(sub) == 2
        assert sub.edges == [("x", "y")]


class TestBuilder:
    def test_after_accepts_objects_and_uids(self):
        b = AssayBuilder("t")
        first = b.op("first", 1)
        b.op("second", 1, after=[first])
        b.op("third", 1, after=["second"])
        assay = b.build()
        assert assay.parents("third") == ["second"]

    def test_capacity_strings(self):
        b = AssayBuilder("t")
        op = b.op("o", 1, capacity="large")
        assert op.capacity is Capacity.LARGE
        op2 = b.op("o2", 1, capacity="t")
        assert op2.capacity is Capacity.TINY

    def test_container_strings(self):
        b = AssayBuilder("t")
        assert b.op("o", 1, container="ring").container is ContainerKind.RING
        assert b.op("o2", 1, container="ch").container is ContainerKind.CHAMBER

    def test_unknown_capacity(self):
        with pytest.raises(SpecificationError):
            AssayBuilder("t").op("o", 1, capacity="gigantic")

    def test_unknown_container(self):
        with pytest.raises(SpecificationError):
            AssayBuilder("t").op("o", 1, container="bucket")

    def test_indeterminate_flag(self):
        b = AssayBuilder("t")
        op = b.op("o", 5, indeterminate=True)
        assert op.is_indeterminate

    def test_explicit_dependency(self):
        b = AssayBuilder("t")
        x = b.op("x", 1)
        y = b.op("y", 1)
        b.dependency(x, y)
        assert b.build().children("x") == ["y"]

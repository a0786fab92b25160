"""Tests for repro.graphs.digraph."""

import pytest

from repro.errors import CycleError, GraphError
from repro.graphs import DiGraph, topological_sort


def chain(*names: str) -> DiGraph:
    g = DiGraph()
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b)
    return g


class TestConstruction:
    def test_add_node_idempotent(self):
        g = DiGraph()
        g.add_node("a")
        g.add_node("a")
        assert len(g) == 1

    def test_add_edge_creates_endpoints(self):
        g = DiGraph()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.add_edge("a", "a")

    def test_remove_node_clears_edges(self):
        g = chain("a", "b", "c")
        g.remove_node("b")
        assert g.successors("a") == set()
        assert g.predecessors("c") == set()

    def test_remove_unknown_node(self):
        with pytest.raises(GraphError):
            DiGraph().remove_node("ghost")

    def test_copy_is_independent(self):
        g = chain("a", "b")
        clone = g.copy()
        clone.add_edge("b", "c")
        assert "c" not in g

    def test_subgraph_induces_edges(self):
        g = chain("a", "b", "c")
        sub = g.subgraph(["a", "b"])
        assert sub.has_edge("a", "b")
        assert "c" not in sub

    def test_subgraph_unknown_node(self):
        with pytest.raises(GraphError):
            chain("a", "b").subgraph(["a", "zz"])


class TestQueries:
    def test_descendants(self):
        g = chain("a", "b", "c")
        g.add_edge("b", "d")
        assert g.descendants("a") == {"b", "c", "d"}

    def test_ancestors(self):
        g = chain("a", "b", "c")
        assert g.ancestors("c") == {"a", "b"}

    def test_descendants_exclude_self(self):
        g = chain("a", "b")
        assert "a" not in g.descendants("a")

    def test_sources_and_sinks(self):
        g = chain("a", "b", "c")
        assert g.sources() == ["a"]
        assert g.sinks() == ["c"]

    def test_degrees(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert g.out_degree("a") == 2
        assert g.in_degree("b") == 1

    def test_unknown_node_query(self):
        with pytest.raises(GraphError):
            DiGraph().successors("x")

    def test_edges_listing(self):
        g = chain("a", "b")
        assert g.edges == [("a", "b")]

    def test_remove_edge_keeps_endpoints(self):
        g = chain("a", "b", "c")
        g.remove_edge("a", "b")
        assert g.edges == [("b", "c")]
        assert "a" in g and g.predecessors("b") == set()

    def test_remove_unknown_edge(self):
        with pytest.raises(GraphError):
            chain("a", "b").remove_edge("b", "a")


class TestTopologicalSort:
    def test_chain_order(self):
        assert topological_sort(chain("a", "b", "c")) == ["a", "b", "c"]

    def test_respects_all_edges(self):
        g = DiGraph()
        g.add_edge("a", "c")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        order = topological_sort(g)
        assert order.index("a") < order.index("c") < order.index("d")
        assert order.index("b") < order.index("c")

    def test_cycle_detected(self):
        g = chain("a", "b", "c")
        g.add_edge("c", "a")
        with pytest.raises(CycleError):
            topological_sort(g)

    def test_cycle_error_reports_members(self):
        g = DiGraph()
        g.add_edge("x", "y")
        g.add_edge("y", "x")
        with pytest.raises(CycleError) as excinfo:
            topological_sort(g)
        assert "x" in str(excinfo.value) and "y" in str(excinfo.value)

    def test_is_acyclic(self):
        g = chain("a", "b")
        assert g.is_acyclic()
        g.add_edge("b", "a")
        assert not g.is_acyclic()

    def test_empty_graph(self):
        assert topological_sort(DiGraph()) == []

"""Tests for repro.layering (Algorithm 1): allocation, eviction, driver."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assays import random_assay
from repro.errors import LayeringError
from repro.layering import (
    dependency_based_allocation,
    eviction_cost,
    layer_assay,
    resource_based_allocation,
)
from repro.operations import Assay, AssayBuilder, Fixed, Indeterminate, Operation

from .layering_oracle import dependency_based_allocation as reference_allocation
from .layering_oracle import eviction_cost as reference_cost
from .layering_oracle import reference_layers
from .layering_oracle import resource_based_allocation as reference_eviction

ROOT = Path(__file__).resolve().parent.parent


def fig4_assay():
    """The dependency shape of the paper's Fig. 4: two indeterminate ops
    where one is reachable from the other, plus independent side work."""
    b = AssayBuilder("fig4")
    o1 = b.op("o1", 5)
    o2 = b.op("o2", 5, after=[o1])
    oa = b.op("oa", 10, indeterminate=True, after=[o2])
    o3 = b.op("o3", 5, after=[oa])
    b.op("ob", 10, indeterminate=True, after=[o3])
    o4 = b.op("o4", 4)
    b.op("o5", 4, after=[o4])
    return b.build()


class TestDependencyAllocation:
    def test_fig4_first_layer(self):
        assay = fig4_assay()
        layer = dependency_based_allocation(
            assay.graph, set(assay.indeterminate_uids)
        )
        # oa is kept (no indeterminate ancestor); its descendants (o3, ob)
        # are deferred; everything else fits.
        assert layer == {"o1", "o2", "oa", "o4", "o5"}

    def test_no_indeterminate_takes_all(self):
        b = AssayBuilder("plain")
        x = b.op("x", 1)
        b.op("y", 1, after=[x])
        assay = b.build()
        layer = dependency_based_allocation(assay.graph, set())
        assert layer == {"x", "y"}

    def test_chained_indeterminate_split(self):
        b = AssayBuilder("chain")
        i1 = b.op("i1", 1, indeterminate=True)
        b.op("i2", 1, indeterminate=True, after=[i1])
        assay = b.build()
        layer = dependency_based_allocation(
            assay.graph, set(assay.indeterminate_uids)
        )
        assert layer == {"i1"}

    def test_parallel_indeterminate_share_layer(self):
        b = AssayBuilder("par")
        b.op("i1", 1, indeterminate=True)
        b.op("i2", 1, indeterminate=True)
        assay = b.build()
        layer = dependency_based_allocation(
            assay.graph, set(assay.indeterminate_uids)
        )
        assert layer == {"i1", "i2"}

    def test_partial_pick_order_keeps_children_out(self):
        # z -> a, both indeterminate, plus an isolated q.  An order that
        # names only a must not put z and its child a into one layer.
        b = AssayBuilder("partial")
        z = b.op("z", 1, indeterminate=True)
        b.op("a", 1, indeterminate=True, after=[z])
        b.op("q", 1)
        assay = b.build()
        layer = dependency_based_allocation(
            assay.graph, set(assay.indeterminate_uids), rng_order=["a"]
        )
        assert layer == {"q", "z"}

    def test_descendant_of_indeterminate_deferred(self):
        b = AssayBuilder("d")
        i1 = b.op("i1", 1, indeterminate=True)
        b.op("fixed_child", 1, after=[i1])
        assay = b.build()
        layer = dependency_based_allocation(
            assay.graph, set(assay.indeterminate_uids)
        )
        assert "fixed_child" not in layer


class TestEvictionCost:
    def fig5_graph(self):
        """Paper Fig. 5(a)-(c): three indeterminate ops with different
        reagent-inheritance structure inside the layer."""
        a = Assay("fig5")
        # o1: one in-layer ancestor chain -> storage 1, removes only o1.
        a.add(Operation("a1", Fixed(1)))
        a.add(Operation("o1", Indeterminate(1)))
        a.add_dependency("a1", "o1")
        # o2: two in-layer parents -> storage 2.
        a.add(Operation("b1", Fixed(1)))
        a.add(Operation("b2", Fixed(1)))
        a.add(Operation("o2", Indeterminate(1)))
        a.add_dependency("b1", "o2")
        a.add_dependency("b2", "o2")
        # o3: a chain of three ancestors where cutting high costs 1 but
        # removes all of them.
        a.add(Operation("c1", Fixed(1)))
        a.add(Operation("c2", Fixed(1)))
        a.add(Operation("c3", Fixed(1)))
        a.add(Operation("o3", Indeterminate(1)))
        a.add_dependency("c1", "c2")
        a.add_dependency("c2", "c3")
        a.add_dependency("c3", "o3")
        return a

    def test_storage_costs_match_fig5(self):
        assay = self.fig5_graph()
        layer = set(assay.uids)
        graph = assay.graph
        c1 = eviction_cost(layer, graph, "o1")
        c2 = eviction_cost(layer, graph, "o2")
        c3 = eviction_cost(layer, graph, "o3")
        assert c1.storage == 1
        assert c2.storage == 2
        assert c3.storage == 1

    def test_minimal_sink_side_preferred(self):
        # Fig. 5(d): among equal cuts, remove the fewest operations.
        assay = self.fig5_graph()
        c3 = eviction_cost(set(assay.uids), assay.graph, "o3")
        assert c3.removed == frozenset({"o3"})

    def test_priority_order_matches_paper(self):
        # o1 cheapest (storage 1, removes 1), then o3 (storage 1 but via a
        # longer chain — equal here thanks to minimal cut), then o2.
        assay = self.fig5_graph()
        layer = set(assay.uids)
        graph = assay.graph
        costs = sorted(
            (eviction_cost(layer, graph, uid) for uid in ("o1", "o2", "o3")),
            key=lambda c: c.sort_key,
        )
        assert costs[-1].uid == "o2"  # most storage evicted last

    def test_orphan_indeterminate_free(self):
        a = Assay("solo")
        a.add(Operation("i", Indeterminate(1)))
        cost = eviction_cost({"i"}, a.graph, "i")
        assert cost.storage == 0
        assert cost.removed == frozenset({"i"})

    def test_unknown_target_rejected(self):
        a = Assay("solo")
        a.add(Operation("i", Indeterminate(1)))
        with pytest.raises(LayeringError):
            eviction_cost(set(), a.graph, "i")


class TestResourceAllocation:
    def test_under_threshold_untouched(self):
        b = AssayBuilder("u")
        b.op("i1", 1, indeterminate=True)
        assay = b.build()
        kept, evicted = resource_based_allocation(
            {"i1"}, assay.graph, {"i1"}, threshold=2
        )
        assert kept == {"i1"} and evicted == set()

    def test_eviction_to_threshold(self):
        b = AssayBuilder("e")
        for k in range(4):
            b.op(f"i{k}", 1, indeterminate=True)
        assay = b.build()
        kept, evicted = resource_based_allocation(
            set(assay.uids), assay.graph, set(assay.uids), threshold=2
        )
        assert len(kept) == 2 and len(evicted) == 2

    def test_closure_takes_dependents(self):
        b = AssayBuilder("c")
        i1 = b.op("i1", 1, indeterminate=True)
        i2 = b.op("i2", 1, indeterminate=True)
        b.op("x", 1, after=["i1"])
        assay = b.build()
        # force eviction of one op; if i1 goes, x must go too.
        kept, evicted = resource_based_allocation(
            set(assay.uids), assay.graph, {"i1", "i2"}, threshold=1
        )
        if "i1" in evicted:
            assert "x" in evicted
        else:
            assert evicted == {"i2"} or "i2" in evicted

    def test_invalid_threshold(self):
        b = AssayBuilder("t")
        b.op("i", 1, indeterminate=True)
        assay = b.build()
        with pytest.raises(LayeringError):
            resource_based_allocation({"i"}, assay.graph, {"i"}, threshold=0)


class TestLayerAssay:
    def test_fig4_two_layers(self):
        result = layer_assay(fig4_assay(), threshold=10)
        assert result.num_layers == 2
        assert set(result.layers[0].uids) == {"o1", "o2", "oa", "o4", "o5"}
        assert set(result.layers[1].uids) == {"o3", "ob"}
        result.validate()

    def test_threshold_splits_layers(self):
        b = AssayBuilder("many")
        for k in range(6):
            b.op(f"i{k}", 2, indeterminate=True)
        result = layer_assay(b.build(), threshold=2)
        assert result.num_layers == 3
        for layer in result.layers:
            assert len(layer.indeterminate_uids) == 2

    def test_single_layer_without_indeterminate(self, linear_assay):
        result = layer_assay(linear_assay, threshold=10)
        assert result.num_layers == 1
        assert not result.layers[0].indeterminate_uids

    def test_layer_of_covers_everything(self, indeterminate_assay):
        result = layer_assay(indeterminate_assay, threshold=10)
        assert set(result.layer_of) == set(indeterminate_assay.uids)

    def test_cross_layer_edges(self, indeterminate_assay):
        result = layer_assay(indeterminate_assay, threshold=10)
        crossing = result.cross_layer_edges()
        # capture -> lyse crosses the boundary in both branches.
        assert ("capture0", "lyse0") in crossing
        assert ("capture1", "lyse1") in crossing

    def test_storage_demand_counts_boundary(self):
        result = layer_assay(fig4_assay(), threshold=10)
        # only oa -> o3 crosses layer 0/1.
        assert result.storage_demand(0) == 1

    def test_invalid_threshold(self, linear_assay):
        with pytest.raises(LayeringError):
            layer_assay(linear_assay, threshold=0)

    def test_rtqpcr_structure(self):
        from repro.assays import rtqpcr_assay

        result = layer_assay(rtqpcr_assay(), threshold=10)
        assert result.num_layers == 3
        assert len(result.layers[0].indeterminate_uids) == 10
        assert len(result.layers[1].indeterminate_uids) == 10
        assert not result.layers[2].indeterminate_uids


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    num_ops=st.integers(3, 25),
    ind_frac=st.floats(0.0, 0.6),
    threshold=st.integers(1, 5),
)
def test_layering_invariants_random(seed, num_ops, ind_frac, threshold):
    """Property: Algorithm 1 output always satisfies its invariants."""
    assay = random_assay(
        num_ops, seed=seed, indeterminate_fraction=ind_frac
    )
    result = layer_assay(assay, threshold=threshold)
    result.validate()  # raises on any violated invariant
    # Every op appears exactly once.
    seen = [uid for layer in result.layers for uid in layer.uids]
    assert sorted(seen) == sorted(assay.uids)


def _layers(result):
    return [(layer.uids, layer.indeterminate_uids) for layer in result.layers]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_ops=st.integers(1, 120),
    edge_probability=st.floats(0.02, 0.4),
    ind_frac=st.floats(0.1, 0.4),
    threshold=st.integers(1, 5),
)
def test_layering_matches_set_based_reference(
    seed, num_ops, edge_probability, ind_frac, threshold
):
    """The mask-based layering equals the graph-search algorithm it
    replaced, layer by layer and in the same op order."""
    assay = random_assay(
        num_ops, seed=seed, edge_probability=edge_probability,
        indeterminate_fraction=ind_frac,
    )
    result = layer_assay(assay, threshold=threshold)
    assert _layers(result) == reference_layers(assay, threshold)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_ops=st.integers(1, 40),
    ind_frac=st.floats(0.1, 0.6),
    data=st.data(),
)
def test_allocation_does_not_depend_on_pick_order(
    seed, num_ops, ind_frac, data
):
    """Every order of the paper's "randomly choose" step allocates the
    layer the reference allocates with its default (uid) order."""
    assay = random_assay(num_ops, seed=seed, indeterminate_fraction=ind_frac)
    indeterminate = set(assay.indeterminate_uids)
    order = data.draw(st.permutations(sorted(indeterminate)))
    layer = dependency_based_allocation(assay.graph, indeterminate, order)
    assert layer == reference_allocation(assay.graph, indeterminate)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_ops=st.integers(2, 40),
    edge_probability=st.floats(0.05, 0.4),
    threshold=st.integers(1, 4),
    data=st.data(),
)
def test_public_eviction_matches_reference_on_any_layer(
    seed, num_ops, edge_probability, threshold, data
):
    """Layers handed to the public functions need not be ancestor-closed
    (inside ``layer_assay`` they always are); prices and evictions still
    match the graph-search versions."""
    assay = random_assay(
        num_ops, seed=seed, edge_probability=edge_probability,
        indeterminate_fraction=0.4,
    )
    graph = assay.graph
    indeterminate = set(assay.indeterminate_uids)
    layer = data.draw(st.sets(st.sampled_from(assay.uids), min_size=1))
    assert resource_based_allocation(
        layer, graph, indeterminate, threshold
    ) == reference_eviction(layer, graph, indeterminate, threshold)
    for uid in sorted(layer & indeterminate):
        cost = eviction_cost(layer, graph, uid)
        reference = reference_cost(layer, graph, uid)
        assert cost.sort_key == reference.sort_key
        assert cost.removed == reference.removed


def test_layering_does_not_depend_on_hash_seed():
    script = (
        "from repro.assays import random_assay\n"
        "from repro.layering import layer_assay\n"
        "assay = random_assay(280, seed=280, edge_probability=3 / 280,\n"
        "                     indeterminate_fraction=0.1)\n"
        "for layer in layer_assay(assay, threshold=3).layers:\n"
        "    print(layer.uids, layer.indeterminate_uids)\n"
    )
    outputs = set()
    for hash_seed in "01":
        env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1
    assert outputs.pop().count("\n") > 1

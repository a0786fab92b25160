"""Differential test of the incremental layer-problem construction.

``prepare_layer_problem`` takes a layer's edges from the layering's edge
index and its existing paths from the pass state's path multiset.  The
oracle below is the full scan over ``assay.edges`` that both replaced; for
every :class:`~repro.hls.milp_model.LayerProblem` of every pass, the two
must agree.

The pass state's other counters are checked the same way: its inventory
index against one rebuilt from its devices, its per-device reference
counts against a scan of the binding, its path multiset against the
schedule's transportation paths, and the greedy scheduler's result on the
indexed problem against the one it derives on a problem without index.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assays import random_assay
from repro.devices import BindingMode
from repro.hls import SynthesisSpec, UidAllocator, synthesize
from repro.hls import pipeline
from repro.hls.context import InventoryIndex
from repro.hls.heuristic import schedule_layer_greedy
from repro.hls.transport import path_key


def paths_excluding_layer(assay, binding, layer_uids):
    """Paths already implied by edges not touching the current layer."""
    paths = set()
    for parent, child in assay.edges:
        if parent in layer_uids or child in layer_uids:
            continue
        if parent in binding and child in binding:
            a, b = binding[parent], binding[child]
            if a != b:
                paths.add(path_key(a, b))
    return paths


def oracle_problem(assay, layering, spec, transport, binding, layer):
    """The edge-derived fields of a layer problem, by full scans."""
    uids = set(layer.uids)
    in_edges = [(p, c) for p, c in assay.edges if p in uids and c in uids]
    storage_in, storage_out = {}, {}
    pressure = spec.storage_pressure_weight()
    if pressure > 0:
        layer_of = layering.layer_of
        for p, c in assay.edges:
            if c in uids and p not in uids and p in binding:
                key = (binding[p], c)
                span = layer.index - layer_of[p]
                storage_in[key] = storage_in.get(key, 0.0) + pressure * span
            elif p in uids and c not in uids and c in binding:
                key = (p, binding[c])
                span = layer_of[c] - layer.index
                storage_out[key] = storage_out.get(key, 0.0) + pressure * span
    return {
        "in_layer_edges": in_edges,
        "edge_transport": {e: transport.edge_time(*e) for e in in_edges},
        "release": {
            uid: transport.release_time(uid, within=uids)
            for uid in layer.uids
        },
        "incoming": [
            (binding[p], c)
            for p, c in assay.edges
            if c in uids and p not in uids and p in binding
        ],
        "outgoing": [
            (p, binding[c])
            for p, c in assay.edges
            if p in uids and c not in uids and c in binding
        ],
        "existing_paths": paths_excluding_layer(assay, binding, uids),
        # Dict equality ignores order; the lists keep it.
        "storage_in": list(storage_in.items()),
        "storage_out": list(storage_out.items()),
    }


def run_checked(assay, spec):
    """Synthesize, checking every prepared layer problem against the
    oracle; returns how many problems were checked."""
    checked = []
    original = pipeline.prepare_layer_problem

    def checking(assay, layering, spec, transport, state, layer, resynthesis):
        expected = oracle_problem(
            assay, layering, spec, transport, dict(state.binding), layer
        )
        problem = original(
            assay, layering, spec, transport, state, layer, resynthesis
        )
        actual = {name: getattr(problem, name) for name in expected}
        actual["storage_in"] = list(problem.storage_in.items())
        actual["storage_out"] = list(problem.storage_out.items())
        assert actual == expected
        checked.append(layer.index)
        return problem

    with mock.patch.object(pipeline, "prepare_layer_problem", checking):
        result = synthesize(assay, spec)
    result.validate()
    return len(checked)


@settings(max_examples=30, deadline=None)
@given(
    num_ops=st.integers(4, 45),
    seed=st.integers(0, 10_000),
    edge_probability=st.floats(0.02, 0.4),
    indeterminate_fraction=st.floats(0.0, 0.5),
    threshold=st.integers(1, 3),
    storage=st.sampled_from(["off", "auto"]),
)
def test_greedy_layer_problems_match_full_scan(
    num_ops, seed, edge_probability, indeterminate_fraction, threshold,
    storage,
):
    assay = random_assay(
        num_ops, seed=seed, edge_probability=edge_probability,
        indeterminate_fraction=indeterminate_fraction,
    )
    spec = SynthesisSpec(
        max_devices=num_ops, threshold=threshold, scheduler="greedy",
        storage_mode=storage, max_iterations=3, improvement_threshold=-1.0,
    )
    assert run_checked(assay, spec) > 0


def test_portfolio_layer_problems_match_full_scan():
    assay = random_assay(
        8, seed=3, edge_probability=0.3, indeterminate_fraction=0.3
    )
    for storage in ("off", "auto"):
        spec = SynthesisSpec(
            max_devices=8, threshold=2, scheduler="portfolio",
            storage_mode=storage, time_limit=10.0, max_iterations=2,
            improvement_threshold=-1.0,
        )
        assert run_checked(assay, spec) > 0


def check_pass_state(state):
    """The inventory index and reference counts against full rebuilds."""
    assert state.inventory.uids == InventoryIndex.of(
        state.devices.values()
    ).uids
    position = state.inventory.position
    assert sorted(state.devices, key=position.__getitem__) == list(
        state.devices
    )
    assert state.refs == Counter(state.binding.values())


def greedy_outcome(problem, spec):
    result = schedule_layer_greedy(problem, spec, UidAllocator(10**6))
    return (
        result.schedule.placements,
        result.binding,
        result.new_devices,
    )


def run_state_checked(assay, spec):
    """Synthesize, checking the pass state after every layer and pass;
    returns the result."""
    layers = []
    passes = []
    prepare = pipeline.prepare_layer_problem
    apply = pipeline.apply_layer_result
    run_pass = pipeline.PassLoop.run_pass

    def preparing(assay, layering, spec, transport, state, layer, resynthesis):
        # The devices ``D \ D'_i`` keeps, by a scan of the binding.
        layer_of = layering.layer_of
        referenced = {
            dev
            for op_uid, dev in state.binding.items()
            if layer_of[op_uid] != layer.index
        }
        kept = [
            uid
            for uid, born in state.born.items()
            if not resynthesis or born != layer.index or uid in referenced
        ]
        problem = prepare(
            assay, layering, spec, transport, state, layer, resynthesis
        )
        assert list(state.devices) == kept
        assert problem.inventory.uids == state.inventory.uids
        check_pass_state(state)
        bare = dataclasses.replace(problem, inventory=None)
        assert greedy_outcome(problem, spec) == greedy_outcome(bare, spec)
        return problem

    def applying(state, layer_index, result):
        apply(state, layer_index, result)
        check_pass_state(state)
        layers.append(layer_index)

    def running(self, context, previous):
        state = run_pass(self, context, previous)
        check_pass_state(state)
        assert len(state.path_counts) == len(
            state.schedule().transportation_paths(context.assay.edges)
        )
        passes.append(state)
        return state

    with mock.patch.object(
        pipeline, "prepare_layer_problem", preparing
    ), mock.patch.object(
        pipeline, "apply_layer_result", applying
    ), mock.patch.object(pipeline.PassLoop, "run_pass", running):
        result = synthesize(assay, spec)
    result.validate()
    assert layers
    assert len(passes) == len(result.history) >= 2
    return result


@settings(max_examples=25, deadline=None)
@given(
    num_ops=st.integers(4, 40),
    seed=st.integers(0, 10_000),
    edge_probability=st.floats(0.02, 0.4),
    indeterminate_fraction=st.floats(0.0, 0.5),
    threshold=st.integers(1, 3),
    storage=st.sampled_from(["off", "auto"]),
    binding_mode=st.sampled_from(list(BindingMode)),
)
def test_greedy_pass_state_matches_rebuilds(
    num_ops, seed, edge_probability, indeterminate_fraction, threshold,
    storage, binding_mode,
):
    assay = random_assay(
        num_ops, seed=seed, edge_probability=edge_probability,
        indeterminate_fraction=indeterminate_fraction,
    )
    spec = SynthesisSpec(
        max_devices=num_ops, threshold=threshold, scheduler="greedy",
        storage_mode=storage, binding_mode=binding_mode, max_iterations=3,
        improvement_threshold=-1.0,
    )
    run_state_checked(assay, spec)


@settings(max_examples=4, deadline=None)
@given(
    num_ops=st.integers(4, 8),
    seed=st.integers(0, 10_000),
    storage=st.sampled_from(["off", "auto"]),
)
def test_portfolio_pass_state_matches_rebuilds(num_ops, seed, storage):
    assay = random_assay(
        num_ops, seed=seed, edge_probability=0.3, indeterminate_fraction=0.3
    )
    spec = SynthesisSpec(
        max_devices=num_ops, threshold=2, scheduler="portfolio",
        storage_mode=storage, time_limit=10.0, max_iterations=2,
        improvement_threshold=-1.0,
    )
    run_state_checked(assay, spec)

"""The array-built layer ILP against the expression-built oracle.

``build_layer_model`` emits the layer ILP straight into a
``StandardForm``; ``tests/layer_model_oracle.py`` keeps the ``LinExpr``
builder it replaced.  HiGHS must see the same problem from both, so every
array is compared byte for byte (dtype, values, the sign of every zero),
and so are the objective constant and the column and row names.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assays import (
    chip_assay,
    gene_expression_assay,
    kinase_assay,
    random_assay,
    rtqpcr_assay,
)
from repro.devices import BindingMode
from repro.errors import InfeasibleError
from repro.hls import SynthesisSpec, pipeline, synthesize
from repro.hls.milp_model import (
    apply_layer_delta,
    build_layer_model,
    encode_layer_delta,
)

from .layer_model_oracle import build_layer_model as oracle_build

FORM_ARRAYS = (
    "c", "indptr", "indices", "data", "row_lower", "row_upper",
    "var_lower", "var_upper", "integrality",
)


def record_problems(assay, spec):
    """Every (problem, spec) a run of ``spec`` poses, re-synthesis passes
    included (their problems carry outgoing cross-layer edges)."""
    problems = []
    solve = pipeline.LayerSolveStage.solve

    def record(stage, problem, spec, *args, **kwargs):
        problems.append((problem, spec))
        return solve(stage, problem, spec, *args, **kwargs)

    pipeline.LayerSolveStage.solve = record
    try:
        synthesize(assay, spec)
    finally:
        pipeline.LayerSolveStage.solve = solve
    return problems


def assert_same_problem(problem, spec):
    try:
        expected = oracle_build(problem, spec)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            build_layer_model(problem, spec)
        return
    built = build_layer_model(problem, spec)
    assert_forms_identical(built.model, expected.model.to_standard_form())
    assert built.horizon == expected.horizon
    assert list(built.od) == list(expected.od)
    assert list(built.path_vars) == list(expected.path_vars)


def assert_forms_identical(form, reference):
    for name in FORM_ARRAYS:
        got, want = getattr(form, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert repr(form.c0) == repr(reference.c0)
    assert form.sense == reference.sense
    assert form.variables == [
        getattr(v, "name", v) for v in reference.variables
    ]
    assert form.constraints == reference.constraints


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_ops=st.integers(3, 14),
    storage=st.sampled_from(["off", "auto"]),
    exact=st.booleans(),
    threshold=st.integers(1, 3),
)
def test_generator_layers_match_the_oracle(
    seed, num_ops, storage, exact, threshold
):
    assay = random_assay(
        num_ops, seed=seed, edge_probability=0.3, indeterminate_fraction=0.3,
        max_duration=9,
    )
    spec = SynthesisSpec(
        max_devices=num_ops,
        threshold=threshold,
        storage_mode=storage,
        binding_mode=BindingMode.EXACT if exact else BindingMode.COVER,
        improvement_threshold=-1,
        max_iterations=1,
        scheduler="greedy",
    )
    problems = record_problems(assay, spec)
    assert problems
    for problem, layer_spec in problems:
        assert_same_problem(problem, layer_spec)
    # No free slot: only the inherited devices can bind.
    problem, layer_spec = problems[-1]
    assert_same_problem(
        dataclasses.replace(problem, free_slots=0), layer_spec
    )


PROTOCOLS = {
    "gene2": (gene_expression_assay(cells=2), 6, 2),
    "gene3": (gene_expression_assay(cells=3), 9, 3),
    "gene4": (gene_expression_assay(cells=4), 12, 4),
    "rtq2": (rtqpcr_assay(cells=2), 6, 2),
    "chip1": (chip_assay(samples=1), 4, 1),
    "kin1": (kinase_assay(samples=1), 6, 2),
}


@functools.lru_cache(maxsize=None)
def protocol_problems(name):
    """The layer problems of a protocol's initial and first re-synthesis
    pass under the default (portfolio) scheduler, storage pressure on."""
    assay, max_devices, threshold = PROTOCOLS[name]
    spec = SynthesisSpec(
        max_devices=max_devices, threshold=threshold, storage_mode="auto",
        improvement_threshold=-1, max_iterations=1,
    )
    return record_problems(assay, spec)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_protocol_layers_match_the_oracle(name):
    problems = protocol_problems(name)
    if len({problem.layer_index for problem, _ in problems}) > 1:
        # Re-synthesis layers see both cross-layer directions.
        assert any(problem.outgoing for problem, _ in problems)
        assert any(problem.storage_in for problem, _ in problems)
    for problem, spec in problems:
        assert_same_problem(problem, spec)
        # The same problem under the paper flow: no storage pressure.
        assert_same_problem(
            dataclasses.replace(problem, storage_in={}, storage_out={}),
            dataclasses.replace(spec, storage_mode="off"),
        )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_delta_patched_form_equals_a_scratch_build(name):
    for problem, spec in protocol_problems(name):
        shifted = dataclasses.replace(
            problem,
            edge_transport={
                e: t + 3 for e, t in problem.edge_transport.items()
            },
            release={
                uid: r + 3 if r else 0 for uid, r in problem.release.items()
            },
        )
        layer_model = build_layer_model(problem, spec)
        delta = encode_layer_delta(layer_model, shifted, spec)
        assert delta is not None
        apply_layer_delta(layer_model, shifted, delta)
        scratch = build_layer_model(shifted, spec)
        assert_forms_identical(layer_model.model, scratch.model)
        assert layer_model.horizon == scratch.horizon

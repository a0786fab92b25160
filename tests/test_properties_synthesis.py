"""Property-based end-to-end tests: any random assay synthesizes validly.

The validator (:mod:`repro.hls.validate`) replays every paper constraint on
the decoded result, so "synthesize + validate" over random assays is a
strong whole-pipeline property.  ILP solving is exact but slow, so the
random instances stay small; the greedy fallback path is exercised
separately with the ILP disabled via a zero-ish time budget.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assays import random_assay
from repro.baselines import synthesize_conventional
from repro.cyberphysical import ExecutionEngine
from repro.hls import SynthesisSpec, synthesize
from repro.hls.validate import collect_violations
from repro.runtime import RetryModel

FAST = SynthesisSpec(
    max_devices=8, threshold=2, time_limit=5.0, max_iterations=1
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 500),
    num_ops=st.integers(2, 8),
    ind_frac=st.floats(0.0, 0.5),
)
def test_synthesis_always_valid(seed, num_ops, ind_frac):
    assay = random_assay(
        num_ops, seed=seed, indeterminate_fraction=ind_frac,
        max_duration=12,
    )
    result = synthesize(assay, FAST)
    assert collect_violations(result) == []
    # Makespan expression lists exactly the indeterminate layers.
    terms = result.schedule.indeterminate_terms
    expected = [
        i + 1 for i, layer in enumerate(result.schedule.layers)
        if any(
            assay[uid].is_indeterminate for uid in layer.placements
        )
    ]
    assert terms == expected


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 200), num_ops=st.integers(2, 7))
def test_conventional_always_valid(seed, num_ops):
    assay = random_assay(num_ops, seed=seed, indeterminate_fraction=0.3,
                         max_duration=12)
    result = synthesize_conventional(assay, FAST)
    assert collect_violations(result) == []


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 300),
    num_ops=st.integers(5, 20),
    exec_seed=st.integers(0, 99),
)
def test_greedy_fallback_always_valid_and_executable(seed, num_ops, exec_seed):
    """With the ILP starved (tiny time limit, fallback on), the greedy
    scheduler must still produce a valid, executable hybrid schedule."""
    assay = random_assay(num_ops, seed=seed, indeterminate_fraction=0.3,
                         max_duration=10)
    # Every operation instantiates at most one device, so a cap of
    # num_ops can never bind; the test targets the greedy path, not
    # capacity exhaustion.
    spec = dataclasses.replace(
        FAST, time_limit=0.001, allow_heuristic_fallback=True,
        max_iterations=0, max_devices=num_ops + 2, threshold=3,
    )
    result = synthesize(assay, spec)
    assert collect_violations(result) == []
    report = ExecutionEngine(
        result, retry_model=RetryModel(success_probability=0.5), seed=exec_seed
    ).run()
    assert report.makespan == result.fixed_makespan + sum(
        report.realized_terms.values()
    )


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 100), num_ops=st.integers(3, 8))
def test_cover_objective_dominates_exact(seed, num_ops):
    """COVER binding is a relaxation of EXACT binding: on a single-layer
    problem solved to optimality with identical inputs, the
    component-oriented method's weighted objective is never worse (every
    EXACT-feasible solution is COVER-feasible at the same cost).

    This holds per layer-solve, not across refinement trajectories — the
    transport refinement may land on different terms per method — so the
    property pins a single-layer assay with re-synthesis disabled.
    """
    from hypothesis import assume

    from repro.analysis.stats import objective_value

    assay = random_assay(num_ops, seed=seed, indeterminate_fraction=0.0,
                         max_duration=10)
    spec = dataclasses.replace(FAST, max_iterations=0)
    ours = synthesize(assay, spec)
    conv = synthesize_conventional(assay, spec)
    assume(all(s == "optimal" for s in ours.history[0].layer_statuses))
    assume(all(s == "optimal" for s in conv.history[0].layer_statuses))
    assert objective_value(ours) <= objective_value(conv) + 1e-6

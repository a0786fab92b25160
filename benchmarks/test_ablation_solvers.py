"""Ablation A4 — HiGHS against the branch-and-bound oracle.

The paper solves with Gurobi; synthesis here solves with HiGHS (via
SciPy).  The pure-Python branch and bound over an own simplex
(:mod:`repro.ilp.bnb`) is kept only as an independent reference: this
bench cross-checks that both find the same optimum on a real (small)
layer model, and measures their speed difference.
"""

from __future__ import annotations


import pytest

from repro.hls import SynthesisSpec
from repro.hls.milp_model import LayerProblem, build_layer_model
from repro.ilp.bnb import solve_bnb
from repro.ilp.highs import solve_highs
from repro.operations import Fixed, Operation


def small_layer_problem():
    ops = [
        Operation("a", Fixed(4), accessories=frozenset({"pump"})),
        Operation("b", Fixed(6), accessories=frozenset({"pump"})),
        Operation("c", Fixed(3), accessories=frozenset({"optical_system"})),
    ]
    edges = [("a", "c")]
    return LayerProblem(
        layer_index=0,
        ops=ops,
        in_layer_edges=edges,
        edge_transport={e: 2 for e in edges},
        release={"a": 2, "b": 0, "c": 0},
        fixed_devices=[],
        free_slots=3,
    )


SPEC = SynthesisSpec(max_devices=3, time_limit=30)


SOLVERS = {"highs": solve_highs, "bnb": solve_bnb}


@pytest.mark.parametrize("backend", list(SOLVERS))
def test_backend_speed(backend, benchmark):
    problem = small_layer_problem()

    def solve():
        layer_model = build_layer_model(problem, SPEC)
        return SOLVERS[backend](layer_model.model, time_limit=30)

    solution = benchmark(solve)
    assert solution.status.has_solution


def test_backends_agree_on_layer_model(benchmark, record_rows):
    problem = small_layer_problem()

    def solve_both():
        out = {}
        for backend, solve in SOLVERS.items():
            layer_model = build_layer_model(problem, SPEC)
            solution = solve(layer_model.model, time_limit=60)
            assert solution.status.name == "OPTIMAL"
            out[backend] = solution.objective
        return out

    objectives = benchmark.pedantic(solve_both, rounds=1, iterations=1)
    record_rows(
        "ablation_solvers",
        "layer-model optimum per backend: "
        + ", ".join(f"{k}={v:.1f}" for k, v in objectives.items()),
    )
    assert objectives["highs"] == pytest.approx(objectives["bnb"], abs=1e-4)


"""Extension experiment — certified integrality gaps on the paper cases.

Not a paper table: the paper reports heuristic/ILP objectives without
optimality certificates.  This bench walks the initial-pass layer
sequence of each benchmark case and solves every layer problem with the
``lp-bound`` backend: the greedy list schedule plus the LP-relaxation
optimum of the same layer ILP, a proven lower bound on its objective.

One inequality must hold per layer, by construction:

* ``lp bound <= greedy`` — the LP optimum bounds every feasible schedule.

The recorded table quotes the per-case totals and the certified gap.
"""

from __future__ import annotations

from repro.assays import benchmark_assay
from repro.hls import SynthesisSpec, create_scheduler
from repro.hls.backends import layer_cost
from repro.hls.context import PassState, SynthesisContext
from repro.hls.pipeline import (
    LayeringStage,
    apply_layer_result,
    prepare_layer_problem,
)
from repro.ilp import relative_gap

SPEC = SynthesisSpec(threshold=4, time_limit=10.0, max_iterations=0)


def _case_rows(case: int) -> list[dict]:
    """Per-layer greedy costs and LP bounds along the greedy trajectory."""
    context = SynthesisContext(assay=benchmark_assay(case), spec=SPEC)
    LayeringStage().run(context)
    lp_bound = create_scheduler("lp-bound")

    state = PassState(context.layer_edges)
    rows = []
    for layer in context.layering.layers:
        problem = prepare_layer_problem(
            context.assay, context.layering, SPEC, context.transport,
            state, layer, resynthesis=False,
        )
        result = lp_bound.solve(problem, SPEC, context.uids)
        rows.append({
            "layer": layer.index,
            "greedy": layer_cost(result, problem, SPEC),
            "bound": result.stats.lower_bound,
        })
        apply_layer_result(state, layer.index, result)
    return rows


def test_gap_table(record_rows):
    lines = [
        f"{'case':>4} {'layers':>6} {'greedy':>9} {'lp bound':>9} {'gap':>6}",
    ]
    for case in (1, 2, 3):
        rows = _case_rows(case)
        for row in rows:
            if row["bound"] is not None:
                assert row["bound"] <= row["greedy"] + 1e-9
        greedy_total = sum(r["greedy"] for r in rows)
        certified = [r for r in rows if r["bound"] is not None]
        bound_total = (
            sum(r["bound"] for r in certified)
            if len(certified) == len(rows)
            else None
        )
        gap = relative_gap(greedy_total, bound_total)
        bound_text = "-" if bound_total is None else f"{bound_total:.1f}"
        gap_text = "-" if gap is None else f"{gap * 100:.1f}%"
        lines.append(
            f"{case:>4} {len(rows):>6} {greedy_total:>9.1f} "
            f"{bound_text:>9} {gap_text:>6}"
        )
    record_rows("integrality_gap", "\n".join(lines))

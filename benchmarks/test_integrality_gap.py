"""Extension experiment — certified integrality gaps on the paper cases.

Not a paper table: the paper reports heuristic/ILP objectives without
optimality certificates.  This bench walks the initial-pass layer
sequence of each benchmark case and solves every layer problem three
ways — plain greedy, the approx-lp rounding backend, and the LP
relaxation bound — on *identical* problems (the trajectory is advanced
with the greedy result, so both backends see the same state).

Two inequalities must hold per layer, by construction:

* ``approx-lp <= greedy`` — the rounding backend races plain greedy and
  keeps the cheaper schedule;
* ``lp bound <= approx-lp`` — the LP optimum is a proven lower bound.

The recorded table quotes the per-case totals and the certified gap.
"""

from __future__ import annotations

from repro.assays import benchmark_assay
from repro.hls import SynthesisSpec, UidAllocator, create_scheduler
from repro.hls.backends import layer_cost
from repro.hls.context import PassState, SynthesisContext
from repro.hls.pipeline import (
    LayeringStage,
    apply_layer_result,
    prepare_layer_problem,
)
from repro.ilp import relative_gap

SPEC = SynthesisSpec(threshold=4, time_limit=10.0, max_iterations=0)

_STATE: dict[int, dict] = {}


def _case_rows(case: int) -> dict:
    """Per-layer greedy/approx/bound costs along the greedy trajectory."""
    if case in _STATE:
        return _STATE[case]
    context = SynthesisContext(assay=benchmark_assay(case), spec=SPEC)
    LayeringStage().run(context)
    greedy = create_scheduler("greedy")
    approx = create_scheduler("approx-lp")

    state = PassState(context.layer_edges)
    rows = []
    for layer in context.layering.layers:
        problem = prepare_layer_problem(
            context.assay, context.layering, SPEC, context.transport,
            state, layer, resynthesis=False,
        )
        # Solve the identical problem twice; throwaway uids keep the
        # comparison solve from disturbing the trajectory's allocator.
        greedy_result = greedy.solve(problem, SPEC, context.uids)
        approx_result = approx.solve(problem, SPEC, UidAllocator(9000))
        rows.append({
            "layer": layer.index,
            "greedy": layer_cost(greedy_result, problem, SPEC),
            "approx": layer_cost(approx_result, problem, SPEC),
            "bound": approx_result.stats.lower_bound,
        })
        apply_layer_result(state, layer.index, greedy_result)

    _STATE[case] = {"rows": rows}
    return _STATE[case]


def test_gap_table(record_rows):
    lines = [
        f"{'case':>4} {'layers':>6} {'greedy':>9} {'approx-lp':>9} "
        f"{'lp bound':>9} {'gap':>6}",
    ]
    for case in (1, 2, 3):
        rows = _case_rows(case)["rows"]
        for row in rows:
            assert row["approx"] <= row["greedy"] + 1e-6
            if row["bound"] is not None:
                assert row["bound"] <= row["approx"] + 1e-9
        greedy_total = sum(r["greedy"] for r in rows)
        approx_total = sum(r["approx"] for r in rows)
        certified = [r for r in rows if r["bound"] is not None]
        bound_total = (
            sum(r["bound"] for r in certified)
            if len(certified) == len(rows)
            else None
        )
        gap = relative_gap(approx_total, bound_total)
        bound_text = "-" if bound_total is None else f"{bound_total:.1f}"
        gap_text = "-" if gap is None else f"{gap * 100:.1f}%"
        lines.append(
            f"{case:>4} {len(rows):>6} {greedy_total:>9.1f} "
            f"{approx_total:>9.1f} {bound_text:>9} {gap_text:>6}"
        )
        assert approx_total <= greedy_total + 1e-6
    record_rows("integrality_gap", "\n".join(lines))


def test_approx_lp_layer_throughput(benchmark):
    """One mid-size rounded layer solve (case 2, first layer) per round."""
    context = SynthesisContext(assay=benchmark_assay(2), spec=SPEC)
    LayeringStage().run(context)
    layer = context.layering.layers[0]
    problem = prepare_layer_problem(
        context.assay, context.layering, SPEC, context.transport,
        PassState(context.layer_edges), layer, resynthesis=False,
    )
    approx = create_scheduler("approx-lp")
    result = benchmark(
        lambda: approx.solve(problem, SPEC, UidAllocator(9000))
    )
    assert result.stats.lower_bound is not None

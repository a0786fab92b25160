"""The modulo ILP: absolute starts, wrap variables, circular exclusivity.

For a candidate initiation interval ``II`` the model keeps one integer
start ``S_i`` per operation (bounded by the one-shot horizon) and one
integer *wrap* variable ``w`` per pair of intervals sharing a resource.
Two half-open intervals ``[s_i, e_i)`` and ``[s_j, e_j)`` are disjoint
modulo ``II`` exactly when some integer ``w`` satisfies

    0  <=  s_j - e_i + II*w  <=  II - len_i - len_j

i.e. iteration-shifted copies of ``i`` leave a gap that fits ``j``.
Substituting ``len = e - s`` collapses the upper branch to the tidy
``e_j - s_i + II*w <= II``, so each pair costs two rows:

    pair_lo:  s_j - e_i + II*w  >=  0
    pair_hi:  e_j - s_i + II*w  <=  II

Because the interval endpoints are affine in operation starts
(:class:`~repro.periodic.problem.AffineInterval`), both rows are linear.
Each II probe builds its model from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ilp import LinExpr, Model, Solution, Variable
from .problem import PeriodicProblem


def wrap_bound(horizon: int, ii: int) -> int:
    """Bound on a wrap variable: intervals live in ``[0, horizon]``, so no
    pair ever needs to shift by more than the horizon's worth of periods."""
    return max(1, math.ceil(horizon / max(ii, 1)) + 1)


@dataclass
class PeriodicModel:
    """The modulo model of one :class:`PeriodicProblem` at one II."""

    problem: PeriodicProblem
    ii: int
    model: Model
    starts: dict[str, Variable]

    def decode(self, solution: Solution) -> dict[str, int]:
        return {
            uid: solution.int_value(var) for uid, var in self.starts.items()
        }


def build_periodic_model(problem: PeriodicProblem, ii: int) -> PeriodicModel:
    """Encode ``problem`` at candidate interval ``ii``.

    Deterministic: operations in topological order, intervals in problem
    order, pairs in (resource, index) order.
    """
    model = Model(name=f"periodic[{problem.name}]@{ii}", sense="min")
    horizon = problem.horizon
    starts = {
        uid: model.integer(f"S[{uid}]", lb=0, ub=horizon)
        for uid in problem.order
    }

    for parent, child in problem.edges:
        delay = problem.delays[(parent, child)]
        model.add(
            starts[child]
            >= starts[parent] + problem.durations[parent] + delay,
            name=f"dep[{parent}->{child}]",
        )

    for interval in problem.intervals:
        if interval.fixed_length is not None:
            # Constant-length intervals get their fit check at probe time
            # (feasible_lengths) — an empty row would be degenerate.
            continue
        expr = (
            starts[interval.end_anchor] - starts[interval.start_anchor]
        )
        offset = interval.start_offset - interval.end_offset
        model.add(expr <= ii + offset, name=f"fit[{interval.label}]")

    bound = wrap_bound(horizon, ii)
    grouped = problem.intervals_by_resource()
    for resource in sorted(grouped):
        intervals = grouped[resource]
        for a in range(len(intervals)):
            for b in range(a + 1, len(intervals)):
                first, second = intervals[a], intervals[b]
                wrap = model.integer(
                    f"w[{first.label}|{second.label}]", lb=-bound, ub=bound
                )
                # s_second - e_first + II*w >= 0
                model.add(
                    starts[second.start_anchor]
                    - starts[first.end_anchor]
                    + wrap * ii
                    >= first.end_offset - second.start_offset,
                    name=f"pair_lo[{first.label}|{second.label}]",
                )
                # e_second - s_first + II*w <= II
                model.add(
                    starts[second.end_anchor]
                    - starts[first.start_anchor]
                    + wrap * ii
                    <= ii + first.start_offset - second.end_offset,
                    name=f"pair_hi[{first.label}|{second.label}]",
                )

    model.minimize(LinExpr.sum(starts[uid] for uid in problem.order))
    return PeriodicModel(problem=problem, ii=ii, model=model, starts=starts)


def feasible_lengths(problem: PeriodicProblem, ii: int) -> bool:
    """Whether every fixed-length interval fits one period at all —
    a constant-time reject cheaper than any solve."""
    for interval in problem.intervals:
        length = interval.fixed_length
        if length is not None and length > ii:
            return False
    return True

"""LP-relaxation solving: certified lower bounds for ILP models.

Relaxing integrality turns the layer ILP into an LP whose optimum is a
proven lower bound on the ILP objective (for minimization models).  The
bound is cheap — polynomial LP instead of exponential branch and bound —
and certifies every schedule the heuristics produce: "within X% of the
layer optimum" instead of a blind quality flag.

Only an *optimal* LP solve certifies anything.  A time-limited LP has a
primal value but no proof, so those solves report ``TIMEOUT`` with no
bound attached.
"""

from __future__ import annotations

import math

from ..errors import SolverError
from .model import Model, StandardForm
from .status import Solution, SolveStats, SolveStatus


def solve_relaxation(
    model: Model | StandardForm, time_limit: float | None = None
) -> Solution:
    """Solve the LP relaxation of ``model`` with HiGHS.

    Returns a :class:`Solution` whose ``values`` are the (generally
    fractional) LP optimum — keyed by variable for a :class:`Model`, the
    column vector for a :class:`StandardForm` — and whose ``bound`` equals
    ``objective`` when the solve proved optimality — that number is a
    certified lower bound on the integer model's objective.
    ``time_limit`` caps the solve.
    """
    # Imported here so SciPy loads on the first solve, not with repro.
    from .highs import _solve_form

    form = model.to_standard_form(relax_integrality=True)
    solved = _solve_form(form, time_limit)
    if solved.status is not SolveStatus.OPTIMAL:
        # A limit-hit LP has a primal value but no optimality proof — it
        # certifies nothing, so no bound is reported.
        status = solved.status
        if status is SolveStatus.FEASIBLE:
            status = SolveStatus.TIMEOUT
        return _lp_solution(status, solved.runtime)
    values = solved.values
    if isinstance(model, Model):
        values = dict(zip(form.variables, values.tolist()))
    return _lp_solution(
        SolveStatus.OPTIMAL, solved.runtime, objective=solved.objective,
        values=values,
    )


def relaxation_bound(
    model: Model | StandardForm, time_limit: float | None = None
) -> Solution | None:
    """Solve the LP relaxation; the optimum certifies a lower bound.

    Returns the LP :class:`Solution` when it solved to optimality with a
    finite objective, else ``None`` — a time-limited LP (or a solver
    failure) proves nothing and must not be reported as a bound.
    """
    try:
        relaxed = solve_relaxation(model, time_limit=time_limit)
    except SolverError:
        return None
    if relaxed.status is not SolveStatus.OPTIMAL or relaxed.objective is None:
        return None
    if not math.isfinite(relaxed.objective):
        return None
    return relaxed


def _lp_solution(
    status: SolveStatus,
    runtime: float,
    objective: float | None = None,
    values=None,
) -> Solution:
    bound = None
    if status is SolveStatus.OPTIMAL and objective is not None:
        if math.isfinite(objective):
            bound = objective
    return Solution(
        status=status,
        objective=objective,
        values={} if values is None else values,
        bound=bound,
        runtime=runtime,
        backend="lp-highs",
        stats=SolveStats(
            backend="lp-highs",
            status=status.value,
            solve_time=runtime,
            lower_bound=bound,
            integrality_gap=0.0 if bound is not None else None,
        ),
    )

"""Exact MILP solving through SciPy's HiGHS bindings.

This plays the role of Gurobi in the paper's toolchain: an exact
branch-and-cut MILP solver, and the only one the synthesis flow runs.  The
pure-Python branch and bound (:mod:`repro.ilp.bnb`) is kept as the
reference the tests compare it against on small instances.

Two entry points share one solve core:

* :func:`solve_highs` — one-shot: solve a :class:`~repro.ilp.model.Model`
  (exported to standard form; values keyed by its variables) or a
  :class:`~repro.ilp.model.StandardForm` as it stands (values are the
  column vector).
* :class:`HighsSession` — persistent: attached to one standard form whose
  arrays the caller patches in place between solves; every solve hands
  HiGHS the current arrays.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import optimize

from ..errors import SolverError
from .model import Model, StandardForm
from .status import Solution, SolveStats, SolveStatus, relative_gap


def _solve_form(
    form: StandardForm,
    time_limit: float | None = None,
    mip_gap: float | None = None,
) -> Solution:
    """Solve a standard-form model with ``scipy.optimize.milp`` (HiGHS).

    The solution's ``values`` is the column vector, integral columns
    rounded.
    """
    start = time.monotonic()
    options: dict[str, float | bool] = {"disp": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)

    constraints = None
    if form.num_constraints:
        constraints = optimize.LinearConstraint(
            form.a_matrix, form.row_lower, form.row_upper
        )

    # Looked up on the module at call time, so a patched milp sees it.
    result = optimize.milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality,
        bounds=optimize.Bounds(form.var_lower, form.var_upper),
        options=options,
    )
    runtime = time.monotonic() - start

    def _stats(status: SolveStatus) -> SolveStats:
        return SolveStats(
            backend="highs",
            status=status.value,
            nodes=int(getattr(result, "mip_node_count", 0) or 0),
            solve_time=runtime,
        )

    # scipy/HiGHS status codes: 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 other.
    if result.status == 2:
        return Solution(SolveStatus.INFEASIBLE, runtime=runtime, backend="highs",
                        stats=_stats(SolveStatus.INFEASIBLE))
    if result.status == 3:
        return Solution(SolveStatus.UNBOUNDED, runtime=runtime, backend="highs",
                        stats=_stats(SolveStatus.UNBOUNDED))
    if result.x is None:
        if result.status == 1:
            return Solution(SolveStatus.TIMEOUT, runtime=runtime, backend="highs",
                            stats=_stats(SolveStatus.TIMEOUT))
        raise SolverError(f"HiGHS failed: status={result.status} {result.message}")

    x = np.asarray(result.x, dtype=float)
    int_mask = form.integrality.astype(bool)
    x[int_mask] = np.round(x[int_mask])
    objective = form.objective_value(x)
    bound = None
    dual = getattr(result, "mip_dual_bound", None)
    if dual is not None and math.isfinite(dual):
        bound = form.sense * float(dual) + form.c0
    status = SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
    if bound is None and status is SolveStatus.OPTIMAL:
        # Pure-LP models report no dual bound; optimality certifies one.
        bound = objective
    stats = _stats(status)
    stats.objective = objective
    stats.lower_bound = bound
    # Prefer the solver's own achieved gap; fall back to the bound we have.
    achieved = getattr(result, "mip_gap", None)
    if achieved is not None and math.isfinite(achieved) and bound is not None:
        stats.integrality_gap = max(0.0, float(achieved))
    else:
        stats.integrality_gap = relative_gap(objective, bound)
    return Solution(
        status=status,
        objective=objective,
        values=x,
        bound=bound,
        runtime=runtime,
        backend="highs",
        stats=stats,
    )


def solve_highs(
    model: Model | StandardForm,
    time_limit: float | None = None,
    mip_gap: float | None = None,
) -> Solution:
    """Solve ``model`` with ``scipy.optimize.milp`` (HiGHS).

    A :class:`Model`'s solution maps its variables to values; a
    :class:`StandardForm`'s keeps the column vector.
    """
    if isinstance(model, StandardForm):
        return _solve_form(model, time_limit, mip_gap)
    form = model.to_standard_form()
    solution = _solve_form(form, time_limit, mip_gap)
    if solution.status.has_solution:
        solution.values = dict(zip(form.variables, solution.values.tolist()))
    return solution


class HighsSession:
    """A persistent HiGHS solve attached to one standard form.

    The owner patches the form's arrays in place between solves (see
    :func:`repro.hls.milp_model.apply_layer_delta`); each solve wraps the
    current arrays, so a patched session solves exactly what a scratch
    build of the patched problem would hand HiGHS.
    """

    def __init__(self, form: StandardForm) -> None:
        self.form = form

    def solve(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> Solution:
        """Solve the form in its current state."""
        return _solve_form(self.form, time_limit, mip_gap)

    def close(self) -> None:
        self.form = None

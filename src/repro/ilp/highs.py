"""Exact MILP solving through SciPy's HiGHS bindings.

This plays the role of Gurobi in the paper's toolchain: an exact
branch-and-cut MILP solver, and the only one the synthesis flow runs.  The
pure-Python branch and bound (:mod:`repro.ilp.bnb`) is kept as the
reference the tests compare it against on small instances.

Two entry points share one solve core:

* :func:`solve_highs` — one-shot: export the model to standard form, solve.
* :class:`HighsSession` — persistent: cache the extracted rows and, between
  solves, re-extract only the rows dirtied by model mutations (consuming
  the model's mutation log).  The assembled standard form is identical to a
  fresh ``to_standard_form()`` export, so session solves are byte-identical
  to one-shot solves of the same model state.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from ..errors import SolverError
from .expr import VarType
from .model import Constraint, Model, ModelDelta, StandardForm
from .status import Solution, SolveStats, SolveStatus, relative_gap


def _solve_form(
    form: StandardForm,
    time_limit: float | None = None,
    mip_gap: float | None = None,
) -> Solution:
    """Solve a standard-form model with ``scipy.optimize.milp`` (HiGHS)."""
    start = time.monotonic()
    options: dict[str, float | bool] = {"disp": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)

    constraints = None
    if form.a_matrix.shape[0]:
        constraints = LinearConstraint(form.a_matrix, form.row_lower, form.row_upper)

    result = milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality,
        bounds=Bounds(form.var_lower, form.var_upper),
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
    values = {var: float(x[i]) for i, var in enumerate(form.variables)}
    objective = form.sense * float(form.c @ x) + form.c0
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
        values=values,
        bound=bound,
        runtime=runtime,
        backend="highs",
        stats=stats,
    )


def solve_highs(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float | None = None,
) -> Solution:
    """Solve ``model`` with ``scipy.optimize.milp`` (HiGHS)."""
    return _solve_form(model.to_standard_form(), time_limit, mip_gap)


def _extract_row(con: Constraint) -> tuple[list[int], list[float]]:
    cols: list[int] = []
    vals: list[float] = []
    for var, coeff in con.expr.terms.items():
        if coeff != 0.0:
            cols.append(var.index)
            vals.append(coeff)
    return cols, vals


class HighsSession:
    """A persistent HiGHS solve attached to one mutable model.

    The session extracts every constraint row once at attach time; between
    solves it consumes the model's mutation log and re-extracts only the
    dirtied rows.  Variable bounds, integrality, and the objective vector
    are cheap (O(num variables)) and rebuilt per solve.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self._cons: list[Constraint] = []
        self._rows: list[tuple[list[int], list[float]]] = []
        self._pos: dict[int, int] = {}
        self._extract_all()
        self._cursor = len(model._log)

    def _extract_all(self) -> None:
        self._cons = list(self.model.constraints)
        self._rows = [_extract_row(con) for con in self._cons]
        self._pos = {id(con): i for i, con in enumerate(self._cons)}

    def apply(self, delta: ModelDelta) -> None:
        """Apply a delta to the attached model (synced lazily at solve)."""
        delta.apply_to(self.model)

    def _sync(self) -> None:
        log = self.model._log
        for entry in log[self._cursor:]:
            kind = entry[0]
            if kind == "add_con":
                con = entry[1]
                self._pos[id(con)] = len(self._cons)
                self._cons.append(con)
                self._rows.append(_extract_row(con))
            elif kind == "row":
                con = entry[1]
                self._rows[self._pos[id(con)]] = _extract_row(con)
            # "add_var" / "var" / "obj" entries need no row work: variable
            # bounds, integrality, and the objective are rebuilt per solve.
        self._cursor = len(log)

    def _form(self, relax_integrality: bool = False) -> StandardForm:
        self._sync()
        model = self.model
        n = len(model.variables)
        sign = 1 if model.sense == "min" else -1

        c = np.zeros(n)
        for var, coeff in model.objective.terms.items():
            c[var.index] = sign * coeff

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        row_lower = np.empty(len(self._cons))
        row_upper = np.empty(len(self._cons))
        for r, con in enumerate(self._cons):
            rcols, rvals = self._rows[r]
            rows.extend([r] * len(rcols))
            cols.extend(rcols)
            data.extend(rvals)
            if con.sense == "<=":
                row_lower[r], row_upper[r] = -np.inf, con.rhs
            elif con.sense == ">=":
                row_lower[r], row_upper[r] = con.rhs, np.inf
            else:
                row_lower[r] = row_upper[r] = con.rhs

        a_matrix = csr_matrix((data, (rows, cols)), shape=(len(self._cons), n))
        var_lower = np.array([v.lb for v in model.variables], dtype=float)
        var_upper = np.array([v.ub for v in model.variables], dtype=float)
        if relax_integrality:
            integrality = np.zeros(n, dtype=int)
        else:
            integrality = np.array(
                [0 if v.vtype is VarType.CONTINUOUS else 1 for v in model.variables]
            )
        return StandardForm(
            c=c,
            a_matrix=a_matrix,
            row_lower=row_lower,
            row_upper=row_upper,
            var_lower=var_lower,
            var_upper=var_upper,
            integrality=integrality,
            variables=list(model.variables),
            sense=sign,
            c0=model.objective.constant,
        )

    def solve(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> Solution:
        """Solve the model in its current state."""
        return _solve_form(self._form(), time_limit, mip_gap)

    def close(self) -> None:
        self._cons = []
        self._rows = []
        self._pos = {}

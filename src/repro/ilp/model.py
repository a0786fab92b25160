"""The ILP model container.

A :class:`Model` owns variables and constraints, and exports itself to the
standard matrix form consumed by the solver backends::

    minimize    c @ x
    subject to  lhs <= A @ x <= rhs
                lb <= x <= ub
                x[i] integral for integer/binary variables
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ModelError
from .expr import LinExpr, Number, Variable, VarType
from .status import Solution

if TYPE_CHECKING:  # pragma: no cover
    from scipy.sparse import csr_matrix


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) rhs``.

    Built by comparing expressions (``x + y <= 3``); the relational operators
    on :class:`LinExpr` normalize the constant onto the right-hand side.
    """

    expr: LinExpr
    sense: str  # "<=", ">=", "=="
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ModelError(f"invalid constraint sense {self.sense!r}")

    def coefficient(self, var: Variable) -> float:
        """Coefficient of ``var`` on the constraint's left-hand side."""
        return self.expr.terms.get(var, 0.0)

    def satisfied(self, assignment: dict[Variable, float], tol: float = 1e-6) -> bool:
        """Check the constraint under a concrete assignment."""
        lhs = self.expr.value(assignment)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} {self.rhs:g}"


@dataclass
class StandardForm:
    """Matrix form of a model (see module docstring)."""

    c: np.ndarray
    a_matrix: "csr_matrix"
    row_lower: np.ndarray
    row_upper: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    integrality: np.ndarray  # 1 where the variable must be integral
    variables: list[Variable]
    sense: int  # +1 minimize, -1 maximize (c is already negated for max)
    #: constant term of the objective (added back, unsigned, by backends).
    c0: float = 0.0


class Model:
    """An ILP model: variables + constraints + linear objective.

    >>> m = Model("tiny")
    >>> x = m.binary("x")
    >>> y = m.integer("y", lb=0, ub=4)
    >>> _ = m.add(x + y >= 3)
    >>> m.minimize(2 * x + y)
    >>> sol = m.solve()
    >>> sol.objective
    3.0
    """

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"sense must be 'min' or 'max', got {sense!r}")
        self.name = name
        self.sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: set[str] = set()
        #: monotone revision counter, bumped by every mutation (variable or
        #: constraint added, coefficient/bound/objective updated).
        self.revision: int = 0
        # Append-only mutation log consumed by solver sessions; each session
        # keeps its own cursor into this list.  Entries:
        #   ("add_var", var) ("add_con", con) ("row", con)
        #   ("var", var)     ("obj",)
        self._log: list[tuple] = []
        self._named: dict[str, Constraint] = {}

    def _record(self, *entry) -> None:
        self.revision += 1
        self._log.append(entry)

    # -- variable creation ---------------------------------------------------

    def _new_var(self, name: str, vtype: VarType, lb: Number, ub: Number) -> Variable:
        if not name:
            name = f"_v{len(self.variables)}"
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        self._names.add(name)
        var = Variable(name, len(self.variables), vtype, lb, ub)
        self.variables.append(var)
        self._record("add_var", var)
        return var

    def binary(self, name: str = "") -> Variable:
        """Create a 0/1 variable."""
        return self._new_var(name, VarType.BINARY, 0, 1)

    def integer(
        self, name: str = "", lb: Number = 0, ub: Number = math.inf
    ) -> Variable:
        """Create an integer variable with bounds ``[lb, ub]``."""
        return self._new_var(name, VarType.INTEGER, lb, ub)

    def continuous(
        self, name: str = "", lb: Number = 0, ub: Number = math.inf
    ) -> Variable:
        """Create a continuous variable with bounds ``[lb, ub]``."""
        return self._new_var(name, VarType.CONTINUOUS, lb, ub)

    # -- constraints & objective ----------------------------------------------

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (optionally named) and return it."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "Model.add expects a Constraint (did the comparison return bool?)"
            )
        for var in constraint.expr.terms:
            if var.index >= len(self.variables) or self.variables[var.index] is not var:
                raise ModelError(
                    f"constraint references foreign variable {var.name!r}"
                )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        if constraint.name:
            # Names are not required to be unique; lookup returns the most
            # recently added constraint with the name.
            self._named[constraint.name] = constraint
        self._record("add_con", constraint)
        return constraint

    # -- mutation (delta encoding) ------------------------------------------

    def constraint(self, name: str) -> Constraint:
        """Look up a named constraint (the most recently added on duplicates)."""
        con = self._named.get(name)
        if con is None:
            raise ModelError(f"no constraint named {name!r}")
        return con

    def set_rhs(self, name: str, rhs: Number) -> None:
        """Update the right-hand side of a named constraint."""
        con = self.constraint(name)
        con.rhs = float(rhs)
        self._record("row", con)

    def set_coefficient(self, name: str, var: Variable, coeff: Number) -> None:
        """Update ``var``'s coefficient in a named constraint."""
        self._check_owned(var)
        con = self.constraint(name)
        con.expr.set_term(var, coeff)
        self._record("row", con)

    def set_variable_bounds(
        self, var: Variable, lb: Number | None = None, ub: Number | None = None
    ) -> None:
        """Update a variable's bounds in place."""
        self._check_owned(var)
        new_lb = var.lb if lb is None else float(lb)
        new_ub = var.ub if ub is None else float(ub)
        if new_lb > new_ub:
            raise ModelError(f"variable {var.name!r}: lb {new_lb} > ub {new_ub}")
        var.lb = new_lb
        var.ub = new_ub
        self._record("var", var)

    def set_objective_coefficient(self, var: Variable, coeff: Number) -> None:
        """Update ``var``'s coefficient in the objective."""
        self._check_owned(var)
        self.objective.set_term(var, coeff)
        self._record("obj")

    def set_objective_constant(self, value: Number) -> None:
        """Update the objective's constant term."""
        self.objective.constant = float(value)
        self._record("obj")

    def _check_owned(self, var: Variable) -> None:
        if not isinstance(var, Variable):
            raise ModelError(f"expected a Variable, got {type(var).__name__}")
        if var.index >= len(self.variables) or self.variables[var.index] is not var:
            raise ModelError(f"foreign variable {var.name!r}")

    def minimize(self, expr: LinExpr | Variable | Number) -> None:
        self.sense = "min"
        self._set_objective(expr)

    def maximize(self, expr: LinExpr | Variable | Number) -> None:
        self.sense = "max"
        self._set_objective(expr)

    def _set_objective(self, expr: LinExpr | Variable | Number) -> None:
        if isinstance(expr, Variable):
            expr = expr._expr()
        elif isinstance(expr, (int, float)):
            expr = LinExpr({}, expr)
        self.objective = expr

    # -- introspection ----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(
            1 for v in self.variables if v.vtype in (VarType.BINARY, VarType.INTEGER)
        )

    def check(self, assignment: dict[Variable, float], tol: float = 1e-6) -> list[str]:
        """Return human-readable descriptions of all violated constraints."""
        violations = []
        for i, con in enumerate(self.constraints):
            if not con.satisfied(assignment, tol):
                lhs = con.expr.value(assignment)
                violations.append(
                    f"constraint {con.name or i}: {lhs:g} {con.sense} {con.rhs:g}"
                )
        for var in self.variables:
            val = assignment.get(var)
            if val is None:
                violations.append(f"variable {var.name} unassigned")
                continue
            if val < var.lb - tol or val > var.ub + tol:
                violations.append(f"variable {var.name}={val:g} outside [{var.lb}, {var.ub}]")
            if var.vtype is not VarType.CONTINUOUS and abs(val - round(val)) > 1e-4:
                violations.append(f"variable {var.name}={val:g} not integral")
        return violations

    # -- export -------------------------------------------------------------

    def to_standard_form(self, relax_integrality: bool = False) -> StandardForm:
        """Export to the matrix form used by the backends.

        With ``relax_integrality=True`` every variable is exported as
        continuous — the LP relaxation of the model, whose optimum is a
        certified lower bound on the (minimization) ILP objective.
        """
        from scipy.sparse import csr_matrix

        n = len(self.variables)
        sign = 1 if self.sense == "min" else -1

        c = np.zeros(n)
        for var, coeff in self.objective.terms.items():
            c[var.index] = sign * coeff

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        row_lower = np.empty(len(self.constraints))
        row_upper = np.empty(len(self.constraints))
        for r, con in enumerate(self.constraints):
            for var, coeff in con.expr.terms.items():
                if coeff != 0.0:
                    rows.append(r)
                    cols.append(var.index)
                    data.append(coeff)
            if con.sense == "<=":
                row_lower[r], row_upper[r] = -np.inf, con.rhs
            elif con.sense == ">=":
                row_lower[r], row_upper[r] = con.rhs, np.inf
            else:
                row_lower[r] = row_upper[r] = con.rhs

        a_matrix = csr_matrix(
            (data, (rows, cols)), shape=(len(self.constraints), n)
        )
        var_lower = np.array([v.lb for v in self.variables], dtype=float)
        var_upper = np.array([v.ub for v in self.variables], dtype=float)
        if relax_integrality:
            integrality = np.zeros(n, dtype=int)
        else:
            integrality = np.array(
                [0 if v.vtype is VarType.CONTINUOUS else 1 for v in self.variables]
            )
        return StandardForm(
            c=c,
            a_matrix=a_matrix,
            row_lower=row_lower,
            row_upper=row_upper,
            var_lower=var_lower,
            var_upper=var_upper,
            integrality=integrality,
            variables=list(self.variables),
            sense=sign,
            c0=self.objective.constant,
        )

    # -- solving ------------------------------------------------------------

    def solve(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> Solution:
        """Solve the model with HiGHS; see :func:`repro.ilp.highs.solve_highs`."""
        # Looked up on the module at call time, so a patched solve_highs
        # (profilers, tests) sees every one-shot solve.
        from . import highs

        return highs.solve_highs(self, time_limit=time_limit, mip_gap=mip_gap)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"cons={self.num_constraints}, sense={self.sense})"
        )


class ModelDelta:
    """A recorded batch of model mutations.

    Deltas are built by an encoder (e.g. ``encode_layer_delta``) without a
    model in hand and applied later — either directly via :meth:`apply_to`
    or through :meth:`HighsSession.apply <repro.ilp.highs.HighsSession>`,
    which lets the session re-extract only the dirtied rows.
    """

    def __init__(self) -> None:
        self._ops: list[tuple] = []

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def empty(self) -> bool:
        return not self._ops

    def add(self, constraint: Constraint, name: str = "") -> None:
        self._ops.append(("add", constraint, name))

    def set_rhs(self, name: str, rhs: Number) -> None:
        self._ops.append(("rhs", name, rhs))

    def set_coefficient(self, name: str, var: Variable, coeff: Number) -> None:
        self._ops.append(("coeff", name, var, coeff))

    def set_variable_bounds(
        self, var: Variable, lb: Number | None = None, ub: Number | None = None
    ) -> None:
        self._ops.append(("bounds", var, lb, ub))

    def set_objective_coefficient(self, var: Variable, coeff: Number) -> None:
        self._ops.append(("obj_coeff", var, coeff))

    def set_objective_constant(self, value: Number) -> None:
        self._ops.append(("obj_const", value))

    def apply_to(self, model: Model) -> None:
        """Replay the recorded mutations onto ``model`` in order."""
        for op in self._ops:
            kind = op[0]
            if kind == "add":
                model.add(op[1], name=op[2])
            elif kind == "rhs":
                model.set_rhs(op[1], op[2])
            elif kind == "coeff":
                model.set_coefficient(op[1], op[2], op[3])
            elif kind == "bounds":
                model.set_variable_bounds(op[1], lb=op[2], ub=op[3])
            elif kind == "obj_coeff":
                model.set_objective_coefficient(op[1], op[2])
            else:
                model.set_objective_constant(op[1])

    def __repr__(self) -> str:
        return f"ModelDelta(ops={len(self._ops)})"

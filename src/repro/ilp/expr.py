"""Linear expressions and decision variables.

A :class:`LinExpr` is an immutable-by-convention mapping from variables to
coefficients plus a constant term.  Variables are created through
:meth:`repro.ilp.model.Model.binary` / ``integer`` / ``continuous`` and
support standard arithmetic, so the paper's constraints transcribe almost
literally, e.g. constraint (6)::

    model.add(d[j, "ring"] - od[i, j] + 1 >= o.requires_ring)
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from typing import Union

from ..errors import ModelError

Number = Union[int, float]


class VarType(enum.Enum):
    """Domain of a decision variable."""

    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class Variable:
    """A single decision variable.

    Instances are created by a :class:`~repro.ilp.model.Model`, which assigns
    the ``index`` used by the solver backends.  Arithmetic on variables
    produces :class:`LinExpr` objects.
    """

    __slots__ = ("name", "index", "vtype", "lb", "ub")

    def __init__(
        self,
        name: str,
        index: int,
        vtype: VarType,
        lb: Number,
        ub: Number,
    ) -> None:
        if lb > ub:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        self.name = name
        self.index = index
        self.vtype = vtype
        self.lb = lb
        self.ub = ub

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __hash__(self) -> int:
        return hash((id(self),))

    # -- arithmetic (delegate to LinExpr) ---------------------------------

    def _expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self._expr() - other

    def __rsub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return (-self._expr()) + other

    def __mul__(self, scalar: Number) -> "LinExpr":
        return self._expr() * scalar

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self._expr() * -1

    def __le__(self, other):  # type: ignore[override]
        return self._expr() <= other

    def __ge__(self, other):  # type: ignore[override]
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self._expr() == other
        return NotImplemented


class LinExpr:
    """An affine expression ``sum(coeff_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self, terms: dict[Variable, float] | None = None, constant: Number = 0.0
    ) -> None:
        self.terms: dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def sum(items: Iterable["Variable | LinExpr | Number"]) -> "LinExpr":
        """Sum an iterable of variables/expressions/numbers.

        Much faster than repeated ``+`` for long sums (single dict build).
        """
        terms: dict[Variable, float] = {}
        constant = 0.0
        for item in items:
            if isinstance(item, Variable):
                terms[item] = terms.get(item, 0.0) + 1.0
            elif isinstance(item, LinExpr):
                for var, coeff in item.terms.items():
                    terms[var] = terms.get(var, 0.0) + coeff
                constant += item.constant
            elif isinstance(item, (int, float)):
                constant += item
            else:
                raise ModelError(f"cannot sum term of type {type(item).__name__}")
        return LinExpr(terms, constant)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other._expr()
        if isinstance(other, (int, float)):
            return LinExpr({}, other)
        raise ModelError(f"cannot combine LinExpr with {type(other).__name__}")

    def __add__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        rhs = self._coerce(other)
        terms = dict(self.terms)
        for var, coeff in rhs.terms.items():
            terms[var] = terms.get(var, 0.0) + coeff
        return LinExpr(terms, self.constant + rhs.constant)

    __radd__ = __add__

    def __sub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self + (self._coerce(other) * -1)

    def __rsub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return (self * -1) + other

    def __mul__(self, scalar: Number) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            raise ModelError("LinExpr can only be scaled by a number")
        return LinExpr(
            {v: c * scalar for v, c in self.terms.items()}, self.constant * scalar
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1

    # -- relational operators build constraints ----------------------------

    def __le__(self, other):
        from .model import Constraint

        diff = self - self._coerce(other)
        return Constraint(LinExpr(diff.terms), "<=", -diff.constant)

    def __ge__(self, other):
        from .model import Constraint

        diff = self - self._coerce(other)
        return Constraint(LinExpr(diff.terms), ">=", -diff.constant)

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            from .model import Constraint

            diff = self - self._coerce(other)
            return Constraint(LinExpr(diff.terms), "==", -diff.constant)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation -----------------------------------------------------------

    def value(self, assignment: dict[Variable, float]) -> float:
        """Evaluate under a variable assignment (missing vars are errors)."""
        total = self.constant
        for var, coeff in self.terms.items():
            if var not in assignment:
                raise ModelError(f"no value for variable {var.name!r}")
            total += coeff * assignment[var]
        return total

    def __repr__(self) -> str:
        parts = [
            f"{coeff:+g}*{var.name}"
            for var, coeff in sorted(self.terms.items(), key=lambda kv: kv[0].index)
            if not math.isclose(coeff, 0.0)
        ]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)

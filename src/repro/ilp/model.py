"""A small MILP modeling language.

Provides :class:`Var`, :class:`LinExpr`, :class:`Constraint` and
:class:`Model`.  Expressions are built with ordinary Python arithmetic::

    m = Model()
    x = m.binary_var("x")
    y = m.integer_var("y", lb=0, ub=10)
    m.add_constraint(2 * x + y <= 7, name="cap")
    m.minimize(-x - y)

The model can be exported to matrix form for solver backends via
:meth:`Model.to_standard_form`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from scipy import sparse

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

_VTYPES = (BINARY, INTEGER, CONTINUOUS)

LE = "<="
GE = ">="
EQ = "=="

_SENSES = (LE, GE, EQ)


class ModelError(ValueError):
    """Raised for malformed models, expressions or constraints."""


class Var:
    """A decision variable.

    Variables are created through :class:`Model` factory methods and are tied
    to their model by index.  They support arithmetic, producing
    :class:`LinExpr` objects, and comparisons, producing :class:`Constraint`
    objects.
    """

    __slots__ = ("name", "index", "lb", "ub", "vtype")

    def __init__(self, name: str, index: int, lb: float, ub: float, vtype: str):
        if vtype not in _VTYPES:
            raise ModelError(f"unknown variable type {vtype!r}")
        if lb > ub:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        self.name = name
        self.index = index
        self.lb = float(lb)
        self.ub = float(ub)
        self.vtype = vtype

    @property
    def is_integral(self) -> bool:
        return self.vtype in (BINARY, INTEGER)

    def to_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0})

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-self.to_expr()) + other

    def __mul__(self, other):
        return self.to_expr() * other

    __rmul__ = __mul__

    def __neg__(self):
        return self.to_expr() * -1.0

    # -- comparisons -> constraints --------------------------------------
    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self.to_expr() == other

    def __hash__(self):  # identity hash; Vars are unique per model slot
        return id(self)

    def __repr__(self):
        return f"Var({self.name!r})"


class LinExpr:
    """A linear expression ``sum(coef * var) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Var, float] | None = None, constant: float = 0.0):
        self.terms: dict[Var, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant)

    def add_term(self, var: Var, coef: float) -> "LinExpr":
        """In-place accumulate ``coef * var``; returns self for chaining."""
        new = self.terms.get(var, 0.0) + coef
        if new == 0.0:
            self.terms.pop(var, None)
        else:
            self.terms[var] = new
        return self

    # -- arithmetic ------------------------------------------------------
    def _coerce(self, other) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Var):
            return other.to_expr()
        if isinstance(other, (int, float, np.integer, np.floating)):
            return LinExpr(constant=float(other))
        raise ModelError(f"cannot combine LinExpr with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        out = self.copy()
        for var, coef in other.terms.items():
            out.add_term(var, coef)
        out.constant += other.constant
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other):
        return self._coerce(other) + (self * -1.0)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            raise ModelError("LinExpr may only be multiplied by a scalar")
        scalar = float(scalar)
        return LinExpr(
            {v: c * scalar for v, c in self.terms.items() if c * scalar != 0.0},
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- comparisons -> constraints --------------------------------------
    def __le__(self, other):
        return Constraint(self - self._coerce(other), LE)

    def __ge__(self, other):
        return Constraint(self - self._coerce(other), GE)

    def __eq__(self, other):  # type: ignore[override]
        return Constraint(self - self._coerce(other), EQ)

    def __hash__(self):
        return id(self)

    def evaluate(self, values: Mapping[Var, float]) -> float:
        """Evaluate the expression under an assignment of variable values."""
        return self.constant + sum(c * values[v] for v, c in self.terms.items())

    def __repr__(self):
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return "LinExpr(" + " ".join(parts) + ")"


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` (rhs folded into the expr).

    Stored internally as ``lhs sense 0`` where ``lhs`` carries the constant,
    i.e. ``x + 2 <= 5`` becomes ``x - 3 <= 0``.
    """

    lhs: LinExpr
    sense: str
    name: str = ""

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {self.sense!r}")

    @property
    def rhs(self) -> float:
        """Right-hand side with variable terms on the left."""
        return -self.lhs.constant

    def satisfied_by(self, values: Mapping[Var, float], tol: float = 1e-6) -> bool:
        lhs = self.lhs.evaluate(values)
        if self.sense == LE:
            return lhs <= tol
        if self.sense == GE:
            return lhs >= -tol
        return abs(lhs) <= tol

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Constraint({self.lhs!r} {self.sense} 0{label})"


@dataclass
class StandardForm:
    """Matrix form of a model for solver backends.

    minimize ``c @ x`` subject to ``con_lb <= A @ x <= con_ub`` and
    ``var_lb <= x <= var_ub``; ``integrality[i]`` is 1 for integer variables,
    0 for continuous ones (the encoding :func:`scipy.optimize.milp` expects).
    ``sign`` is +1 if the original objective was a minimization, -1 if it was
    a maximization (the true objective is ``sign * c @ x`` evaluated with the
    minimizing convention).
    """

    c: np.ndarray
    A: sparse.csr_matrix
    con_lb: np.ndarray
    con_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    integrality: np.ndarray
    sign: float
    objective_constant: float


class Model:
    """A mixed-integer linear program."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: str = "min"
        self._name_counter = itertools.count()

    # -- variables --------------------------------------------------------
    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = float("inf"),
        vtype: str = CONTINUOUS,
    ) -> Var:
        if not name:
            name = f"v{next(self._name_counter)}"
        var = Var(name, len(self.variables), lb, ub, vtype)
        self.variables.append(var)
        return var

    def binary_var(self, name: str = "") -> Var:
        return self.add_var(name, lb=0.0, ub=1.0, vtype=BINARY)

    def integer_var(
        self, name: str = "", lb: float = 0.0, ub: float = float("inf")
    ) -> Var:
        return self.add_var(name, lb=lb, ub=ub, vtype=INTEGER)

    def continuous_var(
        self, name: str = "", lb: float = 0.0, ub: float = float("inf")
    ) -> Var:
        return self.add_var(name, lb=lb, ub=ub, vtype=CONTINUOUS)

    def expr(self, constant: float = 0.0) -> LinExpr:
        """An empty expression, handy as ``sum(..., start=m.expr())``."""
        return LinExpr(constant=constant)

    @staticmethod
    def total(items: Iterable[Var | LinExpr]) -> LinExpr:
        """Sum of variables/expressions as a LinExpr (avoids int + Var issues)."""
        out = LinExpr()
        for item in items:
            if isinstance(item, Var):
                out.add_term(item, 1.0)
            else:
                for var, coef in item.terms.items():
                    out.add_term(var, coef)
                out.constant += item.constant
        return out

    # -- constraints & objective ------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint (did the comparison "
                "collapse to bool?)"
            )
        for var in constraint.lhs.terms:
            if not (0 <= var.index < len(self.variables)) or self.variables[var.index] is not var:
                raise ModelError(f"variable {var.name!r} does not belong to this model")
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr: LinExpr | Var) -> None:
        self.objective = expr.to_expr() if isinstance(expr, Var) else expr
        self.sense = "min"

    def maximize(self, expr: LinExpr | Var) -> None:
        self.objective = expr.to_expr() if isinstance(expr, Var) else expr
        self.sense = "max"

    # -- introspection ------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def is_feasible_point(self, values: Mapping[Var, float], tol: float = 1e-6) -> bool:
        """True if ``values`` satisfies all bounds, integrality and constraints."""
        for var in self.variables:
            val = values[var]
            if val < var.lb - tol or val > var.ub + tol:
                return False
            if var.is_integral and abs(val - round(val)) > tol:
                return False
        return all(c.satisfied_by(values, tol) for c in self.constraints)

    # -- export -------------------------------------------------------------
    def to_standard_form(self) -> StandardForm:
        n = len(self.variables)
        sign = 1.0 if self.sense == "min" else -1.0

        c = np.zeros(n)
        for var, coef in self.objective.terms.items():
            c[var.index] = sign * coef

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        con_lb = np.empty(len(self.constraints))
        con_ub = np.empty(len(self.constraints))
        for i, con in enumerate(self.constraints):
            for var, coef in con.lhs.terms.items():
                rows.append(i)
                cols.append(var.index)
                data.append(coef)
            rhs = con.rhs
            if con.sense == LE:
                con_lb[i], con_ub[i] = -np.inf, rhs
            elif con.sense == GE:
                con_lb[i], con_ub[i] = rhs, np.inf
            else:
                con_lb[i] = con_ub[i] = rhs

        # Imported here, not at module level: only a solve needs scipy,
        # so building models — and importing repro — never loads it.
        from scipy import sparse

        A = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self.constraints), n)
        )
        var_lb = np.array([v.lb for v in self.variables])
        var_ub = np.array([v.ub for v in self.variables])
        integrality = np.array(
            [1 if v.is_integral else 0 for v in self.variables], dtype=int
        )
        return StandardForm(
            c=c,
            A=A,
            con_lb=con_lb,
            con_ub=con_ub,
            var_lb=var_lb,
            var_ub=var_ub,
            integrality=integrality,
            sign=sign,
            objective_constant=self.objective.constant,
        )

    def __repr__(self):
        return (
            f"Model({self.name!r}, {self.num_variables} vars, "
            f"{self.num_constraints} cons, {self.sense})"
        )

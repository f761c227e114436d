"""Integer linear programming substrate.

The paper solves its flow-path and cut-set formulations with a commercial ILP
solver from C++.  This subpackage provides the equivalent substrate in pure
Python: a small modeling language (:mod:`repro.ilp.model`) and an exact
MILP backend built on HiGHS via :func:`scipy.optimize.milp`
(:mod:`repro.ilp.scipy_backend`), the one solver :func:`solve` runs.  The
branch-and-bound solver that differential tests check HiGHS against is
test code (``tests/branch_bound.py``).

Typical use::

    from repro.ilp import Model, solve

    m = Model("cover")
    x = [m.binary_var(f"x{i}") for i in range(4)]
    m.add_constraint(x[0] + x[1] >= 1)
    m.add_constraint(x[2] + x[3] >= 1)
    m.minimize(sum(x, start=m.expr()))
    sol = solve(m)
    assert sol.is_optimal and sol.objective == 2
"""

from repro.ilp.model import (
    BINARY,
    CONTINUOUS,
    INTEGER,
    Constraint,
    LinExpr,
    Model,
    Var,
)
from repro.ilp.solver import SolveOptions, solve
from repro.ilp.status import Solution, SolveStatus

__all__ = [
    "BINARY",
    "CONTINUOUS",
    "INTEGER",
    "Constraint",
    "LinExpr",
    "Model",
    "Var",
    "SolveOptions",
    "Solution",
    "SolveStatus",
    "solve",
]

"""Exact MILP backend built on HiGHS via :func:`scipy.optimize.milp`."""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.model import Model
from repro.ilp.solver import SOLVER_NAME
from repro.ilp.status import Solution, SolveStatus

# scipy.optimize.milp status codes (see its docstring).
_MILP_OPTIMAL = 0
_MILP_INFEASIBLE = 2
_MILP_UNBOUNDED = 3
_MILP_LIMIT = 1  # iteration/time limit


def solve_with_scipy(model: Model, time_limit: float | None = None) -> Solution:
    """Solve ``model`` with HiGHS.  Returns a :class:`Solution`."""
    start = time.perf_counter()
    form = model.to_standard_form()

    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    kwargs: dict = {
        "c": form.c,
        "integrality": form.integrality,
        "bounds": Bounds(form.var_lb, form.var_ub),
        "options": options,
    }
    if model.num_constraints:
        kwargs["constraints"] = LinearConstraint(form.A, form.con_lb, form.con_ub)

    res = milp(**kwargs)
    elapsed = time.perf_counter() - start

    if res.status == _MILP_OPTIMAL:
        status = SolveStatus.OPTIMAL
    elif res.status == _MILP_INFEASIBLE:
        status = SolveStatus.INFEASIBLE
    elif res.status == _MILP_UNBOUNDED:
        status = SolveStatus.UNBOUNDED
    elif res.x is not None:
        status = SolveStatus.FEASIBLE
    else:
        status = SolveStatus.TIME_LIMIT

    values: dict = {}
    objective = None
    if res.x is not None:
        x = np.asarray(res.x, dtype=float)
        # Snap integral variables: HiGHS returns values within tolerance.
        for var in model.variables:
            val = x[var.index]
            if var.is_integral:
                val = float(round(val))
            values[var] = val
        objective = form.sign * float(form.c @ x) + form.objective_constant

    return Solution(
        status=status,
        objective=objective,
        values=values,
        backend=SOLVER_NAME,
        wall_time=elapsed,
        message=str(getattr(res, "message", "")),
    )

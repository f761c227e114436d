"""The solve() front end: every model goes to HiGHS."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ilp.model import Model
from repro.ilp.status import Solution


@dataclass
class SolveOptions:
    """Solver options: ``time_limit`` caps one solve, in seconds."""

    time_limit: float | None = None


def solve(model: Model, options: SolveOptions | None = None) -> Solution:
    """Solve ``model`` with HiGHS and return a :class:`Solution`."""
    options = options or SolveOptions()
    # Imported per call: scipy.optimize loads only when a model is solved.
    from repro.ilp.scipy_backend import solve_with_scipy

    return solve_with_scipy(model, time_limit=options.time_limit)

"""The solve() front end: every model goes to HiGHS."""

from __future__ import annotations

import importlib.metadata
from dataclasses import dataclass

from repro.ilp.model import Model
from repro.ilp.status import Solution

#: The name :func:`solve`'s solutions record as their backend.
SOLVER_NAME = "scipy-highs"


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


def solver_identity() -> tuple[str, str]:
    """``(name, version)`` of the solver :func:`solve` runs.

    HiGHS ships inside scipy, so scipy's version names the solver build.
    It is read from the installed package's metadata, which does not
    import scipy: a command that loads its suite from the store never
    needs it.
    """
    return (SOLVER_NAME, importlib.metadata.version("scipy"))

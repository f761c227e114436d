"""Unified solve() front end with backend selection."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ilp.model import Model
from repro.ilp.status import Solution

BACKEND_HIGHS = "highs"
BACKEND_BRANCH_AND_BOUND = "branch-and-bound"

_BACKENDS = (BACKEND_HIGHS, BACKEND_BRANCH_AND_BOUND)


@dataclass
class SolveOptions:
    """Options shared by all backends.

    ``backend`` selects the solver: ``"highs"`` (the default,
    :func:`scipy.optimize.milp`) or the built-in ``"branch-and-bound"``
    differential-testing oracle.
    """

    backend: str = BACKEND_HIGHS
    time_limit: float | None = None
    mip_rel_gap: float | None = None
    node_limit: int = 200_000

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )


def solve(model: Model, options: SolveOptions | None = None) -> Solution:
    """Solve ``model`` and return a :class:`Solution`."""
    options = options or SolveOptions()
    if options.backend == BACKEND_HIGHS:
        from repro.ilp.scipy_backend import solve_with_scipy

        return solve_with_scipy(
            model,
            time_limit=options.time_limit,
            mip_rel_gap=options.mip_rel_gap,
        )

    from repro.ilp.branch_bound import solve_with_branch_and_bound

    return solve_with_branch_and_bound(
        model,
        time_limit=options.time_limit,
        node_limit=options.node_limit,
    )

"""Solver tests: HiGHS through ``solve()``, differentially checked
against the branch-and-bound oracle in ``tests/branch_bound.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branch_bound import solve_with_branch_and_bound
from repro.ilp import Model, SolveStatus, solve

BACKENDS = ("highs", "branch-and-bound")


def _solve(m, backend):
    if backend == "highs":
        return solve(m)
    return solve_with_branch_and_bound(m)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBasics:
    def test_simple_cover(self, backend):
        m = Model()
        x = [m.binary_var() for _ in range(4)]
        m.add_constraint(x[0] + x[1] >= 1)
        m.add_constraint(x[2] + x[3] >= 1)
        m.minimize(Model.total(x))
        sol = _solve(m, backend)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(2.0)
        assert sol.check(m)

    def test_infeasible(self, backend):
        m = Model()
        a, b = m.binary_var(), m.binary_var()
        m.add_constraint(a + b >= 3)
        m.minimize(a + b)
        assert _solve(m, backend).status is SolveStatus.INFEASIBLE

    def test_maximize_mixed(self, backend):
        m = Model()
        y = m.integer_var(ub=7)
        z = m.continuous_var(ub=2.5)
        m.add_constraint(y + z <= 8)
        m.maximize(2 * y + z)
        sol = _solve(m, backend)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(15.0)
        assert sol.value(y) == pytest.approx(7)

    def test_equality_constraints(self, backend):
        m = Model()
        x = m.integer_var(ub=10)
        y = m.integer_var(ub=10)
        m.add_constraint(x + y == 7)
        m.add_constraint(x - y == 3)
        m.minimize(x)
        sol = _solve(m, backend)
        assert sol.is_optimal
        assert sol.int_value(x) == 5 and sol.int_value(y) == 2

    def test_unconstrained_zero(self, backend):
        m = Model()
        x = m.binary_var()
        m.minimize(x)
        sol = _solve(m, backend)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.0)

    def test_objective_constant(self, backend):
        m = Model()
        x = m.binary_var()
        m.add_constraint(x >= 1)
        m.minimize(x + 10)
        sol = _solve(m, backend)
        assert sol.objective == pytest.approx(11.0)

    def test_knapsack(self, backend):
        values = [6, 10, 12, 7]
        weights = [1, 2, 3, 2]
        m = Model()
        x = [m.binary_var() for _ in values]
        m.add_constraint(Model.total(w * xi for w, xi in zip(weights, x)) <= 5)
        m.maximize(Model.total(v * xi for v, xi in zip(values, x)))
        sol = _solve(m, backend)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(23.0)  # items 0, 1 and 3


class TestBranchAndBoundSpecifics:
    def test_integrality_forces_branching(self):
        # LP relaxation is fractional (x = y = 1.5); MILP optimum differs.
        m = Model()
        x = m.integer_var(ub=10)
        y = m.integer_var(ub=10)
        m.add_constraint(2 * x + 2 * y <= 6)
        m.maximize(x + y)
        sol = _solve(m, "branch-and-bound")
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.0)
        assert sol.nodes >= 1

    def test_unbounded(self):
        m = Model()
        x = m.continuous_var()  # ub = +inf
        m.maximize(x)
        assert _solve(m, "branch-and-bound").status is SolveStatus.UNBOUNDED

    def test_node_limit_reports_honestly(self):
        m = Model()
        xs = [m.integer_var(ub=3) for _ in range(6)]
        m.add_constraint(Model.total(xs) >= 7)
        m.minimize(Model.total(xs))
        sol = solve_with_branch_and_bound(m, node_limit=1)
        assert sol.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.TIME_LIMIT,
        )


@st.composite
def random_milp(draw):
    """Small random MILPs with bounded feasible regions."""
    n = draw(st.integers(2, 5))
    n_cons = draw(st.integers(1, 5))
    m = Model()
    xs = []
    for i in range(n):
        if draw(st.booleans()):
            xs.append(m.integer_var(f"x{i}", ub=draw(st.integers(1, 5))))
        else:
            xs.append(m.binary_var(f"x{i}"))
    for _ in range(n_cons):
        coefs = [draw(st.integers(-3, 3)) for _ in range(n)]
        rhs = draw(st.integers(0, 12))
        expr = Model.total(c * x for c, x in zip(coefs, xs))
        m.add_constraint(expr <= rhs)
    obj_coefs = [draw(st.integers(-4, 4)) for _ in range(n)]
    m.minimize(Model.total(c * x for c, x in zip(obj_coefs, xs)))
    return m


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(random_milp())
    def test_backends_agree(self, m):
        """Both exact solvers must find the same optimal value."""
        a = _solve(m, "highs")
        b = _solve(m, "branch-and-bound")
        assert (a.status is SolveStatus.INFEASIBLE) == (
            b.status is SolveStatus.INFEASIBLE
        )
        if a.is_optimal and b.is_optimal:
            assert a.objective == pytest.approx(b.objective, abs=1e-5)
            assert a.check(m) and b.check(m)

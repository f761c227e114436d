"""The generic path-cover ILP: constraints (1)-(4), (6), (7), (9), caps."""

import networkx as nx
import pytest

import repro.core.pathmodel as pathmodel
from repro.core.paths import build_flow_path_problem
from repro.core.pathmodel import (
    CoverPath,
    PathCoverError,
    PathCoverILP,
    PathCoverProblem,
    edge_key,
    solve_path_cover,
)
from repro.fpva import table1_layout
from repro.ilp import Solution, SolveOptions, SolveStatus

OPTS = SolveOptions(time_limit=60)


def path_graph(n):
    g = nx.path_graph(n)
    return g


def grid_graph(rows, cols):
    return nx.grid_2d_graph(rows, cols)


def all_keys(g):
    return {edge_key(u, v) for u, v in g.edges}


def cover_path(*nodes):
    return CoverPath(nodes=nodes, edges=tuple(map(edge_key, nodes, nodes[1:])))


def record_solves(monkeypatch, time_out=()):
    """``[(model name, status)]`` of every solve from now on; models named
    in ``time_out`` return ``TIME_LIMIT`` without being solved."""
    calls = []
    real = pathmodel.solve

    def solve(model, options=None):
        if model.name in time_out:
            sol = Solution(status=SolveStatus.TIME_LIMIT)
        else:
            sol = real(model, options)
        calls.append((model.name, sol.status))
        return sol

    monkeypatch.setattr(pathmodel, "solve", solve)
    return calls


class TestBasicCover:
    def test_line_graph_single_path(self):
        g = path_graph(5)
        prob = PathCoverProblem(g, [0], [4], all_keys(g))
        sol = solve_path_cover(prob, solve_options=OPTS)
        assert len(sol.paths) == 1
        assert sol.paths[0].nodes == (0, 1, 2, 3, 4)

    def test_cycle_needs_two_paths(self):
        g = nx.cycle_graph(6)
        prob = PathCoverProblem(g, [0], [3], all_keys(g))
        sol = solve_path_cover(prob, solve_options=OPTS)
        # Both halves of the cycle must be walked: two simple 0→3 paths.
        assert len(sol.paths) == 2
        assert sol.covered() == all_keys(g)

    def test_grid_cover(self):
        g = grid_graph(3, 3)
        prob = PathCoverProblem(g, [(0, 0)], [(2, 2)], all_keys(g))
        sol = solve_path_cover(prob, solve_options=OPTS)
        assert sol.covered() == all_keys(g)
        assert sol.proven_optimal

    def test_unused_paths_stay_empty(self):
        g = path_graph(4)
        prob = PathCoverProblem(g, [0], [3], all_keys(g))
        ilp = PathCoverILP(prob, num_paths=3)
        sol = ilp.solve(OPTS)
        assert len(sol.paths) == 1  # p-ordering packs used paths first

    def test_disconnected_terminals_infeasible(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        prob = PathCoverProblem(g, [0], [3], {edge_key(0, 1)})
        assert PathCoverILP(prob, 1).solve(OPTS) is None

    def test_impossible_cover_raises(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)  # unreachable edge demanded in cover
        prob = PathCoverProblem(g, [0], [1], all_keys(g))
        with pytest.raises(PathCoverError):
            solve_path_cover(prob, max_paths=3, solve_options=OPTS)


class TestStructure:
    def test_paths_are_simple(self):
        g = grid_graph(3, 4)
        prob = PathCoverProblem(g, [(0, 0)], [(2, 3)], all_keys(g))
        sol = solve_path_cover(prob, solve_options=OPTS)
        for p in sol.paths:
            assert len(set(p.nodes)) == len(p.nodes)
            for u, v in zip(p.nodes, p.nodes[1:]):
                assert g.has_edge(u, v)

    def test_terminal_endpoints(self):
        g = grid_graph(3, 3)
        prob = PathCoverProblem(g, [(0, 0), (0, 2)], [(2, 0), (2, 2)], all_keys(g))
        sol = solve_path_cover(prob, solve_options=OPTS)
        for p in sol.paths:
            assert p.start in {(0, 0), (0, 2)}
            assert p.end in {(2, 0), (2, 2)}

    def test_loop_exclusion(self):
        """Without flow conservation a disjoint loop could fake coverage.

        On a cycle-with-tail graph, covering the cycle edges requires real
        paths from the terminal through the cycle, not a floating loop.
        """
        g = nx.cycle_graph(4)  # 0-1-2-3-0
        g.add_edge(4, 0)
        g.add_edge(5, 4)
        prob = PathCoverProblem(g, [5], [2], all_keys(g))
        sol = solve_path_cover(prob, solve_options=OPTS)
        for p in sol.paths:
            assert p.start == 5 and p.end == 2  # genuine connected paths
        assert sol.covered() == all_keys(g)


class TestClosureConstraint:
    def test_constraint_9_forces_edge(self):
        """If both endpoints of a closure edge are visited, it must be used.

        Square 0-1-2-3 with closure on edge (0,3): a path 0→1→2→3 visits 0
        and 3 without the edge — forbidden; the only legal single path from
        0 to 3 is the direct edge (degree-2 incidence makes detour+closure
        contradictory).
        """
        g = nx.cycle_graph(4)
        closure = {edge_key(0, 3)}
        prob = PathCoverProblem(g, [0], [3], set(), closure_edges=closure)
        ilp = PathCoverILP(prob, 1, fixed_usage=True)
        sol = ilp.solve(OPTS)
        assert sol is not None
        assert sol.paths[0].nodes == (0, 3)


class TestRegionCaps:
    def test_cap_limits_boundary_crossings(self):
        """A capped region boundary may be crossed at most twice."""
        # Ladder: two rails 0-1-2-3 and 4-5-6-7 with rungs; region = {1, 5}
        g = nx.Graph()
        rails = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        rungs = [(0, 4), (1, 5), (2, 6), (3, 7)]
        g.add_edges_from(rails + rungs)
        boundary = frozenset(
            {edge_key(0, 1), edge_key(1, 2), edge_key(4, 5), edge_key(5, 6), edge_key(1, 5)}
        )
        prob = PathCoverProblem(
            g, [0], [3], set(), region_caps=[(boundary, 2)]
        )
        sol = PathCoverILP(prob, 1, fixed_usage=True).solve(OPTS)
        assert sol is not None
        used_boundary = set(sol.paths[0].edges) & boundary
        assert len(used_boundary) <= 2


class TestWeightedObjective:
    def test_max_coverage_mode(self):
        g = grid_graph(3, 3)
        weights = {k: 1.0 for k in all_keys(g)}
        prob = PathCoverProblem(g, [(0, 0)], [(2, 2)], set())
        ilp = PathCoverILP(
            prob,
            1,
            fixed_usage=True,
            objective_weights=weights,
            required_coverage=False,
        )
        sol = ilp.solve(OPTS)
        assert sol is not None
        # A single simple path in a 3x3 grid covers at most 8 edges
        # (Hamiltonian); the maximizer should find one.
        assert len(sol.paths[0].edges) == 8

    def test_required_and_forbidden_edges(self):
        g = grid_graph(3, 3)
        must = edge_key((1, 0), (1, 1))
        banned = edge_key((0, 0), (0, 1))
        prob = PathCoverProblem(g, [(0, 0)], [(2, 2)], set())
        ilp = PathCoverILP(
            prob,
            1,
            fixed_usage=True,
            required_edges_first_path=[must],
            forbidden_edges=[banned],
        )
        sol = ilp.solve(OPTS)
        assert sol is not None
        assert must in sol.paths[0].edges
        assert banned not in sol.paths[0].edges

    def test_lower_bound_used(self):
        g = path_graph(3)
        prob = PathCoverProblem(g, [0], [2], all_keys(g))
        assert prob.coverage_lower_bound() == 1


class TestLadderProof:
    def test_timed_out_rung_is_not_a_proof(self, monkeypatch):
        """The Table I 5x5 flow-path ladder still finds its 3-path cover
        when the 2-path rung runs out of time, but proves nothing."""
        problem = build_flow_path_problem(table1_layout(5))
        calls = record_solves(monkeypatch, time_out={"path-cover-2"})
        sol = solve_path_cover(problem, solve_options=OPTS)
        assert ("path-cover-2", SolveStatus.TIME_LIMIT) in calls
        assert len(sol.paths) == 3
        assert not sol.proven_optimal


class TestAdmission:
    """``admits`` lets the model's own constraints judge given paths."""

    @staticmethod
    def square(cover, closure=()):
        # 0-1-2-3-0, one path from 0 to 3.
        g = nx.cycle_graph(4)
        return PathCoverProblem(g, [0], [3], cover, closure_edges=set(closure))

    def test_admits_a_cover_either_way_round(self):
        prob = self.square({edge_key(0, 1), edge_key(1, 2), edge_key(2, 3)})
        assert PathCoverILP(prob, 1).admits([cover_path(0, 1, 2, 3)], OPTS)
        assert PathCoverILP(prob, 1).admits([cover_path(3, 2, 1, 0)], OPTS)

    def test_refuses_a_chord_violation(self):
        """0→1→2→3 visits both ends of the closure edge (0, 3) without
        using it: constraint (9)."""
        prob = self.square(
            {edge_key(0, 1), edge_key(1, 2), edge_key(2, 3)},
            closure=[edge_key(0, 3)],
        )
        assert not PathCoverILP(prob, 1).admits([cover_path(0, 1, 2, 3)], OPTS)

    def test_refuses_a_path_off_the_terminals(self):
        prob = self.square({edge_key(1, 2), edge_key(2, 3)})
        assert PathCoverILP(prob, 1).admits([cover_path(0, 1, 2, 3)], OPTS)
        assert not PathCoverILP(prob, 1).admits([cover_path(1, 2, 3)], OPTS)

    def test_refuses_an_incomplete_cover(self):
        prob = self.square(all_keys(nx.cycle_graph(4)))
        assert not PathCoverILP(prob, 1).admits([cover_path(0, 1, 2, 3)], OPTS)
        assert PathCoverILP(prob, 2).admits(
            [cover_path(0, 1, 2, 3), cover_path(0, 3)], OPTS
        )


class TestCertificate:
    """An admitted incumbent of U paths costs one MILP, at U - 1."""

    HALVES = (cover_path(0, 1, 2, 3), cover_path(0, 5, 4, 3))

    @staticmethod
    def hexagon():
        g = nx.cycle_graph(6)
        return PathCoverProblem(g, [0], [3], all_keys(g))

    def test_optimal_incumbent_is_returned_proven(self, monkeypatch):
        calls = record_solves(monkeypatch)
        sol = solve_path_cover(
            self.hexagon(), solve_options=OPTS, incumbent=self.HALVES
        )
        assert sol.paths == list(self.HALVES)
        assert sol.proven_optimal
        assert calls == [
            ("path-cover-2", SolveStatus.OPTIMAL),  # the admission LP
            ("path-cover-1", SolveStatus.INFEASIBLE),
        ]

    def test_a_better_cover_replaces_the_incumbent(self):
        incumbent = self.HALVES + (cover_path(0, 1, 2, 3),)
        sol = solve_path_cover(
            self.hexagon(), solve_options=OPTS, incumbent=incumbent
        )
        assert len(sol.paths) == 2
        assert sol.covered() == all_keys(nx.cycle_graph(6))
        assert sol.proven_optimal

    def test_time_limit_leaves_the_incumbent_unproven(self, monkeypatch):
        record_solves(monkeypatch, time_out={"path-cover-1"})
        sol = solve_path_cover(
            self.hexagon(), solve_options=OPTS, incumbent=self.HALVES
        )
        assert sol.paths == list(self.HALVES)
        assert not sol.proven_optimal

    def test_no_milp_at_the_lower_bound(self, monkeypatch):
        g = path_graph(5)
        prob = PathCoverProblem(g, [0], [4], all_keys(g))
        calls = record_solves(monkeypatch)
        sol = solve_path_cover(
            prob, solve_options=OPTS, incumbent=[cover_path(4, 3, 2, 1, 0)]
        )
        assert len(sol.paths) == 1 and sol.proven_optimal
        assert calls == [("path-cover-1", SolveStatus.OPTIMAL)]

    def test_a_refused_incumbent_runs_the_ladder(self, monkeypatch):
        calls = record_solves(monkeypatch)
        sol = solve_path_cover(
            self.hexagon(), solve_options=OPTS, incumbent=self.HALVES[:1]
        )
        assert len(sol.paths) == 2 and sol.proven_optimal
        assert [name for name, _ in calls] == [
            "path-cover-1",  # refused: a half leaves edges uncovered
            "path-cover-1",
            "path-cover-2",
        ]

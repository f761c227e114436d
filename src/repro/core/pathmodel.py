"""The path-cover ILP at the heart of the paper (section III-B).

The paper builds flow paths with an ILP whose constraints are:

* (1) incidence — a path entering a cell uses exactly two of the valves
  around it: ``sum(v around cell) == 2 * c[cell]``;
* (2) coverage — every valve lies on at least one path;
* (3) big-M coupling — pressure flow only crosses used valves;
* (4) flow conservation — every on-path cell absorbs one unit of pressure
  flow, which excludes disjoint loops (Fig 6(c)/(d));
* (6) path-usage indicators, minimized by objective (7);
* (9) closure — if both end junctions of a valve are on a cut-set wall, the
  valve itself must be in the wall (excludes the two-fault masking patterns
  of Fig 5(c)/(d)).  The same constraint form also keeps flow paths away
  from always-open channel shortcuts.

Cut-set generation "is a complementary problem … solved by adapting the
optimization problem (7)–(8)" (section III-C): the identical model runs on
the planar dual (junction) graph.  This module therefore implements the ILP
*generically* over any undirected graph with two terminal node sets; the
flow-path and cut-set generators instantiate it on the cell graph and the
junction graph respectively.

Implementation notes
--------------------
* Terminal attachment uses two virtual super-nodes TA/TB joined to every
  terminal by a virtual edge; a used path has exactly one TA edge and one
  TB edge, so the degree-2 incidence constraint stays uniform at real nodes.
* The paper declares the flow variables ``f`` integer; the loop-exclusion
  argument (summing constraint (4) around a disjoint loop) only needs flow
  conservation, not integrality, so we relax ``f`` to continuous — same
  feasible v/c sets, smaller MILP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Hashable, Iterable, Mapping, Sequence

import networkx as nx

from repro.ilp import Model, SolveOptions, SolveStatus, solve
from repro.ilp.model import LinExpr, Var

Node = Hashable
EdgeKey = frozenset  # frozenset({u, v}) — canonical undirected edge key

_TA = ("__terminal__", "A")
_TB = ("__terminal__", "B")


def edge_key(u: Node, v: Node) -> EdgeKey:
    return frozenset((u, v))


class PathCoverError(RuntimeError):
    """Raised when no feasible path cover can be found."""


@dataclass
class PathCoverProblem:
    """A path-cover instance over an undirected graph.

    ``terminals_a`` / ``terminals_b`` — nodes where every path must start /
    end (exactly one of each per path).

    ``cover_edges`` — edge keys that must be covered by at least one path.

    ``closure_edges`` — edge keys subject to the paper's constraint (9): if
    a path visits both endpoints, it must also use the edge.

    ``region_caps`` — pairs ``(boundary_edge_keys, cap)``: each path may use
    at most ``cap`` edges of the given boundary set.  Used to model
    always-open channel regions, which act as a single pressure node: a path
    may cross a region's boundary at most twice (one entry, one exit),
    otherwise the region shorts distant path segments together and masks
    stuck-at-0 faults between them (a multi-edge generalization of the
    Fig 5(a) problem that constraint (9) alone cannot express).
    """

    graph: nx.Graph
    terminals_a: Sequence[Node]
    terminals_b: Sequence[Node]
    cover_edges: Collection[EdgeKey]
    closure_edges: Collection[EdgeKey] = field(default_factory=frozenset)
    region_caps: Sequence[tuple[frozenset, int]] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.terminals_a or not self.terminals_b:
            raise ValueError("both terminal sets must be non-empty")
        for t in list(self.terminals_a) + list(self.terminals_b):
            if t not in self.graph:
                raise ValueError(f"terminal {t!r} not in graph")
        known = {edge_key(u, v) for u, v in self.graph.edges}
        missing = set(self.cover_edges) - known
        if missing:
            raise ValueError(f"cover edges not in graph: {list(missing)[:3]}")

    @property
    def max_path_edges(self) -> int:
        """Upper bound on real edges per simple path (visits each node once)."""
        return self.graph.number_of_nodes() + 1

    def coverage_lower_bound(self) -> int:
        """A trivial lower bound on the number of paths needed."""
        if not self.cover_edges:
            return 1
        return max(1, math.ceil(len(self.cover_edges) / self.max_path_edges))


@dataclass
class CoverPath:
    """One extracted path: ordered nodes and the real edges used."""

    nodes: tuple[Node, ...]
    edges: tuple[EdgeKey, ...]

    @property
    def start(self) -> Node:
        return self.nodes[0]

    @property
    def end(self) -> Node:
        return self.nodes[-1]

    def __len__(self):
        return len(self.edges)


class PathCoverILP:
    """Builds and solves the ILP for a fixed number of candidate paths."""

    def __init__(
        self,
        problem: PathCoverProblem,
        num_paths: int,
        fixed_usage: bool = False,
        objective_weights: Mapping[EdgeKey, float] | None = None,
        required_edges_first_path: Iterable[EdgeKey] = (),
        forbidden_edges: Iterable[EdgeKey] = (),
        required_coverage: bool = True,
    ):
        """``fixed_usage`` forces every candidate path to be used (p_m = 1)
        and, combined with ``objective_weights``, switches the objective from
        "minimize used paths" (7) to "maximize covered weight" — the mode the
        hierarchical per-block subproblems use.

        ``required_coverage=False`` drops constraint (2) (used with weighted
        objectives, where coverage is encouraged rather than demanded).
        """
        self.problem = problem
        self.num_paths = num_paths
        self.fixed_usage = fixed_usage
        self.objective_weights = dict(objective_weights or {})
        self.required_first = set(required_edges_first_path)
        self.forbidden = set(forbidden_edges)
        self.required_coverage = required_coverage
        #: Status of the last :meth:`solve`: ``INFEASIBLE`` proves that no
        #: cover with ``num_paths`` or fewer paths exists, ``TIME_LIMIT``
        #: proves nothing.
        self.status: SolveStatus | None = None
        self._build()

    def _build(self) -> None:
        prob = self.problem
        g = prob.graph
        self.nodes: list[Node] = list(g.nodes)
        real_edges: list[EdgeKey] = [edge_key(u, v) for u, v in g.edges]
        self.real_edges = real_edges

        # Virtual terminal edges (deduplicated if terminal sets repeat nodes).
        self.ta_edges: list[EdgeKey] = [
            frozenset((_TA, t)) for t in dict.fromkeys(prob.terminals_a)
        ]
        self.tb_edges: list[EdgeKey] = [
            frozenset((_TB, t)) for t in dict.fromkeys(prob.terminals_b)
        ]
        all_edges = real_edges + self.ta_edges + self.tb_edges

        # Incidence: node -> edge keys touching it (virtual edges included).
        incident: dict[Node, list[EdgeKey]] = {n: [] for n in self.nodes}
        for e in real_edges:
            for n in e:
                incident[n].append(e)
        for e in self.ta_edges + self.tb_edges:
            for n in e:
                if n in incident:
                    incident[n].append(e)

        m = Model(f"path-cover-{self.num_paths}")
        big_m = len(self.nodes) + 2  # max pressure-flow volume

        self.var_c: list[dict[Node, Var]] = []
        self.var_v: list[dict[EdgeKey, Var]] = []
        self.var_p: list[Var] = []

        for k in range(self.num_paths):
            c_k = {n: m.binary_var(f"c{k}_{i}") for i, n in enumerate(self.nodes)}
            v_k = {e: m.binary_var(f"v{k}_{i}") for i, e in enumerate(all_edges)}
            f_k = {
                e: m.continuous_var(f"f{k}_{i}", lb=-big_m, ub=big_m)
                for i, e in enumerate(all_edges)
            }
            if self.fixed_usage:
                p_k = m.add_var(f"p{k}", lb=1.0, ub=1.0, vtype="binary")
            else:
                p_k = m.binary_var(f"p{k}")
            self.var_c.append(c_k)
            self.var_v.append(v_k)
            self.var_p.append(p_k)

            # (1) incidence: two used edges around every on-path node.
            for n in self.nodes:
                m.add_constraint(
                    Model.total(v_k[e] for e in incident[n]) == 2 * c_k[n]
                )

            # terminal attachment: one TA edge and one TB edge per used path.
            m.add_constraint(Model.total(v_k[e] for e in self.ta_edges) == p_k)
            m.add_constraint(Model.total(v_k[e] for e in self.tb_edges) == p_k)

            # (3) big-M flow/valve coupling.
            for e in all_edges:
                m.add_constraint(f_k[e] <= big_m * v_k[e])
                m.add_constraint(f_k[e] >= -big_m * v_k[e])

            # (4) conservation: every on-path node absorbs one unit.
            # Fixed orientation per edge: flow is positive toward the node
            # listed first in the iteration order below.
            orient: dict[EdgeKey, Node] = {}
            for e in all_edges:
                ends = sorted(e, key=lambda n: self._node_order(n))
                orient[e] = ends[0]  # positive flow enters ends[0]
            for n in self.nodes:
                net = LinExpr()
                for e in incident[n]:
                    sign = 1.0 if orient[e] == n else -1.0
                    net.add_term(f_k[e], sign)
                m.add_constraint(net == c_k[n].to_expr())

            # (9) closure: visiting both endpoints forces the edge.
            for e in prob.closure_edges:
                u, w = tuple(e)
                m.add_constraint(c_k[u] + c_k[w] - 1 <= v_k[e])

            # Channel-region crossing caps (one entry + one exit at most).
            for boundary, cap in prob.region_caps:
                members = [v_k[e] for e in boundary if e in v_k]
                if len(members) > cap:
                    m.add_constraint(Model.total(members) <= cap)

            # Forbidden edges.
            for e in self.forbidden:
                if e in v_k:
                    m.add_constraint(v_k[e] <= 0)

        # (2) coverage across paths.
        if self.required_coverage:
            for e in prob.cover_edges:
                m.add_constraint(
                    Model.total(self.var_v[k][e] for k in range(self.num_paths))
                    >= 1
                )

        # Required edges on the first path (targeted generation).
        for e in self.required_first:
            m.add_constraint(self.var_v[0][e] >= 1)

        # Symmetry breaking: used paths come first.
        for k in range(self.num_paths - 1):
            m.add_constraint(self.var_p[k] >= self.var_p[k + 1])

        # Objective (7): minimize used paths; or maximize covered weight.
        if self.objective_weights:
            gain = LinExpr()
            for k in range(self.num_paths):
                for e, w in self.objective_weights.items():
                    if e in self.var_v[k]:
                        gain.add_term(self.var_v[k][e], w)
            m.maximize(gain)
        else:
            m.minimize(Model.total(self.var_p))

        self.model = m

    def _node_order(self, n: Node) -> int:
        """A stable arbitrary total order over nodes (ids assigned on sight)."""
        if not hasattr(self, "_order"):
            self._order = {node: i for i, node in enumerate(self.nodes)}
            self._order[_TA] = -2
            self._order[_TB] = -1
        return self._order[n]

    def solve(self, options: SolveOptions | None = None) -> "PathCoverSolution | None":
        """Solve; returns None if infeasible or out of time (see
        :attr:`status` for which)."""
        sol = solve(self.model, options)
        self.status = sol.status
        if not sol.has_solution:
            if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.TIME_LIMIT):
                return None
            raise PathCoverError(f"solver failed: {sol.status} {sol.message}")
        paths = []
        for k in range(self.num_paths):
            if sol.value(self.var_p[k]) < 0.5:
                continue
            paths.append(self._extract_path(sol, k))
        return PathCoverSolution(
            paths=paths,
            objective=sol.objective,
            proven_optimal=sol.is_optimal,
            wall_time=sol.wall_time,
        )

    def admits(
        self, paths: Sequence[CoverPath], options: SolveOptions | None = None
    ) -> bool:
        """True if ``paths`` (one per candidate path) solve this model.

        Each node sequence is read from a ``terminals_a`` node to a
        ``terminals_b`` node, reversed if it runs the other way; one that
        does not end on terminals, or steps over an edge the graph lacks,
        is refused.  Every ``c``, ``v`` and ``p`` binary is then fixed to
        the paths' values, so one LP over the flow variables decides, and
        the model's own constraints judge the paths: (1)-(4), closure (9),
        the region caps and coverage (2).  The binaries stay fixed, so
        check on a fresh model.
        """
        if len(paths) != self.num_paths:
            raise ValueError(f"{len(paths)} paths for a {self.num_paths}-path model")
        firsts, lasts = set(self.problem.terminals_a), set(self.problem.terminals_b)
        for k, path in enumerate(paths):
            nodes = path.nodes
            if nodes and not (nodes[0] in firsts and nodes[-1] in lasts):
                nodes = nodes[::-1]
            if not nodes or nodes[0] not in firsts or nodes[-1] not in lasts:
                return False
            used = {edge_key(u, w) for u, w in zip(nodes, nodes[1:])}
            used |= {frozenset((_TA, nodes[0])), frozenset((_TB, nodes[-1]))}
            if not used <= self.var_v[k].keys():
                return False
            on_path = set(nodes)
            for n, var in self.var_c[k].items():
                var.lb = var.ub = float(n in on_path)
            for e, var in self.var_v[k].items():
                var.lb = var.ub = float(e in used)
            self.var_p[k].lb = self.var_p[k].ub = 1.0
        return solve(self.model, options).has_solution

    def _extract_path(self, sol, k: int) -> CoverPath:
        """Turn the v-variable assignment of path k into an ordered walk."""
        used_real = [e for e in self.real_edges if sol.value(self.var_v[k][e]) > 0.5]
        start = next(
            t
            for e in self.ta_edges
            if sol.value(self.var_v[k][e]) > 0.5
            for t in e
            if t != _TA
        )
        end = next(
            t
            for e in self.tb_edges
            if sol.value(self.var_v[k][e]) > 0.5
            for t in e
            if t != _TB
        )
        adjacency: dict[Node, list[Node]] = {}
        for e in used_real:
            u, w = tuple(e)
            adjacency.setdefault(u, []).append(w)
            adjacency.setdefault(w, []).append(u)

        nodes = [start]
        edges: list[EdgeKey] = []
        prev: Node | None = None
        cur = start
        for _ in range(len(used_real)):
            nxts = [n for n in adjacency.get(cur, []) if n != prev]
            if not nxts:
                break
            nxt = nxts[0]
            edges.append(edge_key(cur, nxt))
            nodes.append(nxt)
            prev, cur = cur, nxt
        if cur != end or len(edges) != len(used_real):
            raise PathCoverError(
                f"path {k} extraction failed: walked {len(edges)} of "
                f"{len(used_real)} edges, ended at {cur!r} (expected {end!r})"
            )
        return CoverPath(nodes=tuple(nodes), edges=tuple(edges))


@dataclass
class PathCoverSolution:
    """Paths extracted from one ILP solve, or a certified incumbent (whose
    ``wall_time`` is 0: no solve produced it)."""

    paths: list[CoverPath]
    objective: float | None
    proven_optimal: bool
    wall_time: float

    def covered(self) -> set[EdgeKey]:
        out: set[EdgeKey] = set()
        for p in self.paths:
            out.update(p.edges)
        return out


def solve_path_cover(
    problem: PathCoverProblem,
    start_paths: int | None = None,
    max_paths: int = 64,
    solve_options: SolveOptions | None = None,
    incumbent: Sequence[CoverPath] = (),
) -> PathCoverSolution:
    """The incremental outer loop of section III-B-3, or a certificate.

    Try ``n_p = start, start+1, ...`` until the coverage ILP becomes feasible
    (the paper: "if this happens, we increase n_p and solve the optimization
    problem again").  The model at ``n`` admits every cover of at most
    ``n`` paths and minimizes their number, so the first rung solved to
    optimality gives the optimum.  It is reported ``proven_optimal`` only
    if every lower rung was proven infeasible: a rung that ran out of time
    leaves which cover is returned up to the machine's speed.

    An ``incumbent`` cover of ``U`` paths that the model admits
    (:meth:`PathCoverILP.admits`) replaces the ladder: one MILP at
    ``U - 1`` paths either returns the better optimum or, infeasible,
    proves the incumbent optimal, which is then returned as is (unproven
    if that solve ran out of time; with no MILP at all if ``U`` is at the
    coverage lower bound).  A refused incumbent leaves the ladder as it is.
    """
    if incumbent and PathCoverILP(problem, len(incumbent)).admits(
        incumbent, solve_options
    ):
        return _certify(problem, list(incumbent), solve_options)
    start = start_paths or problem.coverage_lower_bound()
    proven = True
    for num_paths in range(start, max_paths + 1):
        ilp = PathCoverILP(problem, num_paths)
        solution = ilp.solve(solve_options)
        if solution is not None:
            solution.proven_optimal = solution.proven_optimal and proven
            return solution
        proven = proven and ilp.status is SolveStatus.INFEASIBLE
    raise PathCoverError(
        f"no feasible cover with up to {max_paths} paths "
        f"({len(problem.cover_edges)} edges to cover)"
    )


def _certify(
    problem: PathCoverProblem,
    incumbent: list[CoverPath],
    solve_options: SolveOptions | None,
) -> PathCoverSolution:
    """The admitted ``incumbent``, unless a cover with fewer paths exists."""
    status = SolveStatus.INFEASIBLE
    if len(incumbent) > problem.coverage_lower_bound():
        ilp = PathCoverILP(problem, len(incumbent) - 1)
        solution = ilp.solve(solve_options)
        if solution is not None:
            return solution
        status = ilp.status
    return PathCoverSolution(
        paths=incumbent,
        objective=float(len(incumbent)),
        proven_optimal=status is SolveStatus.INFEASIBLE,
        wall_time=0.0,
    )

"""Ablation benches for the design choices DESIGN.md calls out.

Not part of the paper's evaluation, but each one isolates a mechanism the
paper's method depends on:

* solver backend — HiGHS vs the branch-and-bound oracle of
  ``tests/branch_bound.py`` on the same flow-path ILP (exactness means
  identical path counts);
* subblock size — the paper fixed 5x5; sweep 3/5/7 on a 15x15 array;
* ILP vs greedy heuristic path generation — what the optimization buys;
* ILP vs sweep cut-set generation on a small array.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import pedantic_once
from repro.core import (
    CutSetGenerator,
    FlowPathGenerator,
    GreedyPathGenerator,
    HierarchicalPathGenerator,
    PathCoverILP,
    build_flow_path_problem,
    measure_coverage,
)
from repro.fpva import full_layout, table1_layout
from repro.ilp import SolveOptions, SolveStatus
from tests.branch_bound import solve_with_branch_and_bound


def _oracle_path_count(fpva) -> int:
    """n_p proven by the branch-and-bound oracle on the flow-path model,
    walking n upward from the same lower bound ``solve_path_cover`` uses."""
    problem = build_flow_path_problem(fpva)
    for num_paths in range(problem.coverage_lower_bound(), 65):
        ilp = PathCoverILP(problem, num_paths)
        solution = solve_with_branch_and_bound(ilp.model, time_limit=300)
        if solution.status is SolveStatus.INFEASIBLE:
            continue
        assert solution.is_optimal
        return sum(solution.value(used) > 0.5 for used in ilp.var_p)
    raise AssertionError("no feasible path cover")


@pytest.mark.parametrize("backend", ["highs", "branch-and-bound"])
def test_ablation_solver_backend(benchmark, backend):
    fpva = full_layout(4, 4)
    if backend == "highs":
        gen = FlowPathGenerator(fpva, SolveOptions(time_limit=300))
        result = pedantic_once(benchmark, gen.generate)
        assert result.proven_optimal
        np_paths = result.np_paths
    else:
        np_paths = pedantic_once(benchmark, _oracle_path_count, fpva)
    benchmark.extra_info["np"] = np_paths
    # Exact solvers agree on the optimum: the full 4x4 needs 2 paths.
    assert np_paths == 2


@pytest.mark.parametrize("subblock", [3, 5, 7])
def test_ablation_subblock_size(benchmark, subblock, capsys):
    fpva = table1_layout(15)
    gen = HierarchicalPathGenerator(fpva, subblock=subblock)
    result = pedantic_once(benchmark, gen.generate)
    coverage = measure_coverage(fpva, result.vectors, include_leak_pairs=False)
    assert not coverage.sa0_missing
    benchmark.extra_info["np"] = result.np_paths
    with capsys.disabled():
        print(f"\n15x15 subblock={subblock}: np={result.np_paths}")


def test_ablation_greedy_vs_ilp(benchmark, capsys):
    fpva = table1_layout(5)
    ilp_np = FlowPathGenerator(fpva, SolveOptions(time_limit=120)).generate().np_paths

    def greedy():
        return GreedyPathGenerator(fpva, seed=7).generate()

    greedy_result = pedantic_once(benchmark, greedy)
    benchmark.extra_info.update(
        {"np_greedy": greedy_result.np_paths, "np_ilp": ilp_np}
    )
    # The ILP is optimal; greedy may tie but never beat it.
    assert ilp_np <= greedy_result.np_paths
    with capsys.disabled():
        print(f"\n5x5 paths: ILP={ilp_np}, greedy={greedy_result.np_paths}")


@pytest.mark.parametrize("strategy", ["ilp", "sweep"])
def test_ablation_cut_strategy(benchmark, strategy):
    fpva = table1_layout(5)
    gen = CutSetGenerator(fpva, strategy=strategy, solve_options=SolveOptions(time_limit=120))
    result = pedantic_once(benchmark, gen.generate)
    assert not result.uncovered
    benchmark.extra_info["nc"] = result.nc_cuts
    assert result.nc_cuts == 8  # both strategies land on the paper's count

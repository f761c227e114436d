"""Cut-set generation: separation, observability, constraint (9)."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.cutsets as cutsets
from repro.core.cutsets import CutSetGenerator, Wall, closure_repair
from repro.core.validate import validate_vector
from repro.fpva import FPVABuilder, Side, full_layout, table1_layout
from repro.fpva.geometry import Cell, Junction
from repro.ilp import SolveOptions, SolveStatus
from repro.sim import ChipUnderTest, StuckAt1, Tester
from test_integration import small_layouts
from test_pathmodel import record_solves

OPTS = SolveOptions(time_limit=60)


@pytest.fixture(scope="module", params=["ilp", "sweep"])
def tiny_cuts(request):
    from repro.fpva import full_layout

    fpva = full_layout(3, 3, name=f"cuts-{request.param}")
    gen = CutSetGenerator(fpva, strategy=request.param, solve_options=OPTS)
    return fpva, gen, gen.generate()


class TestGeneration:
    def test_full_sa1_coverage(self, tiny_cuts):
        fpva, gen, result = tiny_cuts
        assert not result.uncovered
        assert result.covered == set(fpva.valves)

    def test_every_wall_separates(self, tiny_cuts):
        fpva, gen, result = tiny_cuts
        for wall in result.walls:
            assert gen.wall_separates(wall)

    def test_vectors_expect_dark_meters(self, tiny_cuts):
        fpva, gen, result = tiny_cuts
        for vec in result.vectors:
            assert not any(vec.expected.values())
            report = validate_vector(fpva, vec)
            assert report.ok, report.issues

    def test_single_sa1_detected_by_cuts_alone(self, tiny_cuts):
        fpva, gen, result = tiny_cuts
        tester = Tester(fpva)
        for valve in fpva.valves:
            chip = ChipUnderTest(fpva, [StuckAt1(valve)])
            assert tester.run(chip, result.vectors).fault_detected, valve


class TestTable1Counts:
    @pytest.mark.parametrize(
        "n,paper_nc", [(5, 8), (10, 18), (15, 28), (20, 38), (30, 58)]
    )
    def test_sweep_matches_paper(self, n, paper_nc):
        fpva = table1_layout(n)
        result = CutSetGenerator(fpva, strategy="sweep").generate()
        assert result.nc_cuts == paper_nc
        assert not result.uncovered


class TestClosureRepair:
    def test_chord_valve_added(self, tiny):
        # Junctions of a straight wall plus a dangling junction adjacent to
        # one of them: the chord valve must be forced in.
        wall_junctions = [Junction(0, 1), Junction(1, 1), Junction(1, 2)]
        forced = closure_repair(tiny, wall_junctions)
        duals = {frozenset(v.dual()) for v in forced}
        assert frozenset((Junction(0, 1), Junction(1, 1))) in duals
        assert frozenset((Junction(1, 1), Junction(1, 2))) in duals

    def test_no_spurious_closures(self, tiny):
        forced = closure_repair(tiny, [Junction(0, 1)])
        assert forced == set()


class TestWallThrough:
    def test_mopup_wall_contains_valve(self, tiny):
        gen = CutSetGenerator(tiny, strategy="sweep")
        for valve in tiny.valves[:6]:
            wall = gen._wall_through(valve)
            assert wall is not None
            assert valve in wall.valves
            assert gen.wall_separates(wall)

    def test_observability_excludes_shadowed(self, tiny):
        gen = CutSetGenerator(tiny, strategy="sweep")
        result = gen.generate()
        for wall, vec in zip(result.walls, result.vectors):
            observable = gen.observable_members(wall)
            assert observable <= wall.valves


def _ilp_cuts(fpva, certify: bool = True):
    """``strategy="ilp"`` cut-sets; ``certify=False`` passes the solver no
    incumbent, so the ladder finds the walls."""
    generator = CutSetGenerator(fpva, strategy="ilp", solve_options=OPTS)
    if certify:
        return generator.generate()
    real = cutsets.solve_path_cover

    def ladder(problem, **kwargs):
        return real(problem, **dict(kwargs, incumbent=()))

    with mock.patch.object(cutsets, "solve_path_cover", ladder):
        return generator.generate()


def _assert_certificate_matches_ladder(fpva):
    certified, ladder = _ilp_cuts(fpva), _ilp_cuts(fpva, certify=False)
    assert certified.nc_cuts == ladder.nc_cuts
    assert certified.uncovered == ladder.uncovered


class TestCertificate:
    """The ILP strategy certifies the sweep's walls instead of searching."""

    @pytest.mark.parametrize(
        "fpva",
        [table1_layout(5), full_layout(3, 3), full_layout(4, 4), full_layout(5, 5)],
        ids=lambda fpva: fpva.name,
    )
    def test_same_count_and_coverage_as_the_ladder(self, fpva):
        _assert_certificate_matches_ladder(fpva)

    @pytest.mark.slow
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(small_layouts())
    def test_same_count_and_coverage_as_the_ladder_on_random_layouts(self, fpva):
        _assert_certificate_matches_ladder(fpva)

    def test_table5_cut_stage_makes_two_solver_calls(self, monkeypatch):
        """The admission LP at the sweep's 8 walls, then the proof at 7
        (the ladder made 7 solves, n = 2..8)."""
        generator = CutSetGenerator(table1_layout(5), solve_options=OPTS)
        sweep = [wall.valves for wall in generator._walls_sweep()]
        calls = record_solves(monkeypatch)
        result = generator.generate()
        assert calls == [
            ("path-cover-8", SolveStatus.OPTIMAL),
            ("path-cover-7", SolveStatus.INFEASIBLE),
        ]
        assert [wall.valves for wall in result.walls] == sweep
        assert result.nc_cuts == 8 and not result.uncovered

    def test_time_limit_returns_the_sweep_walls_unproven(self, monkeypatch):
        generator = CutSetGenerator(table1_layout(5), solve_options=OPTS)
        sweep = [wall.valves for wall in generator._walls_sweep()]
        record_solves(monkeypatch, time_out={f"path-cover-{len(sweep) - 1}"})
        solutions = []
        real = cutsets.solve_path_cover

        def spy(problem, **kwargs):
            solutions.append(real(problem, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cutsets, "solve_path_cover", spy)
        assert [wall.valves for wall in generator._walls_ilp()] == sweep
        assert not solutions[0].proven_optimal

    def test_a_refused_incumbent_runs_the_ladder(self, monkeypatch):
        """On this layout the sweep's walls leave a valve dual edge
        untraversed, so coverage (2) refuses them."""
        fpva = (
            FPVABuilder(5, 5, name="refused-5x5")
            .obstacle(3, 3)
            .channel(Cell(4, 1), "east", 1)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 5)
            .build()
        )
        generator = CutSetGenerator(fpva, strategy="ilp", solve_options=OPTS)
        walls = len(generator._walls_sweep())
        calls = record_solves(monkeypatch)
        result = generator.generate()
        assert calls[0] == (f"path-cover-{walls}", SolveStatus.INFEASIBLE)
        rungs = [int(name.rsplit("-", 1)[1]) for name, _ in calls[1:]]
        assert rungs == list(range(rungs[0], rungs[0] + len(rungs)))
        assert calls[-1][1] is SolveStatus.OPTIMAL
        assert not result.uncovered

"""TestGenerator facade, reports, vectors and ASCII rendering."""

import json

import pytest

from repro.core import TestGenerator, generate_suite
from repro.core.render import coverage_map, render_array, render_paths, render_vector
from repro.core.testgen import GenerationReport
from repro.core.vectors import TestSet, TestVector, VectorKind, vector_from_open_set
from repro.fpva import full_layout, table1_layout


@pytest.fixture(scope="module")
def generated5():
    fpva = table1_layout(5)
    return fpva, TestGenerator(fpva).generate()


class TestTestGenerator:
    def test_sections_populated(self, generated5):
        fpva, result = generated5
        suite = result.testset
        assert suite.np_paths > 0
        assert suite.nc_cuts > 0
        assert suite.nl_leak > 0
        assert suite.total == suite.np_paths + suite.nc_cuts + suite.nl_leak

    def test_report_columns(self, generated5):
        fpva, result = generated5
        report = result.report
        assert report.nv == 39
        assert report.np_paths == len(result.testset.flow_paths)
        assert report.total_vectors == result.testset.total
        assert report.total_seconds >= 0
        assert "nv=" in report.row()

    def test_total_in_paper_regime(self, generated5):
        _, result = generated5
        # Paper 5x5: N = 17.  Accept the same order (< 2x).
        assert result.report.total_vectors <= 34

    def test_strategy_validation(self):
        fpva = full_layout(3, 3)
        with pytest.raises(ValueError):
            TestGenerator(fpva, path_strategy="quantum")
        with pytest.raises(ValueError):
            TestGenerator(fpva, cut_strategy="quantum")

    def test_greedy_strategy(self):
        fpva = full_layout(4, 4)
        suite = generate_suite(fpva, path_strategy="greedy", include_leakage=False)
        assert suite.np_paths > 0

    def test_auto_uses_hierarchical_for_large(self):
        fpva = table1_layout(15)
        gen = TestGenerator(fpva)
        assert gen._resolve_path_strategy() == "hierarchical"

    def test_auto_uses_direct_for_small(self):
        fpva = full_layout(5, 5)
        gen = TestGenerator(fpva)
        assert gen._resolve_path_strategy() == "direct"


class TestVectors:
    def test_state_queries(self, generated5):
        fpva, result = generated5
        vec = result.testset.flow_paths[0]
        opened = next(iter(vec.open_valves))
        closed = next(iter(vec.closed_valves(fpva)))
        assert vec.state_of(opened).value == "open"
        assert vec.state_of(closed).value == "closed"

    def test_bogus_open_edge_rejected(self, generated5):
        fpva, _ = generated5
        channel = next(iter(fpva.channels))
        with pytest.raises(ValueError):
            vector_from_open_set(
                fpva, "bad", VectorKind.FLOW_PATH, [channel], {}
            )

    def test_json_round_trip(self, generated5):
        fpva, result = generated5
        payload = json.loads(result.testset.to_json())
        assert payload["array"] == fpva.name
        assert len(payload["flow_paths"]) == result.testset.np_paths
        first = payload["flow_paths"][0]
        assert set(first) == {"name", "kind", "open_valves", "expected"}

    def test_summary_text(self, generated5):
        _, result = generated5
        text = result.testset.summary()
        assert "n_p=" in text and "n_c=" in text

    def test_iteration_order(self, generated5):
        _, result = generated5
        kinds = [v.kind for v in result.testset]
        boundary1 = kinds.index(VectorKind.CUT_SET)
        assert all(k is VectorKind.FLOW_PATH for k in kinds[:boundary1])


class TestRender:
    def test_array_rendering(self, generated5):
        fpva, _ = generated5
        art = render_array(fpva)
        assert "o" in art and "S" in art and "M" in art and "=" in art

    def test_obstacles_rendered(self):
        fpva = table1_layout(15)
        assert "#" in render_array(fpva)

    def test_path_vector_rendering(self, generated5):
        fpva, result = generated5
        art = render_vector(fpva, result.testset.flow_paths[0])
        assert "-" in art or "|" in art

    def test_cut_vector_rendering(self, generated5):
        fpva, result = generated5
        art = render_vector(fpva, result.testset.cut_sets[0])
        assert "x" in art

    def test_render_paths_panels(self, generated5):
        fpva, result = generated5
        art = render_paths(fpva, result.testset.flow_paths[:2])
        assert art.count("---") >= 2

    def test_coverage_map(self, generated5):
        fpva, result = generated5
        art = coverage_map(fpva, result.testset.flow_paths)
        assert "0" not in art.replace("o", "")  # every valve opened somewhere

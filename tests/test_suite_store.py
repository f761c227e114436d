"""Generated suites as a store artifact: the reader and ``ExecutionContext.suite``."""

from __future__ import annotations

import json

import pytest

import repro.core.pathmodel
import repro.ilp
from repro.context import ExecutionContext
from repro.core import TestGenerator, TestSet
from repro.core.testgen import GENERATOR_VERSION
from repro.fpva import full_layout, table1_layout
from repro.ilp.solver import solver_identity
from repro.sim.faults import stuck_at_faults
from repro.store import ArtifactStore, dictionary_digest, suite_digest, suite_digests

#: case -> (array factory, TestGenerator settings).  Direct, hierarchical
#: and greedy flow paths, on full arrays and on Table I arrays (which have
#: channels and, from 10x10 up, obstacles).  The sweep cut generator
#: keeps the Table I cases fast.
READER_CASES = {
    "full-4x4-direct": (lambda: full_layout(4, 4), {"path_strategy": "direct"}),
    "full-8x8-hierarchical": (
        lambda: full_layout(8, 8),
        {"path_strategy": "hierarchical", "subblock": 4},
    ),
    "full-5x5-greedy": (
        lambda: full_layout(5, 5),
        {"path_strategy": "greedy", "cut_strategy": "sweep"},
    ),
    "table1-5x5-direct": (
        lambda: table1_layout(5),
        {"path_strategy": "direct", "cut_strategy": "sweep"},
    ),
    "table1-5x5-hierarchical": (
        lambda: table1_layout(5),
        {"path_strategy": "hierarchical", "subblock": 3, "cut_strategy": "sweep"},
    ),
    "table1-10x10-greedy": (
        lambda: table1_layout(10),
        {"path_strategy": "greedy", "cut_strategy": "sweep"},
    ),
}


class TestReader:
    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_round_trip_is_byte_identical(self, case):
        make, settings = READER_CASES[case]
        fpva = make()
        suite = TestGenerator(fpva, **settings).generate().testset
        text = suite.to_json()
        loaded = TestSet.from_json(fpva, text)
        assert loaded.to_json() == text
        assert loaded.to_json(indent=None) == suite.to_json(indent=None)
        assert all(v.provenance == () for v in loaded)
        # The loaded suite addresses the same dictionaries (and, through
        # vector_key, the same campaign shards) as the generated one.
        assert suite_digests(loaded.all_vectors()) == suite_digests(
            suite.all_vectors()
        )
        universe = stuck_at_faults(fpva)
        assert dictionary_digest(
            fpva, loaded.all_vectors(), universe, 2
        ) == dictionary_digest(fpva, suite.all_vectors(), universe, 2)

    def test_suite_for_another_array_raises(self):
        text = (
            TestGenerator(table1_layout(5), cut_strategy="sweep")
            .generate()
            .testset.to_json()
        )
        with pytest.raises(ValueError, match="does not belong"):
            TestSet.from_json(full_layout(5, 5), text)
        with pytest.raises(ValueError, match="does not belong"):
            TestSet.from_json(full_layout(5, 6, name="table1-5x5"), text)


def _forbid_solves(monkeypatch):
    """Make every ILP solve raise (``pathmodel`` binds ``solve`` itself)."""

    def refuse(*args, **kwargs):
        raise AssertionError("an ILP was solved")

    monkeypatch.setattr(repro.ilp, "solve", refuse)
    monkeypatch.setattr(repro.core.pathmodel, "solve", refuse)


class TestContextSuite:
    def test_cold_then_warm_with_zero_solves(self, tmp_path, monkeypatch):
        fpva = full_layout(4, 4, name="suite-4x4")
        cold = ExecutionContext(fpva, store=tmp_path).suite()
        assert cold.report.mode == "cold"
        _forbid_solves(monkeypatch)
        with pytest.raises(AssertionError, match="an ILP was solved"):
            TestGenerator(fpva).generate()  # the patch catches solves
        warm = ExecutionContext(fpva, store=tmp_path).suite()
        assert warm.report.mode == "warm"
        assert warm.testset.to_json() == cold.testset.to_json()
        columns = ("array", "nv", "hierarchy", "np_paths", "nc_cuts", "nl_leak")
        assert [getattr(warm.report, c) for c in columns] == [
            getattr(cold.report, c) for c in columns
        ]
        assert warm.report.total_seconds == 0.0

    def test_without_a_store_every_call_generates(self, tiny):
        ctx = ExecutionContext(tiny)
        assert [ctx.suite().report.mode for _ in range(2)] == ["cold", "cold"]

    def test_arrays_of_one_shape_and_two_names_keep_their_own_suites(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        arrays = [full_layout(3, 3, name=name) for name in ("left", "right")]
        modes = [
            ExecutionContext(fpva, store=store).suite().report.mode
            for fpva in arrays + arrays
        ]
        assert modes == ["cold", "cold", "warm", "warm"]
        assert not (store.suites.root / "quarantine").exists()


class TestSuiteDigest:
    def test_covers_every_input(self, tiny):
        config = TestGenerator(tiny).config()
        solver = solver_identity()
        version = GENERATOR_VERSION
        base = suite_digest(tiny, config, solver, version)
        variants = [
            suite_digest(full_layout(3, 4, name=tiny.name), config, solver, version),
            suite_digest(full_layout(3, 3, name="other"), config, solver, version),
            suite_digest(tiny, {**config, "subblock": 4}, solver, version),
            suite_digest(tiny, config, (solver[0], "0.0"), version),
            suite_digest(tiny, config, solver, version + 1),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_config_is_json_and_resolves_auto(self, small):
        config = TestGenerator(small).config()
        assert config["path_strategy"] == "direct"
        assert json.loads(json.dumps(config)) == config

    def test_solver_identity_names_the_solve_backend(self):
        import scipy

        model = repro.ilp.Model()
        model.minimize(model.binary_var("x"))
        backend = repro.ilp.solve(model).backend
        assert solver_identity() == (backend, scipy.__version__)

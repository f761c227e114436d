"""Persistent artifact store: digests, round trips, streaming, warm starts."""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

import oracle
from repro.context import ExecutionContext
from repro.core import TestSet, generate_suite
from repro.engine import AdaptiveDiagnoser, get_scenario
from repro.engine.parallel import run_sweep
from repro.fpva import FPVABuilder, Side, full_layout
from repro.fpva.geometry import Cell
from repro.sim import (
    ChipUnderTest,
    FaultDictionary,
    ReachabilityKernel,
    StuckAt0,
    fault_universe,
    stuck_at_faults,
)
from repro.sim.campaign import KEEP_UNDETECTED
from repro.sim.diagnosis import iter_fault_sets
from repro.store import ArtifactStore, dictionary_digest, layout_digest


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(4, 4, name="store-4x4")
    return fpva, generate_suite(fpva).all_vectors()


def _table_key(dictionary):
    return list(dictionary._table.items())


def _result_key(result):
    return (
        result.num_faults,
        result.trials,
        result.detected,
        result.undetected_examples,
        result.undetected_trials,
    )


class TestDigests:
    def test_layout_digest_ignores_display_name(self):
        a = full_layout(3, 3, name="first")
        b = full_layout(3, 3, name="second")
        assert layout_digest(a) == layout_digest(b)

    def test_layout_digest_sees_structure(self):
        base = full_layout(3, 3)
        bigger = full_layout(3, 4)
        with_channel = (
            FPVABuilder(3, 3)
            .channel(Cell(2, 1), "east", 1)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 3)
            .build()
        )
        digests = {layout_digest(f) for f in (base, bigger, with_channel)}
        assert len(digests) == 3

    def test_dictionary_digest_covers_every_input(self, bundle):
        fpva, vectors = bundle
        universe = fault_universe(fpva)
        base = dictionary_digest(fpva, vectors, universe, 1)
        assert base == dictionary_digest(fpva, vectors, universe, 1)
        assert base != dictionary_digest(fpva, vectors, universe, 2)
        assert base != dictionary_digest(fpva, vectors[:-1], universe, 1)
        assert base != dictionary_digest(fpva, vectors, universe[:-1], 1)
        # Stored fault sets are universe indices, so order is identity.
        assert base != dictionary_digest(fpva, vectors, universe[::-1], 1)


class TestDictionaryWarmStart:
    def test_cold_then_warm_identical_tables_and_reports(self, bundle, tmp_path):
        """Satellite: save → load → diagnose is bit-identical."""
        fpva, vectors = bundle
        store = ArtifactStore(tmp_path)
        universe = stuck_at_faults(fpva)
        kwargs = dict(max_cardinality=2, universe=universe)
        cold = FaultDictionary(fpva, vectors, store=store, **kwargs)
        warm = FaultDictionary(fpva, vectors, store=store, **kwargs)
        plain = FaultDictionary(fpva, vectors, **kwargs)
        assert cold.build_stats["mode"] == "cold"
        assert warm.build_stats["mode"] == "warm"
        assert _table_key(cold) == _table_key(warm) == _table_key(plain)
        rng = random.Random(11)
        for _ in range(5):
            chip = ChipUnderTest(fpva, (rng.choice(universe),))
            assert warm.diagnose_chip(chip) == cold.diagnose_chip(chip)
        assert warm.diagnose_chip(ChipUnderTest(fpva)) == cold.diagnose_chip(
            ChipUnderTest(fpva)
        )

    def test_streamed_chunks_match_single_pass(self, bundle):
        fpva, vectors = bundle
        whole = FaultDictionary(fpva, vectors, max_cardinality=2)
        streamed = FaultDictionary(fpva, vectors, max_cardinality=2, chunk_size=7)
        assert _table_key(whole) == _table_key(streamed)

    def test_store_accepts_plain_path(self, bundle, tmp_path):
        fpva, vectors = bundle
        FaultDictionary(fpva, vectors, store=tmp_path)
        warm = FaultDictionary(fpva, vectors, store=str(tmp_path))
        assert warm.build_stats["mode"] == "warm"

    def test_incomplete_artifact_never_addressable(self, bundle, tmp_path):
        """A crashed build (no commit) must not be treated as a hit."""
        fpva, vectors = bundle
        store = ArtifactStore(tmp_path)
        digest = dictionary_digest(fpva, vectors, fault_universe(fpva), 1)
        writer = store.dictionaries.writer(digest, 1, meta={"universe_size": 1})
        writer.add([0], (("v", (("m", False),)),))
        assert not store.dictionaries.has(digest)  # meta.json not written
        writer.abort()
        rebuilt = FaultDictionary(fpva, vectors, store=store)
        assert rebuilt.build_stats["mode"] == "cold"
        assert store.dictionaries.has(rebuilt.digest)

    def test_adaptive_on_warm_dictionary_matches_full_suite(self, bundle, tmp_path):
        fpva, vectors = bundle
        store = ArtifactStore(tmp_path)
        scenario = get_scenario("mixed")
        universe = scenario.universe(fpva)
        cold = FaultDictionary(fpva, vectors, universe=universe, store=store)
        warm = FaultDictionary(fpva, vectors, universe=universe, store=store)
        assert warm.build_stats["mode"] == "warm"
        engine = AdaptiveDiagnoser(warm)
        rng = random.Random(23)
        for _ in range(4):
            chip = ChipUnderTest(fpva, scenario.sample(universe, rng, 1))
            session = engine.diagnose(chip)
            full = cold.diagnose_chip(chip)
            assert session.report.syndrome == full.syndrome
            assert session.report.candidates == full.candidates


class TestBackendEquivalence:
    def test_tables_identical_on_randomized_array(self):
        """Satellite: kernel vs reference dictionaries on a randomized array,
        plus a store round trip of the kernel build."""
        rng = random.Random(1234)
        for trial in range(3):
            nr, nc = rng.choice(((3, 3), (3, 4), (4, 3)))
            fpva = full_layout(nr, nc, name=f"rand-{trial}-{nr}x{nc}")
            vectors = generate_suite(fpva).all_vectors()
            universe = fault_universe(fpva)
            sub = rng.sample(universe, min(18, len(universe)))
            kwargs = dict(universe=sub, max_cardinality=2)
            fast = FaultDictionary(
                fpva, vectors, context=ExecutionContext(fpva), **kwargs
            )
            ref = oracle.ReferenceDictionary(fpva, vectors, **kwargs)
            assert _table_key(fast) == _table_key(ref)


class TestNarrowedFallback:
    def _partial_suite(self, fpva, vectors):
        from repro.core.vectors import TestVector, VectorKind

        sink = fpva.sinks[0].name
        partial = TestVector(
            name="partial",
            kind=VectorKind.BASELINE,
            open_valves=frozenset(fpva.valves[:2]),
            expected={f"not-{sink}": False},
        )
        return list(vectors) + [partial]

    def test_sink_coverage_fallback_warns_and_matches_legacy(
        self, bundle, recwarn
    ):
        """A vector naming a non-sink meter no longer needs a fallback: the
        batched build emits no warning and equals the reference."""
        fpva, vectors = bundle
        suite = self._partial_suite(fpva, vectors)
        universe = fault_universe(fpva)[:12]
        fast = FaultDictionary(fpva, suite, universe=universe)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
        ref = oracle.ReferenceDictionary(fpva, suite, universe=universe)
        assert _table_key(fast) == _table_key(ref)

    def test_full_coverage_build_does_not_warn(self, bundle, recwarn):
        fpva, vectors = bundle
        FaultDictionary(fpva, vectors, universe=fault_universe(fpva)[:12])
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_unrelated_valueerror_is_not_swallowed(self, bundle, monkeypatch):
        """Only the sink-coverage precondition may trigger the fallback."""
        fpva, vectors = bundle

        def explode(*args, **kwargs):
            raise ValueError("unrelated construction defect")

        monkeypatch.setattr("repro.sim.diagnosis.BatchEvaluator", explode)
        with pytest.raises(ValueError, match="unrelated"):
            FaultDictionary(fpva, vectors, universe=fault_universe(fpva)[:4])


class TestDeferredKernelCompile:
    def test_prebuilt_kernel_is_reused(self, bundle):
        fpva, vectors = bundle
        kernel = ReachabilityKernel(fpva)
        dictionary = FaultDictionary(
            fpva, vectors, universe=fault_universe(fpva)[:8],
            context=ExecutionContext(fpva, kernel=kernel),
        )
        assert dictionary.tester.kernel is kernel

    def test_iter_fault_sets_matches_eager_enumeration(self, bundle):
        import itertools

        from repro.sim.faults import faults_compatible

        fpva, _ = bundle
        universe = fault_universe(fpva)[:15]
        eager = [(f,) for f in universe] + [
            pair
            for pair in itertools.combinations(universe, 2)
            if faults_compatible(pair)
        ]
        assert list(iter_fault_sets(universe, 2)) == eager


class TestParallelCachePath:
    def test_cache_dir_results_bit_identical(self, bundle, tmp_path):
        fpva, vectors = bundle
        kwargs = dict(fault_counts=(2,), trials=60, seed=9, shard_trials=15)
        plain = run_sweep(fpva, vectors, workers=1, **kwargs)[2]
        cached = run_sweep(
            fpva, vectors, workers=1,
            context=ExecutionContext(fpva, store=tmp_path), **kwargs
        )[2]
        pooled = run_sweep(
            fpva, vectors, workers=2,
            context=ExecutionContext(fpva, store=tmp_path), **kwargs
        )[2]
        for other in (cached, pooled):
            assert (plain.trials, plain.detected) == (other.trials, other.detected)
            assert plain.undetected_examples == other.undetected_examples
        # The sessions compiled their kernel and stored none.
        assert not (tmp_path / "kernels").exists()


class TestDiagnosisAfterRoundTrip:
    def test_report_object_equality_end_to_end(self, tmp_path):
        """The DiagnosisReport dataclass compares syndrome and candidate
        lists; warm and cold must agree on both for every injected chip."""
        fpva = full_layout(3, 3, name="roundtrip-3x3")
        vectors = generate_suite(fpva).all_vectors()
        store = ArtifactStore(tmp_path)
        cold = FaultDictionary(fpva, vectors, max_cardinality=2, store=store)
        warm = FaultDictionary(fpva, vectors, max_cardinality=2, store=store)
        assert warm.build_stats["mode"] == "warm"
        for valve in fpva.valves:
            chip = ChipUnderTest(fpva, (StuckAt0(valve),))
            assert warm.diagnose_chip(chip) == cold.diagnose_chip(chip)


class TestParentWrittenFixture:
    """Artifacts an earlier version of the store wrote stay warm.

    ``tests/fixtures/store-3x3`` was written by an earlier version of the
    code (``tests/fixtures/write_store_fixture.py``): a cardinality-2
    stuck-at dictionary and a finished campaign journal, with the suite
    they were built from.  Its cache also holds the 3x3 kernel artifact
    and sidecar that versions which stored kernels wrote; the session
    compiles its kernel instead and leaves that directory alone.
    """

    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "store-3x3"

    @staticmethod
    def _suite(raw: bytes) -> TestSet:
        """Rebuild the stored suite through the public reader."""
        suite = TestSet.from_json(full_layout(*json.loads(raw)["dimensions"]), raw)
        assert suite.to_json(indent=None).encode() == raw
        return suite

    def test_parent_artifacts_stay_warm(self, tmp_path):
        from repro.fabric import CampaignSpec, run_journaled_sweep
        from repro.sim.faults import stuck_at_faults

        root = tmp_path / "store-3x3"
        shutil.copytree(self.FIXTURE, root)
        suite = self._suite((root / "suite.json").read_bytes())
        fpva, vectors = suite.fpva, suite.all_vectors()

        kernels = root / "cache" / "kernels"  # a kernel .npz and its sidecar
        stored = {path.name: path.read_bytes() for path in kernels.iterdir()}
        assert len(stored) == 2
        ctx = ExecutionContext(fpva, store=root / "cache")
        ctx.kernel
        assert ctx.kernel_compiles == 1

        universe = stuck_at_faults(fpva)
        warm = ctx.dictionary(vectors, max_cardinality=2, universe=universe)
        assert warm.build_stats["mode"] == "warm"
        cold = ExecutionContext(fpva).dictionary(
            vectors, max_cardinality=2, universe=universe
        )
        assert _table_key(warm) == _table_key(cold)

        manifest = json.loads((root / "journal" / "campaign.json").read_text())
        # The parent wrote the two retired workload knobs at the values
        # every campaign now runs with.
        assert manifest["keep_undetected"] == KEEP_UNDETECTED
        assert manifest["include_control_leaks"] is True
        params = {key: manifest[key] for key in ("trials", "seed", "shard_trials")}
        spec = CampaignSpec(
            fpva=fpva,
            vectors=tuple(vectors),
            fault_counts=tuple(manifest["fault_counts"]),
            **params,
        )
        results, stats = run_journaled_sweep(spec, root / "journal", resume=True)
        assert (stats.executed, stats.healed) == (0, 0)
        in_memory = run_sweep(
            fpva, vectors, fault_counts=spec.fault_counts, **params
        )
        assert {k: _result_key(r) for k, r in results.items()} == {
            k: _result_key(r) for k, r in in_memory.items()
        }

        assert not list(root.rglob("quarantine"))
        assert {p.name: p.read_bytes() for p in kernels.iterdir()} == stored

"""Persistent artifact store: digests, round trips, streaming, warm starts."""

from __future__ import annotations

import random

import pytest

from repro.context import ExecutionContext
from repro.core import generate_suite
from repro.engine import AdaptiveDiagnoser, get_scenario
from repro.engine.parallel import run_campaign as run_campaign_sharded
from repro.fpva import FPVABuilder, Side, full_layout
from repro.fpva.geometry import Cell
from repro.sim import (
    ChipUnderTest,
    FaultDictionary,
    ReachabilityKernel,
    StuckAt0,
    fault_universe,
)
from repro.sim.diagnosis import iter_fault_sets
from repro.store import (
    ArtifactStore,
    KernelStore,
    dictionary_digest,
    kernel_digest,
)


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(4, 4, name="store-4x4")
    return fpva, generate_suite(fpva).all_vectors()


def _table_key(dictionary):
    return list(dictionary._table.items())


class TestDigests:
    def test_layout_digest_ignores_display_name(self):
        a = full_layout(3, 3, name="first")
        b = full_layout(3, 3, name="second")
        assert kernel_digest(a) == kernel_digest(b)

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
        digests = {kernel_digest(f) for f in (base, bigger, with_channel)}
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


class TestKernelStore:
    def test_round_trip_is_bit_identical(self, bundle, tmp_path):
        fpva, _ = bundle
        kernel = ReachabilityKernel(fpva)
        store = KernelStore(tmp_path)
        assert store.load(fpva) is None
        store.save(kernel)
        clone = store.load(fpva)
        assert (clone._arc_src == kernel._arc_src).all()
        assert (clone._arc_valve == kernel._arc_valve).all()
        assert (clone._arc_edge == kernel._arc_edge).all()
        assert clone._dst_starts.tolist() == kernel._dst_starts.tolist()
        assert clone._out == kernel._out
        rng = random.Random(5)
        valves = list(fpva.valves)
        for _ in range(25):
            mask = kernel.valve_mask(
                rng.sample(valves, rng.randrange(len(valves) + 1))
            )
            assert clone.readings(mask) == kernel.readings(mask)

    def test_get_or_compile_hits_after_first_use(self, bundle, tmp_path):
        fpva, _ = bundle
        store = KernelStore(tmp_path)
        first = store.get_or_compile(fpva)
        assert store.has(fpva)
        compiles = []
        original = ReachabilityKernel.__init__

        def counting(self, array):
            compiles.append(array)
            original(self, array)

        ReachabilityKernel.__init__ = counting
        try:
            second = store.get_or_compile(fpva)
        finally:
            ReachabilityKernel.__init__ = original
        assert not compiles  # warm load, no compilation
        assert second._out == first._out


class TestDictionaryWarmStart:
    def test_cold_then_warm_identical_tables_and_reports(self, bundle, tmp_path):
        """Satellite: save → load → diagnose is bit-identical."""
        fpva, vectors = bundle
        store = ArtifactStore(tmp_path)
        kwargs = dict(max_cardinality=2, include_control_leaks=False)
        cold = FaultDictionary(fpva, vectors, store=store, **kwargs)
        warm = FaultDictionary(fpva, vectors, store=store, **kwargs)
        plain = FaultDictionary(fpva, vectors, **kwargs)
        assert not cold.warm_loaded and warm.warm_loaded
        assert _table_key(cold) == _table_key(warm) == _table_key(plain)
        rng = random.Random(11)
        universe = fault_universe(fpva, include_control_leaks=False)
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
        assert warm.warm_loaded

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
        assert not rebuilt.warm_loaded
        assert store.dictionaries.has(rebuilt.digest)

    def test_adaptive_on_warm_dictionary_matches_full_suite(self, bundle, tmp_path):
        fpva, vectors = bundle
        store = ArtifactStore(tmp_path)
        scenario = get_scenario("mixed")
        universe = scenario.universe(fpva)
        cold = FaultDictionary(fpva, vectors, universe=universe, store=store)
        warm = FaultDictionary(fpva, vectors, universe=universe, store=store)
        assert warm.warm_loaded
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
        """Satellite: kernel vs legacy dictionaries on a randomized array,
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
            ref = FaultDictionary(
                fpva, vectors,
                context=ExecutionContext(fpva, engine="object"), **kwargs
            )
            assert _table_key(fast) == _table_key(ref)

    def test_legacy_build_round_trips_through_store(self, bundle, tmp_path):
        fpva, vectors = bundle
        universe = fault_universe(fpva)[:20]
        store = ArtifactStore(tmp_path)
        cold = FaultDictionary(
            fpva, vectors, universe=universe,
            context=ExecutionContext(fpva, engine="object", store=store),
        )
        warm = FaultDictionary(
            fpva, vectors, universe=universe,
            context=ExecutionContext(fpva, engine="object", store=store),
        )
        assert warm.warm_loaded
        assert _table_key(cold) == _table_key(warm)


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

    def test_sink_coverage_fallback_warns_and_matches_legacy(self, bundle):
        fpva, vectors = bundle
        suite = self._partial_suite(fpva, vectors)
        universe = fault_universe(fpva)[:12]
        with pytest.warns(UserWarning, match="falling\\s+back to the"):
            fast = FaultDictionary(fpva, suite, universe=universe)
        ref = FaultDictionary(
            fpva, suite, universe=universe,
            context=ExecutionContext(fpva, engine="object"),
        )
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
    def test_legacy_backend_compiles_no_kernel(self, bundle, monkeypatch):
        """An object-engine dictionary never pays a kernel compile."""
        fpva, vectors = bundle
        compiles = []
        original = ReachabilityKernel.__init__

        def counting(self, array):
            compiles.append(array)
            original(self, array)

        monkeypatch.setattr(ReachabilityKernel, "__init__", counting)
        dictionary = FaultDictionary(
            fpva, vectors, universe=fault_universe(fpva)[:8],
            context=ExecutionContext(fpva, engine="object"),
        )
        assert not compiles
        # Diagnosis runs on the same object-engine session: still no compile.
        report = dictionary.diagnose_chip(ChipUnderTest(fpva))
        assert report.syndrome == ()
        assert not compiles

    def test_prebuilt_kernel_is_reused(self, bundle):
        fpva, vectors = bundle
        kernel = ReachabilityKernel(fpva)
        dictionary = FaultDictionary(
            fpva, vectors, universe=fault_universe(fpva)[:8],
            context=ExecutionContext(fpva, kernel=kernel),
        )
        assert dictionary.tester.simulator.kernel is kernel

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
        kwargs = dict(num_faults=2, trials=60, seed=9, shard_trials=15)
        plain = run_campaign_sharded(fpva, vectors, workers=1, **kwargs)
        cached = run_campaign_sharded(
            fpva, vectors, workers=1,
            context=ExecutionContext(fpva, cache_dir=tmp_path), **kwargs
        )
        pooled = run_campaign_sharded(
            fpva, vectors, workers=2,
            context=ExecutionContext(fpva, cache_dir=tmp_path), **kwargs
        )
        for other in (cached, pooled):
            assert (plain.trials, plain.detected) == (other.trials, other.detected)
            assert plain.undetected_examples == other.undetected_examples
        # The kernel artifact was actually published to the store.
        assert KernelStore(tmp_path / "kernels").has(fpva)


class TestDiagnosisAfterRoundTrip:
    def test_report_object_equality_end_to_end(self, tmp_path):
        """The DiagnosisReport dataclass compares syndrome and candidate
        lists; warm and cold must agree on both for every injected chip."""
        fpva = full_layout(3, 3, name="roundtrip-3x3")
        vectors = generate_suite(fpva).all_vectors()
        store = ArtifactStore(tmp_path)
        cold = FaultDictionary(fpva, vectors, max_cardinality=2, store=store)
        warm = FaultDictionary(fpva, vectors, max_cardinality=2, store=store)
        assert warm.warm_loaded
        for valve in fpva.valves:
            chip = ChipUnderTest(fpva, (StuckAt0(valve),))
            assert warm.diagnose_chip(chip) == cold.diagnose_chip(chip)

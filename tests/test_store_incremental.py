"""Incremental dictionaries: delta reuse, lineage gc, verified-payload cache.

The contract under test: every incrementally-built dictionary is
bit-identical — table iteration order, interned ``syndromes.json`` bytes,
decoded chunk rows, metadata minus the lineage block — to a cold build of
the same (layout, suite, universe, cardinality) key, while re-simulating
*only* the new vectors' columns and the promoted cardinality tiers.  The
zero-re-simulation half is asserted with a probe over every
:class:`BatchEvaluator` the build constructs and flushes, not just the
build's own ``build_stats`` accounting.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.cli import main as cli_main
from repro.context import ExecutionContext
from repro.core import generate_suite
from repro.fpva import full_layout
from repro.sim import FaultDictionary, fault_universe
from repro.sim.kernel import BatchEvaluator
from repro.store import (
    ArtifactCorruptionError,
    ArtifactStore,
    dictionary_digest,
)
from repro.store.integrity import _reset_verified_cache


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(4, 4, name="inc-4x4")
    vectors = generate_suite(fpva).all_vectors()
    # A small, deterministic universe slice keeps cardinality-2/3 tiers
    # affordable while still exercising stuck-ats, blockages and leaks.
    universe = fault_universe(fpva, include_control_leaks=True)[:16]
    return fpva, vectors, universe


def _table_key(dictionary):
    return list(dictionary._table.items())


def _canonical_artifact(store, digest):
    """Everything a cold and delta build must agree on, decoded."""
    base = Path(store.root) / "dictionaries" / digest
    meta = json.loads((base / "meta.json").read_text())
    meta.pop("lineage")
    chunks = []
    for name in sorted(p.name for p in base.iterdir()):
        if name.startswith("chunk-"):
            with np.load(io.BytesIO((base / name).read_bytes())) as data:
                chunks.append(
                    (name, data["sets"].tolist(), data["syndromes"].tolist())
                )
    return meta, (base / "syndromes.json").read_bytes(), chunks


class EvalProbe:
    """Records every BatchEvaluator construction and non-empty flush."""

    def __init__(self):
        self.constructed: list[int] = []  # suite width per evaluator
        self.flushed: list[tuple[int, int]] = []  # (width, scenarios)

    def reset(self):
        self.constructed.clear()
        self.flushed.clear()

    def scenarios_over_width(self, width: int) -> int:
        """Scenarios simulated through evaluators of >= ``width`` vectors."""
        return sum(n for w, n in self.flushed if w >= width)


@pytest.fixture
def eval_probe(monkeypatch):
    probe = EvalProbe()
    orig_init = BatchEvaluator.__init__
    orig_flush = BatchEvaluator.flush

    def init(self, kernel, vectors, universe=()):
        orig_init(self, kernel, vectors, universe)
        probe.constructed.append(len(self.vectors))

    def flush(self):
        pending = self.pending_scenarios
        if pending:
            probe.flushed.append((len(self.vectors), pending))
        orig_flush(self)

    monkeypatch.setattr(BatchEvaluator, "__init__", init)
    monkeypatch.setattr(BatchEvaluator, "flush", flush)
    return probe


def _assert_identical(delta, cold, store_a, store_b):
    assert cold.build_stats["mode"] == "cold"
    assert _table_key(delta) == _table_key(cold)
    assert delta.digest == cold.digest
    assert _canonical_artifact(store_a, delta.digest) == _canonical_artifact(
        store_b, cold.digest
    )


class TestDeltaBitIdentity:
    def test_append_one_vector_simulates_only_new_column(
        self, bundle, tmp_path, eval_probe
    ):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path / "a")
        FaultDictionary(
            fpva, vectors[:-1], universe=universe, max_cardinality=2,
            store=store,
        )
        eval_probe.reset()
        delta = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        assert delta.build_stats["mode"] == "delta"
        assert delta.build_stats["new_vectors"] == 1
        assert delta.build_stats["promoted_sets"] == 0
        # Zero re-simulation of existing columns: every scenario the delta
        # build simulated went through the one-vector sub-evaluator.
        assert eval_probe.scenarios_over_width(2) == 0
        simulated = sum(n for _, n in eval_probe.flushed)
        assert simulated == delta.build_stats["simulated_scenarios"]
        cold_store = ArtifactStore(tmp_path / "b")
        cold = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2,
            store=cold_store,
        )
        assert cold.build_stats["mode"] == "cold"
        assert simulated < cold.build_stats["simulated_scenarios"]
        _assert_identical(delta, cold, store, cold_store)

    def test_pure_promotion_simulates_only_new_tier(
        self, bundle, tmp_path, eval_probe
    ):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path / "a")
        anc = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        eval_probe.reset()
        delta = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        assert delta.build_stats["mode"] == "delta"
        assert delta.build_stats["new_vectors"] == 0
        assert delta.build_stats["reused_sets"] == anc.total_fault_sets
        assert delta.build_stats["promoted_sets"] == (
            delta.total_fault_sets - anc.total_fault_sets
        )
        # No single-column sub-evaluator exists on this path; the only
        # simulated scenarios belong to the promoted cardinality tier.
        assert all(w == len(vectors) for w, _ in eval_probe.flushed)
        cold_store = ArtifactStore(tmp_path / "b")
        cold = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2,
            store=cold_store,
        )
        _assert_identical(delta, cold, store, cold_store)
        # Distinct-scenario counts can tie when every singles-tier scenario
        # recurs among the pairs, but the delta can never simulate more.
        assert (
            delta.build_stats["simulated_scenarios"]
            <= cold.build_stats["simulated_scenarios"]
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        holdout=st.integers(1, 3),
        permute=st.booleans(),
        cardinality=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    def test_evolved_suites_stay_bit_identical(
        self, bundle, tmp_path_factory, holdout, permute, cardinality, seed
    ):
        """Random suite evolution: hold some vectors out of the ancestor,
        optionally permute the survivors, then rebuild the full suite
        incrementally — always bit-identical to a cold build."""
        fpva, vectors, universe = bundle
        root = tmp_path_factory.mktemp("evolve")
        store = ArtifactStore(root / "a")
        rng = np.random.default_rng(seed)
        base = list(vectors[: len(vectors) - holdout])
        if permute:
            base = [base[i] for i in rng.permutation(len(base))]
        target = list(vectors)
        FaultDictionary(
            fpva, base, universe=universe, max_cardinality=cardinality,
            store=store,
        )
        delta = FaultDictionary(
            fpva, target, universe=universe, max_cardinality=cardinality,
            store=store,
        )
        assert delta.build_stats["mode"] == "delta"
        assert delta.build_stats["new_vectors"] == holdout
        cold_store = ArtifactStore(root / "b")
        cold = FaultDictionary(
            fpva, target, universe=universe, max_cardinality=cardinality,
            store=cold_store,
        )
        _assert_identical(delta, cold, store, cold_store)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        from_cardinality=st.integers(1, 2),
        also_append=st.booleans(),
    )
    def test_cardinality_promotion_to_three(
        self, bundle, tmp_path_factory, from_cardinality, also_append
    ):
        """Promoting 1→3 and 2→3 (optionally with a suite append in the
        same step) matches the cold cardinality-3 build bit for bit."""
        fpva, vectors, universe = bundle
        small = universe[:10]  # C(10,3) keeps the triple tier affordable
        root = tmp_path_factory.mktemp("promote")
        store = ArtifactStore(root / "a")
        base = vectors[:-1] if also_append else list(vectors)
        FaultDictionary(
            fpva, base, universe=small, max_cardinality=from_cardinality,
            store=store,
        )
        delta = FaultDictionary(
            fpva, vectors, universe=small, max_cardinality=3, store=store
        )
        assert delta.build_stats["mode"] == "delta"
        assert delta.build_stats["parent_cardinality"] == from_cardinality
        cold_store = ArtifactStore(root / "b")
        cold = FaultDictionary(
            fpva, vectors, universe=small, max_cardinality=3,
            store=cold_store,
        )
        _assert_identical(delta, cold, store, cold_store)

    def test_incomplete_ancestor_merge_walk(self, bundle, tmp_path):
        """A sparse suite leaves fault sets undetected, so the ancestor's
        rows are a strict subsequence of the enumeration and the delta
        must merge-walk — and may *add* rows the new vector detects."""
        from repro.sim.diagnosis import iter_fault_sets

        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path / "a")
        anc = FaultDictionary(
            fpva, vectors[:2], universe=universe, max_cardinality=2,
            store=store,
        )
        assert anc.total_fault_sets < sum(1 for _ in iter_fault_sets(universe, 2))
        delta = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        assert delta.build_stats["mode"] == "delta"
        assert delta.build_stats["reused_sets"] == anc.total_fault_sets
        assert delta.total_fault_sets > anc.total_fault_sets
        cold_store = ArtifactStore(tmp_path / "b")
        cold = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2,
            store=cold_store,
        )
        _assert_identical(delta, cold, store, cold_store)

    def test_cardinality_three_matches_legacy_engine(self, tmp_path):
        fpva = full_layout(3, 3, name="inc-3x3")
        vectors = generate_suite(fpva).all_vectors()
        universe = fault_universe(fpva, include_control_leaks=True)[:8]
        kernel = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=3
        )
        legacy = oracle.ReferenceDictionary(
            fpva, vectors, universe=universe, max_cardinality=3
        )
        assert _table_key(kernel) == _table_key(legacy)

    def test_cardinality_validation(self, bundle):
        fpva, vectors, universe = bundle
        with pytest.raises(ValueError, match="cardinality 1, 2 or 3"):
            FaultDictionary(fpva, vectors, max_cardinality=4)


class TestDeltaFallbacks:
    def test_base_digest_pins_the_ancestor(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        a1 = FaultDictionary(
            fpva, vectors[:-2], universe=universe, max_cardinality=1,
            store=store,
        )
        FaultDictionary(
            fpva, vectors[:-1], universe=universe, max_cardinality=1,
            store=store,
        )
        # Auto-resolution would pick the wider suite; the pin wins.
        pinned = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1,
            store=store, base_digest=a1.digest,
        )
        assert pinned.build_stats["mode"] == "delta"
        assert pinned.build_stats["parent"] == a1.digest
        assert pinned.build_stats["new_vectors"] == 2

    def test_incompatible_base_digest_falls_back_cold(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        FaultDictionary(
            fpva, vectors[:-1], universe=universe, max_cardinality=1,
            store=store,
        )
        cold = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1,
            store=store, base_digest="no-such-digest",
        )
        assert cold.build_stats["mode"] == "cold"

    def test_base_digest_requires_store(self, bundle):
        fpva, vectors, _ = bundle
        with pytest.raises(ValueError, match="artifact store"):
            FaultDictionary(fpva, vectors, base_digest="abc")

    def test_different_universe_never_reuses(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        FaultDictionary(
            fpva, vectors, universe=universe[:12], max_cardinality=1,
            store=store,
        )
        other = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        assert other.build_stats["mode"] == "cold"

    def test_corrupt_ancestor_heals_then_cold_builds(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        anc = FaultDictionary(
            fpva, vectors[:-1], universe=universe, max_cardinality=1,
            store=store,
        )
        chunk = store.dictionaries.path_for(anc.digest) / "chunk-00000.npz"
        chunk.write_bytes(b"garbage")
        _reset_verified_cache()
        rebuilt = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        assert rebuilt.build_stats["mode"] == "cold"
        assert not store.dictionaries.has(anc.digest)  # quarantined
        assert (Path(store.root) / "dictionaries" / "quarantine").is_dir()
        reference = FaultDictionary(fpva, vectors, universe=universe)
        assert _table_key(rebuilt) == _table_key(reference)

    def test_unordered_ancestor_rows_heal_then_cold_builds(self, bundle, tmp_path):
        """Ancestor rows that are not an ordered subsequence of the
        canonical enumeration fail the merge walk, even under valid
        checksums: the ancestor is quarantined and the build goes cold."""
        from repro.store.integrity import data_checksum

        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        anc = FaultDictionary(
            fpva, vectors[:-1], universe=universe, max_cardinality=2,
            store=store,
        )
        base = store.dictionaries.path_for(anc.digest)
        with np.load(io.BytesIO((base / "chunk-00000.npz").read_bytes())) as data:
            sets, sids = data["sets"].copy(), data["syndromes"].copy()
        sets[[0, -1]], sids[[0, -1]] = sets[[-1, 0]], sids[[-1, 0]]
        buffer = io.BytesIO()
        np.savez(buffer, sets=sets, syndromes=sids)
        (base / "chunk-00000.npz").write_bytes(buffer.getvalue())
        meta = json.loads((base / "meta.json").read_text())
        meta["checksums"]["chunk-00000.npz"] = data_checksum(buffer.getvalue())
        (base / "meta.json").write_text(json.dumps(meta))
        _reset_verified_cache()
        rebuilt = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        assert rebuilt.build_stats["mode"] == "cold"
        assert not store.dictionaries.has(anc.digest)  # quarantined
        reference = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2
        )
        assert _table_key(rebuilt) == _table_key(reference)

    @pytest.mark.parametrize(
        "row, sid",
        [([16, -1], 0), ([-1, 0], 0), ([0, -2], 0), ([0, 1], 1), ([0, 1], -1)],
        ids=["index-past-universe", "leading-pad", "bad-pad", "unknown-id", "negative-id"],
    )
    def test_rows_outside_the_artifact_heal_on_load(
        self, bundle, tmp_path, row, sid
    ):
        """A checksummed chunk whose rows index past the universe, pad
        anywhere but the tail, or name no stored syndrome is corruption:
        the warm load quarantines it and the table is rebuilt cold."""
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        digest = dictionary_digest(fpva, vectors, universe, 2)
        writer = store.dictionaries.writer(
            digest, 2, meta={"universe_size": len(universe)}
        )
        writer.intern((("v", (("sink", True),)),))
        writer.extend(np.array([row]), np.array([sid]))
        writer.commit()
        rebuilt = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        assert rebuilt.build_stats["mode"] == "cold"
        reference = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2
        )
        assert _table_key(rebuilt) == _table_key(reference)


class TestLineageGc:
    def _chain(self, bundle, root):
        fpva, vectors, universe = bundle
        store = ArtifactStore(root)
        a = FaultDictionary(
            fpva, vectors[:-1], universe=universe, max_cardinality=1,
            store=store,
        )
        b = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        c = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        assert b.build_stats["mode"] == "delta"
        assert c.build_stats["mode"] == "delta"
        return store, a, b, c

    def test_dry_run_is_the_default_and_removes_nothing(
        self, bundle, tmp_path
    ):
        store, a, b, c = self._chain(bundle, tmp_path)
        report = store.dictionaries.gc()
        assert report["action"] == "dry-run"
        assert sorted(e["digest"] for e in report["superseded"]) == sorted(
            (a.digest, b.digest)
        )
        assert report["kept"] == [c.digest]
        assert report["removed"] == []
        assert report["reclaimable_bytes"] > 0
        for d in (a.digest, b.digest, c.digest):
            assert store.dictionaries.has(d)

    def test_apply_removes_superseded_and_keeps_tips(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        store, a, b, c = self._chain(bundle, tmp_path)
        report = store.dictionaries.gc(apply=True)
        assert report["action"] == "removed"
        assert sorted(report["removed"]) == sorted((a.digest, b.digest))
        assert not store.dictionaries.has(a.digest)
        assert store.dictionaries.has(c.digest)
        # The tip still warm-loads bit-identically after collection.
        warm = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        assert warm.build_stats["mode"] == "warm"
        assert _table_key(warm) == _table_key(c)

    def test_quarantine_keeps_the_evidence(self, bundle, tmp_path):
        store, a, b, c = self._chain(bundle, tmp_path)
        report = store.dictionaries.gc(apply=True, quarantine_evidence=True)
        assert report["action"] == "quarantined"
        assert not store.dictionaries.has(a.digest)
        pen = Path(store.root) / "dictionaries" / "quarantine"
        assert (pen / a.digest / "meta.json").exists()
        assert (pen / f"{a.digest}.reason.json").exists()

    def test_pre_lineage_artifacts_are_never_touched(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        digest = dictionary_digest(fpva, vectors, universe, 1)
        writer = store.dictionaries.writer(
            digest, 1, meta={"universe_size": len(universe)}
        )
        writer.add([0], (("v", (("sink", True),)),))
        writer.commit()
        report = store.dictionaries.gc(apply=True)
        assert report["superseded"] == [] and report["kept"] == []
        assert store.dictionaries.has(digest)

    def test_cli_store_gc(self, bundle, tmp_path, capsys):
        store, a, b, c = self._chain(bundle, tmp_path)
        assert cli_main(["store", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out and a.digest in out
        assert store.dictionaries.has(a.digest)
        assert (
            cli_main(
                ["store", "gc", "--cache-dir", str(tmp_path), "--quarantine"]
            )
            == 2
        )
        assert (
            cli_main(["store", "gc", "--cache-dir", str(tmp_path), "--apply"])
            == 0
        )
        assert not store.dictionaries.has(a.digest)
        assert store.dictionaries.has(c.digest)


class TestVerifiedPayloadCache:
    def test_repeat_loads_hash_once(self, bundle, tmp_path, monkeypatch):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        built = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        from repro.store import integrity

        counts = {"n": 0}
        orig = integrity.data_checksum

        def counting(payload):
            counts["n"] += 1
            return orig(payload)

        monkeypatch.setattr(integrity, "data_checksum", counting)
        _reset_verified_cache()
        first = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        hashed_cold = counts["n"]
        assert first.build_stats["mode"] == "warm"
        assert hashed_cold > 0
        second = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        assert second.build_stats["mode"] == "warm"
        assert counts["n"] == hashed_cold  # every payload served from cache
        assert _table_key(second) == _table_key(built)

    def test_changed_bytes_reverify_and_raise(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        store = ArtifactStore(tmp_path)
        built = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        _reset_verified_cache()
        FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=1, store=store
        )
        # Republishing different bytes changes the fstat signature, so the
        # cache must re-verify — and fail — instead of serving stale trust.
        path = store.dictionaries.path_for(built.digest) / "syndromes.json"
        path.write_bytes(b'{"vectors": [], "sinks": [], "syndromes": []}')
        with pytest.raises(ArtifactCorruptionError):
            store.dictionaries.load(built.digest, universe)


class TestContextWiring:
    def test_dictionary_counters(self, bundle, tmp_path):
        fpva, vectors, universe = bundle
        ctx = ExecutionContext(fpva, store=tmp_path)
        cold = ctx.dictionary(vectors[:-1], universe=universe)
        assert cold.build_stats["mode"] == "cold"
        delta = ctx.dictionary(vectors, universe=universe)
        assert delta.build_stats["mode"] == "delta"
        warm = ctx.dictionary(vectors, universe=universe)
        assert warm.build_stats["mode"] == "warm"

    def test_duplicate_vector_names_fall_back_cold(self, bundle, tmp_path):
        import dataclasses

        fpva, vectors, universe = bundle
        twin = dataclasses.replace(vectors[0], name=vectors[1].name)
        suite = [twin] + list(vectors[1:])
        store = ArtifactStore(tmp_path)
        FaultDictionary(
            fpva, suite[:-1], universe=universe, max_cardinality=1,
            store=store,
        )
        result = FaultDictionary(
            fpva, suite, universe=universe, max_cardinality=1, store=store
        )
        assert result.build_stats["mode"] == "cold"

    @pytest.mark.parametrize("journaled", [False, True], ids=["memory", "journal"])
    def test_inline_sweep_builds_one_evaluator(
        self, bundle, tmp_path, eval_probe, journaled
    ):
        """Every shard of an inline sweep runs on one evaluator, not one
        per shard."""
        from repro.engine import run_sweep

        fpva, vectors, _ = bundle
        sweep = run_sweep(
            fpva, vectors, fault_counts=(1, 2), trials=30, seed=4,
            shard_trials=10, journal_dir=tmp_path / "j" if journaled else None,
        )
        assert [sweep[k].trials for k in (1, 2)] == [30, 30]  # 6 shards
        assert eval_probe.constructed == [len(vectors)]

"""Corruption-injection and supervision suite for the self-healing fabric.

Three layers of sabotage:

* **Artifact corruption** — flip bits inside a published shard's
  ``result.npz``, tear its ``meta.json`` mid-write, corrupt a warm
  suite or dictionary artifact — then assert the store *quarantines*
  the evidence and the caller *heals* by re-deriving, with the final
  merged sweep bit-identical to the uninterrupted serial reference.
* **Poison workloads** — a shard whose simulation always raises must be
  retried a bounded number of times, then parked in quarantine with a
  diagnostic record (never retried forever, never silently merged), and
  an operator ``requeue`` must heal the campaign back to bit-identical.
* **Property checks** — hypothesis drives arbitrary sequences of
  claim/fail/requeue transitions through the supervision ledger and
  checks the attempt-count/quarantine invariants the poison protocol
  rests on, plus the retry schedule's determinism and bounds.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core import generate_suite
from repro.engine import run_sweep
from repro.fabric import (
    CampaignJournal,
    CampaignSpec,
    RetryPolicy,
    ShardWorker,
    run_journaled_sweep,
)
from repro.fabric.supervision import SupervisionLedger
from repro.fpva import full_layout
from repro.sim.faults import stuck_at_faults
from repro.store import (
    ArtifactCorruptionError,
    ArtifactStore,
    data_checksum,
    digest_int,
    verify_file,
)
from repro.store.integrity import quarantined_artifacts


def _noop_sleep(_delay):
    pass


#: Zero-delay policy for tests that exercise retry *logic*, not waiting.
FAST_RETRY = RetryPolicy(max_attempts=3, base=0.0, max_delay=0.0)


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(3, 3, name="supervision-3x3")
    return fpva, tuple(generate_suite(fpva).all_vectors())


@pytest.fixture(scope="module")
def spec(bundle):
    fpva, vectors = bundle
    return CampaignSpec(
        fpva=fpva,
        vectors=vectors,
        fault_counts=(1, 2),
        trials=30,
        seed=5,
        shard_trials=10,
    )


@pytest.fixture(scope="module")
def reference(bundle):
    fpva, vectors = bundle
    return run_sweep(
        fpva, vectors, fault_counts=(1, 2), trials=30, seed=5,
        shard_trials=10, workers=1,
    )


def _result_key(result):
    return (
        result.num_faults,
        result.trials,
        result.detected,
        result.undetected_examples,
        result.undetected_trials,
    )


def assert_sweeps_identical(got, want):
    assert sorted(got) == sorted(want)
    for k in want:
        assert _result_key(got[k]) == _result_key(want[k]), f"k={k}"


def _flip_bits(path, offset=None):
    """Corrupt one byte of ``path`` in place (default: the middle)."""
    data = bytearray(path.read_bytes())
    assert data, f"{path} is empty"
    index = len(data) // 2 if offset is None else offset
    data[index] ^= 0xFF
    path.write_bytes(bytes(data))


# -- integrity primitives ----------------------------------------------------


class TestVerifyFile:
    def test_roundtrip_and_mismatch(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"payload-bytes")
        checksum = data_checksum(b"payload-bytes")
        assert verify_file(path, checksum) == b"payload-bytes"
        _flip_bits(path)
        with pytest.raises(ArtifactCorruptionError, match="checksum mismatch"):
            verify_file(path, checksum)

    def test_unrecorded_checksum_is_corruption(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"payload whose marker records no checksum")
        with pytest.raises(ArtifactCorruptionError, match="no checksum"):
            verify_file(path, None)

    def test_missing_file_is_corruption(self, tmp_path):
        with pytest.raises(ArtifactCorruptionError, match="missing"):
            verify_file(tmp_path / "gone", data_checksum(b""))


# -- shard artifact corruption heals at merge --------------------------------


class TestShardCorruptionHeals:
    def _published_paths(self, journal_dir, spec):
        store = CampaignJournal(journal_dir).store
        return [store.path_for(d.digest) for d in spec.shards()]

    def test_bit_flip_quarantines_and_heals(self, tmp_path, spec, reference):
        journal_dir = tmp_path / "journal"
        results, stats = run_journaled_sweep(spec, journal_dir, workers=1)
        assert_sweeps_identical(results, reference)
        assert stats.healed == 0 and not stats.degraded

        victim = self._published_paths(journal_dir, spec)[2]
        _flip_bits(victim / "result.npz")

        results, stats = run_journaled_sweep(
            spec, journal_dir, workers=1, resume=True
        )
        assert stats.healed == 1
        assert stats.executed == 1  # only the quarantined shard re-ran
        assert not stats.degraded
        assert_sweeps_identical(results, reference)
        # The corrupt evidence (and its diagnostic) survives for the
        # operator under the journal's quarantine/ directory.
        pens = quarantined_artifacts(journal_dir)
        assert len(pens) == 1
        assert "checksum mismatch" in pens[0]["reason"]

    def test_torn_meta_json_heals(self, tmp_path, spec, reference):
        journal_dir = tmp_path / "journal"
        run_journaled_sweep(spec, journal_dir, workers=1)
        victim = self._published_paths(journal_dir, spec)[0]
        (victim / "meta.json").write_text('{"version": 1, "dig')

        results, stats = run_journaled_sweep(
            spec, journal_dir, workers=1, resume=True
        )
        assert stats.healed == 1
        assert_sweeps_identical(results, reference)

    def test_multiple_corruptions_heal_in_one_pass(
        self, tmp_path, spec, reference
    ):
        journal_dir = tmp_path / "journal"
        run_journaled_sweep(spec, journal_dir, workers=1)
        paths = self._published_paths(journal_dir, spec)
        _flip_bits(paths[1] / "result.npz")
        _flip_bits(paths[4] / "result.npz")
        (paths[5] / "meta.json").write_text("")

        results, stats = run_journaled_sweep(
            spec, journal_dir, workers=1, resume=True
        )
        assert stats.healed == 3
        assert stats.executed == 3
        assert_sweeps_identical(results, reference)

    def test_strict_load_sweep_surfaces_corruption(self, tmp_path, spec):
        from repro.fabric import load_sweep

        journal_dir = tmp_path / "journal"
        run_journaled_sweep(spec, journal_dir, workers=1)
        victim = self._published_paths(journal_dir, spec)[3]
        _flip_bits(victim / "result.npz")
        journal = CampaignJournal(journal_dir)
        with pytest.raises(ArtifactCorruptionError):
            load_sweep(journal, spec)


# -- suite and dictionary artifacts heal at their callers --------------------


class TestSuiteCorruptionHeals:
    @pytest.mark.parametrize("victim", ["flipped", "unparseable"])
    def test_corrupt_suite_regenerates(self, tmp_path, bundle, victim):
        fpva, _ = bundle
        store = ArtifactStore(tmp_path / "cache")
        ExecutionContext(fpva, store=store).suite()
        (digest,) = [p.name for p in store.suites.root.iterdir()]
        payload = store.suites.path_for(digest) / "suite.json"
        if victim == "flipped":
            _flip_bits(payload)
        else:
            # Verifies against its marker, but is no suite.
            payload.write_bytes(b"{}")
            marker = payload.with_name("meta.json")
            meta = json.loads(marker.read_text())
            meta["checksum"] = data_checksum(b"{}")
            marker.write_text(json.dumps(meta))
        with pytest.raises(ArtifactCorruptionError):
            store.suites.load(digest, fpva)
        healed = ExecutionContext(fpva, store=store).suite()
        assert healed.report.mode == "cold"  # regenerated
        assert healed.testset.to_json() == generate_suite(fpva).to_json()
        quarantined = quarantined_artifacts(store.suites.root)
        assert [r["artifact"] for r in quarantined] == [digest]
        # The regeneration republished a clean artifact.
        assert ExecutionContext(fpva, store=store).suite().report.mode == "warm"


class TestDictionaryCorruptionHeals:
    def _build(self, tmp_path, fpva, vectors):
        from repro.sim.diagnosis import FaultDictionary

        return FaultDictionary(
            fpva, vectors, max_cardinality=1, store=tmp_path / "cache"
        )

    @pytest.mark.parametrize("victim", ["chunk", "syndromes"])
    def test_corrupt_artifact_rebuilds(self, tmp_path, bundle, victim):
        from repro.store import DictionaryStore

        fpva, vectors = bundle
        cold = self._build(tmp_path, fpva, vectors)
        store = DictionaryStore(tmp_path / "cache" / "dictionaries")
        directory = store.path_for(cold.digest)
        if victim == "chunk":
            _flip_bits(next(iter(sorted(directory.glob("chunk-*.npz")))))
        else:
            _flip_bits(directory / "syndromes.json")

        rebuilt = self._build(tmp_path, fpva, vectors)
        assert rebuilt.build_stats["mode"] == "cold"  # healed via cold rebuild
        assert dict(rebuilt._table) == dict(cold._table)
        assert quarantined_artifacts(store.root)
        warm = self._build(tmp_path, fpva, vectors)
        # The rebuild republished a clean artifact.
        assert warm.build_stats["mode"] == "warm"


# -- markers that parse but are damaged heal like torn ones ------------------


def _rewrite(update):
    """Damage: rewrite a JSON marker, still valid JSON, through ``update``."""

    def damage(marker: Path) -> None:
        meta = json.loads(marker.read_text())
        update(meta)
        marker.write_text(json.dumps(meta, indent=2, sort_keys=True))

    return damage


def _without(key):
    return _rewrite(lambda meta: meta.pop(key))


def _with(**fields):
    return _rewrite(lambda meta: meta.update(fields))


#: case -> (artifact family, damage applied to its completeness marker).
#: ``ancestor`` damages a stored dictionary that a delta build then
#: resolves as its ancestor.
DAMAGED_MARKERS = {
    "dictionary-version": ("dictionary", _with(version=0)),
    "dictionary-universe": ("dictionary", _with(universe_size=7)),
    "dictionary-chunks": ("dictionary", _without("chunks")),
    "dictionary-checksums": ("dictionary", _without("checksums")),
    "ancestor-chunks": ("ancestor", _without("chunks")),
    "shard-version": ("shard", _with(version=0)),
    "shard-checksum": ("shard", _without("checksum")),
    "suite-version": ("suite", _with(version=0)),
    "suite-checksum": ("suite", _without("checksum")),
}


class TestDamagedMarkersHeal:
    """A marker that names another format version, lacks a key its loader
    reads, lacks its checksum, or (for a dictionary) disagrees with the
    universe its digest addresses is damage: the next use quarantines the
    artifact and rebuilds a result equal to a clean build."""

    @pytest.mark.parametrize("case", list(DAMAGED_MARKERS))
    def test_damaged_marker_heals(self, case, tmp_path, bundle, spec, reference):
        family, damage = DAMAGED_MARKERS[case]
        fpva, vectors = bundle
        if family == "shard":
            journal_dir = tmp_path / "journal"
            run_journaled_sweep(spec, journal_dir, workers=1)
            victim = spec.shards()[1].digest
            store = CampaignJournal(journal_dir).store
            damage(store.path_for(victim) / "meta.json")
            results, stats = run_journaled_sweep(
                spec, journal_dir, workers=1, resume=True
            )
            assert (stats.healed, stats.executed) == (1, 1)
            assert_sweeps_identical(results, reference)
            pen, evidence = journal_dir, {victim}
        elif family == "suite":
            store = ArtifactStore(tmp_path / "cache")
            ExecutionContext(fpva, store=store).suite()
            (digest,) = [p.name for p in store.suites.root.iterdir()]
            damage(store.suites.path_for(digest) / "meta.json")
            healed = ExecutionContext(fpva, store=store).suite()
            assert healed.report.mode == "cold"
            assert healed.testset.to_json() == generate_suite(fpva).to_json()
            pen, evidence = store.suites.root, {digest}
        else:
            universe = stuck_at_faults(fpva)
            assert len(universe) != 7
            store = ArtifactStore(tmp_path / "cache")

            def build(suite):
                return ExecutionContext(fpva, store=store).dictionary(
                    suite, universe=universe
                )

            damaged = build(vectors[:-1] if family == "ancestor" else vectors)
            damage(store.dictionaries.path_for(damaged.digest) / "meta.json")
            rebuilt = build(vectors)
            assert rebuilt.build_stats["mode"] == "cold"
            clean = ExecutionContext(fpva).dictionary(vectors, universe=universe)
            assert list(rebuilt._table.items()) == list(clean._table.items())
            pen, evidence = store.dictionaries.root, {damaged.digest}
        assert {r["artifact"] for r in quarantined_artifacts(pen)} == evidence


# -- poison shards: bounded retries, quarantine, requeue ---------------------


def failing_worker(poison_digest: str) -> type[ShardWorker]:
    """A worker whose simulation of one shard always raises."""

    class FailingWorker(ShardWorker):
        def run_shard(self, descriptor):
            if descriptor.digest == poison_digest:
                raise RuntimeError("injected workload failure")
            return super().run_shard(descriptor)

    return FailingWorker


class TestPoisonShards:
    def test_bounded_retries_then_quarantine(self, tmp_path, spec, reference):
        journal_dir = tmp_path / "journal"
        poison = spec.shards()[2]
        results, stats = run_journaled_sweep(
            spec,
            journal_dir,
            workers=1,
            worker_cls=failing_worker(poison.digest),
            retry=FAST_RETRY,
            sleep=_noop_sleep,
        )
        assert stats.degraded
        assert [r["digest"] for r in stats.quarantined] == [poison.digest]
        record = stats.quarantined[0]
        assert record["attempts"] == FAST_RETRY.max_attempts
        assert len(record["failures"]) == FAST_RETRY.max_attempts
        assert "injected workload failure" in record["failures"][0]["error"]
        assert stats.retried == FAST_RETRY.max_attempts - 1
        # Every other shard ran exactly once and merged; the poison
        # shard's trials are withheld, never silently merged.
        assert stats.executed == stats.total - 1
        k = poison.num_faults
        assert results[k].trials == spec.trials - poison.trials
        other = 1 if k == 2 else 2
        assert _result_key(results[other]) == _result_key(reference[other])

        # A resume keeps the shard parked without burning more attempts.
        results, stats = run_journaled_sweep(
            spec, journal_dir, workers=1, resume=True, retry=FAST_RETRY,
            sleep=_noop_sleep,
        )
        assert stats.degraded and stats.executed == 0

        # The operator's heal verb: requeue, re-drain, bit-identical.
        journal = CampaignJournal(journal_dir)
        assert journal.requeue(poison.digest)
        results, stats = run_journaled_sweep(
            spec, journal_dir, workers=1, resume=True, sleep=_noop_sleep,
        )
        assert not stats.degraded
        assert stats.executed == 1
        assert_sweeps_identical(results, reference)

    def test_sigkilled_attempts_burn_budget(self, tmp_path, spec):
        """Attempt counts are burned at *claim* time, so a worker that
        dies mid-shard (no exception ever raised) still converges on the
        poison threshold instead of wedging the campaign forever."""
        journal = CampaignJournal(tmp_path / "journal")
        journal.ensure(spec)
        victim = spec.shards()[0]
        for expected in (1, 2, 3):
            claimed = journal.claim([victim])
            assert claimed == victim
            assert journal.note_attempt(claimed) == expected
            # simulate SIGKILL: no publish, no release — reclaim the lease
            # the way a resumed run would.
            journal._reclaim(victim.digest)
        fresh = CampaignJournal(tmp_path / "journal")
        assert FAST_RETRY.exhausted(fresh.attempts(victim.digest))


# -- retry policy ------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base=0.1, growth=2.0, max_delay=0.5, jitter=0.0)
        assert [policy.delay(a) for a in (1, 2, 3, 4, 5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5,
        ]
        assert policy.delay(0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base=0.1, growth=2.0, max_delay=5.0, jitter=0.5)
        key = digest_int("deadbeefcafebabe")
        first = [policy.delay(a, key) for a in range(1, 6)]
        assert first == [policy.delay(a, key) for a in range(1, 6)]
        for attempt, delay in enumerate(first, start=1):
            raw = min(0.1 * 2.0 ** (attempt - 1), 5.0)
            assert raw * 0.5 <= delay <= raw
        assert first != [policy.delay(a, key + 1) for a in range(1, 6)]

    def test_wait_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(base=0.25, jitter=0.0)
        assert policy.wait(1, sleep=slept.append) == 0.25
        assert slept == [0.25]

    @settings(max_examples=200, deadline=None)
    @given(
        attempt=st.integers(min_value=1, max_value=30),
        key=st.integers(min_value=0, max_value=2**64 - 1),
        base=st.floats(min_value=0.001, max_value=1.0),
        growth=st.floats(min_value=1.0, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_delay_bounds_property(self, attempt, key, base, growth, jitter):
        policy = RetryPolicy(
            base=base, growth=growth, max_delay=10.0, jitter=jitter
        )
        delay = policy.delay(attempt, key)
        raw = min(base * growth ** (attempt - 1), 10.0)
        assert 0.0 <= delay <= raw + 1e-12
        assert delay >= raw * (1.0 - jitter) - 1e-12
        assert delay == policy.delay(attempt, key)


# -- supervision ledger properties -------------------------------------------


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestSupervisionLedger:
    def test_heartbeat_age(self, tmp_path):
        clock = FakeClock()
        ledger = SupervisionLedger(tmp_path, clock=clock)
        assert ledger.heartbeat_age("inst") is None
        ledger.beat("inst", owner="w0")
        assert ledger.heartbeat_age("inst") == 0.0
        clock.now += 42.0
        assert ledger.heartbeat_age("inst") == 42.0

    def test_stale_heartbeat_reclaims_hung_worker(self, tmp_path, spec):
        """A lease whose holder's pid is alive but whose heartbeat went
        stale is reclaimable — the hung-worker case the pid probe and the
        claim-time timeout both miss."""
        clock = FakeClock()
        journal = CampaignJournal(
            tmp_path / "journal", lease_timeout=30.0, clock=clock
        )
        journal.ensure(spec)
        victim = spec.shards()[0]
        assert journal.claim([victim]) == victim
        journal.beat()
        # Same-process lease, so the dead-pid path cannot trigger; only
        # heartbeat staleness can free it.
        other = CampaignJournal(
            tmp_path / "journal", lease_timeout=30.0, clock=clock
        )
        clock.now += 10.0
        assert not other._lease_stale(victim.digest)
        clock.now += 25.0  # heartbeat now 35s old, past the 30s timeout
        assert other._lease_stale(victim.digest)
        # ... while a re-beat (the worker came back) re-protects it.
        journal.beat()
        assert not other._lease_stale(victim.digest)

    def test_heartbeat_age_exact_for_epoch_clock(self, tmp_path):
        """Ages stay exact to well under a microsecond for a clock at
        epoch magnitude (the real clock's range)."""
        clock = FakeClock(now=1_760_000_000.123456)
        ledger = SupervisionLedger(tmp_path, clock=clock)
        ledger.beat("inst")
        assert abs(ledger.heartbeat_age("inst")) < 1e-6
        clock.now += 2.5
        assert abs(ledger.heartbeat_age("inst") - 2.5) < 1e-6
        ledger.beat("inst")
        clock.now += 0.001
        assert abs(ledger.heartbeat_age("inst") - 0.001) < 1e-6

    def test_repeat_beat_keeps_inode_and_bytes(self, tmp_path):
        """A repeat beat touches the beacon's time, nothing else: no new
        inode, no rewritten identity record."""
        clock = FakeClock()
        ledger = SupervisionLedger(tmp_path, clock=clock)
        ledger.beat("inst", owner="w0")
        beacon = ledger.heartbeats_dir / "inst.json"
        inode, payload = beacon.stat().st_ino, beacon.read_bytes()
        assert json.loads(payload)["owner"] == "w0"
        clock.now += 7.0
        ledger.beat("inst", owner="w0")
        assert beacon.stat().st_ino == inode
        assert beacon.read_bytes() == payload
        assert ledger.heartbeat_age("inst") == 0.0

    def test_deleted_beacon_is_recreated(self, tmp_path):
        clock = FakeClock()
        ledger = SupervisionLedger(tmp_path, clock=clock)
        ledger.beat("inst")
        (ledger.heartbeats_dir / "inst.json").unlink()
        assert ledger.heartbeat_age("inst") is None
        clock.now += 3.0
        ledger.beat("inst")
        assert ledger.heartbeat_age("inst") == 0.0

    def test_drain_renames_the_beacon_once(self, tmp_path, bundle, monkeypatch):
        """Every drain-loop transition beats, but only the first beat of a
        journal instance writes a file; the rest touch its time."""
        fpva, vectors = bundle
        spec = CampaignSpec(
            fpva=fpva, vectors=vectors, fault_counts=(1, 2), trials=100,
            seed=5, shard_trials=10,
        )
        assert len(spec.shards()) == 20
        renames = []
        real_replace = os.replace

        def counting_replace(src, dst, *args, **kwargs):
            if "heartbeats" in os.fspath(dst):
                renames.append(os.fspath(dst))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", counting_replace)
        _, stats = run_journaled_sweep(spec, tmp_path / "journal", workers=1)
        assert stats.executed == 20
        assert len(renames) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["claim", "fail", "requeue"]),
            min_size=1,
            max_size=25,
        )
    )
    def test_attempt_quarantine_transitions(self, ops, tmp_path_factory, spec):
        """Drive the poison protocol's claim-time decision procedure
        through arbitrary op sequences and check its invariants."""
        root = tmp_path_factory.mktemp("ledger")
        ledger = SupervisionLedger(root, clock=FakeClock())
        policy = FAST_RETRY
        descriptor = spec.shards()[0]
        model_attempts = 0
        for op in ops:
            if op == "claim":
                prior = ledger.attempts(descriptor.digest)
                assert prior == model_attempts
                if ledger.is_quarantined(descriptor.digest):
                    pass  # claim loops skip quarantined shards
                elif policy.exhausted(prior):
                    ledger.quarantine_shard(
                        descriptor, reason="poison", attempts=prior
                    )
                else:
                    assert ledger.note_attempt(descriptor) == prior + 1
                    model_attempts = prior + 1
            elif op == "fail":
                if not ledger.is_quarantined(descriptor.digest):
                    ledger.record_failure(
                        descriptor, RuntimeError("boom")
                    )
            else:  # requeue
                ledger.requeue(descriptor.digest)
                model_attempts = 0
            # Invariants: the budget is never exceeded, and quarantine
            # implies an exhausted budget (until a requeue resets both).
            assert model_attempts <= policy.max_attempts
            if ledger.is_quarantined(descriptor.digest):
                assert policy.exhausted(model_attempts)

    def test_quarantined_shards_are_not_claimable(self, tmp_path, spec):
        journal = CampaignJournal(tmp_path / "journal")
        journal.ensure(spec)
        shards = spec.shards()
        journal.quarantine_shard(shards[0], reason="poison", attempts=3)
        claimed = journal.claim(shards)
        assert claimed == shards[1]
        journal.release(claimed)
        assert journal.state(shards[0]) == "quarantined"
        assert journal.requeue(shards[0].digest)
        journal.release(journal.claim(shards))
        assert journal.claim([shards[0]]) == shards[0]


# -- durability: publishes fsync payloads and directories --------------------


class TestDurability:
    """Each store publishes with exactly the protocol's syscalls.

    Shard and suite: payload + marker + staged directory + store root
    fsynced, one directory rename.  Dictionary of c chunks: the chunks,
    ``syndromes.json``, the marker, the staged directory and the root
    fsynced (c + 4), one directory rename.
    """

    def _publish_shard(self, tmp_path, bundle, spec):
        from repro.fabric import ShardStore
        from repro.sim import CampaignResult

        descriptor = spec.shards()[0]
        result = CampaignResult(
            num_faults=descriptor.num_faults,
            trials=descriptor.trials,
            detected=descriptor.trials,
            undetected_examples=[],
            undetected_trials=[],
        )
        return lambda: ShardStore(tmp_path / "shards").publish(
            descriptor, result
        )

    def _publish_suite(self, tmp_path, bundle, spec):
        from repro.store import SuiteStore

        suite = generate_suite(bundle[0])
        return lambda: SuiteStore(tmp_path / "suites").save("s" * 32, suite)

    def _publish_dictionary(self, tmp_path, bundle, spec):
        from repro.store import DictionaryStore

        def build():
            writer = DictionaryStore(tmp_path / "dictionaries").writer(
                "d" * 32, cardinality=1
            )
            for index in range(5):  # 2 + 2 + 1 rows: three chunks
                writer.add((index,), (("v0", (("out", bool(index % 2)),)),))
            writer.commit()

        return build

    @pytest.mark.parametrize(
        "artifact, fsyncs, renames",
        [
            pytest.param("shard", 4, 1, id="shard"),
            pytest.param("suite", 4, 1, id="suite"),
            pytest.param("dictionary", 3 + 4, 1, id="dictionary"),
        ],
    )
    def test_publish_syscalls(
        self, artifact, fsyncs, renames, tmp_path, bundle, spec, monkeypatch
    ):
        import repro.store.dictionaries

        monkeypatch.setattr(repro.store.dictionaries, "CHUNK_ROWS", 2)
        publish = getattr(self, f"_publish_{artifact}")(tmp_path, bundle, spec)
        calls = {"fsync": 0, "replace": 0}
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls["fsync"] += 1
            return real_fsync(fd)

        def replace(src, dst):
            calls["replace"] += 1
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        publish()
        assert calls == {"fsync": fsyncs, "replace": renames}


# -- DrainStats reporting ----------------------------------------------------


class TestDrainStats:
    def test_report_and_summary_flags_degradation(self):
        from repro.fabric import DrainStats

        clean = DrainStats(
            total=6, executed=6, cache_hits=0, reclaimed=0,
            workers=1,
        )
        assert not clean.degraded
        assert "QUARANTINED" not in clean.summary()

        poisoned = DrainStats(
            total=6, executed=5, cache_hits=0, reclaimed=0,
            workers=1, retried=2, healed=1,
            quarantined=({"digest": "abc", "reason": "poison"},),
        )
        assert poisoned.degraded
        text = poisoned.summary()
        assert "1 QUARANTINED" in text and "2 retried" in text
        assert "1 healed" in text


# -- CLI: degraded sweeps exit 3 and list quarantined shards in --json -------


class TestCliDegradedExit:
    def test_campaign_degraded_json_and_exit_code(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.testgen import TestGenerator

        journal_dir = tmp_path / "journal"
        json_path = tmp_path / "sweep.json"
        argv = [
            "campaign", "--size", "3", "--full", "--trials", "60",
            "--max-faults", "2", "--journal-dir", str(journal_dir),
            "--json", str(json_path),
        ]
        assert main(argv) == 0
        healthy = json.loads(json_path.read_text())
        assert "quarantined" not in healthy
        capsys.readouterr()

        # Reconstruct the CLI's campaign spec (everything is content
        # addressed, so an equal spec addresses the same shards), park
        # one shard as poison, and drop its published artifact.
        fpva = full_layout(3, 3)
        suite = TestGenerator(fpva).generate().testset
        spec = CampaignSpec(
            fpva=fpva,
            vectors=tuple(suite.all_vectors()),
            fault_counts=(1, 2),
            trials=60,
            seed=0,
        )
        journal = CampaignJournal(journal_dir)
        poison = spec.shards()[1]
        assert journal.store.has(poison.digest)
        journal.quarantine_shard(poison, reason="operator test", attempts=3)
        shutil.rmtree(journal.store.path_for(poison.digest))

        assert main([*argv, "--resume"]) == 3
        captured = capsys.readouterr()
        assert "QUARANTINED" in captured.err
        degraded = json.loads(json_path.read_text())
        assert degraded["quarantined"][0]["digest"] == poison.digest
        # The merged counts shrink by exactly the withheld shard.
        k = str(poison.num_faults)
        assert degraded[k]["trials"] == healthy[k]["trials"] - poison.trials

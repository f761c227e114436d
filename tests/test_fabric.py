"""Campaign fabric units: descriptors, shard store, leases, schedulers.

The crash-injection and interleaving suites live in
``test_fabric_crash.py`` / ``test_fabric_journal.py``; this module pins
the building blocks — content addressing, atomic publish, the lease
protocol under a fake clock, greedy scheduler assignments, and the
order-independent merge.
"""

from __future__ import annotations

import json
import multiprocessing
import random

import pytest

from repro.core import generate_suite
from repro.fabric import (
    CampaignJournal,
    CampaignSpec,
    GreedyScheduler,
    JournalMismatch,
    ShardStore,
    WorkerProfile,
    measure_profiles,
    run_journaled_sweep,
)
from repro.fpva import full_layout
from repro.sim import CampaignResult, merge_shards
from repro.sim.faults import StuckAt0, StuckAt1


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(4, 4, name="fabric-4x4")
    return fpva, tuple(generate_suite(fpva).all_vectors())


@pytest.fixture(scope="module")
def spec(bundle):
    fpva, vectors = bundle
    return CampaignSpec(
        fpva=fpva,
        vectors=vectors,
        fault_counts=(1, 2),
        trials=40,
        seed=7,
        shard_trials=15,
    )


def _result_key(result):
    return (
        result.num_faults,
        result.trials,
        result.detected,
        result.undetected_examples,
        result.undetected_trials,
    )


def _fake_result(descriptor, detected=None):
    return CampaignResult(
        num_faults=descriptor.num_faults,
        trials=descriptor.trials,
        detected=descriptor.trials if detected is None else detected,
    )


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestDescriptors:
    def test_shard_split_matches_pool(self, spec):
        """Sizes and stream seeds must mirror engine.parallel's split."""
        from repro.sim.seeding import mix_seed

        shards = spec.shards_for(2)
        assert [d.trials for d in shards] == [15, 15, 10]
        assert [d.seed for d in shards] == [mix_seed(7, 2, s) for s in range(3)]

    def test_digests_distinct_and_stable(self, spec):
        shards = spec.shards()
        digests = [d.digest for d in shards]
        assert len(set(digests)) == len(digests)
        assert digests == [d.digest for d in spec.shards()]

    def test_single_k_campaign_shares_sweep_shards(self, bundle):
        """A k=2 campaign and a (1,2)-sweep address the same k=2 shards."""
        fpva, vectors = bundle
        sweep = CampaignSpec(
            fpva=fpva, vectors=vectors, fault_counts=(1, 2), trials=40,
            seed=7, shard_trials=15,
        )
        single = CampaignSpec(
            fpva=fpva, vectors=vectors, fault_counts=(2,), trials=40,
            seed=7, shard_trials=15,
        )
        assert [d.digest for d in single.shards()] == [
            d.digest for d in sweep.shards_for(2)
        ]
        assert single.digest != sweep.digest  # manifests stay distinct

    def test_digest_covers_workload(self, bundle):
        fpva, vectors = bundle
        base = CampaignSpec(
            fpva=fpva, vectors=vectors, fault_counts=(1,), trials=20
        )
        for change in (
            dict(seed=1),
            dict(shard_trials=7),
            dict(keep_undetected=3),
            dict(include_control_leaks=False),
            dict(vectors=vectors[:-1]),
        ):
            other = CampaignSpec(
                **{
                    "fpva": fpva,
                    "vectors": vectors,
                    "fault_counts": (1,),
                    "trials": 20,
                    **change,
                }
            )
            assert base.shards()[0].digest != other.shards()[0].digest, change


#: Content addresses of two hand-built specs, recorded before the shard
#: key was prefix-hashed.  Published shard artifacts in existing journals
#: are addressed by these exact bytes, so any encoding change must leave
#: every one of them unmoved.
GOLDEN_ADDRESSES = {
    "default": (
        "a2c9f64f2c11b7c366bcc4be1c6972c7",
        [
            (1, 0, 10, "b55d4266b1eaeb93ca2f422a86d6d366"),
            (1, 1, 10, "81a3e4225c077223b99cd48033ebc7ad"),
            (1, 2, 5, "2621b05b5cb6b31919f96cfe487e2e8f"),
            (3, 0, 10, "134477a59829f9a6ac656db0e3a63bb6"),
            (3, 1, 10, "b221ee6fcba77d582176bae5ddc85d62"),
            (3, 2, 5, "1651e42e426f7db5c9c2046363b82053"),
        ],
    ),
    "mixed": (
        "3f3a272f8ad775fbf12f8e0b0b74bb1a",
        [
            (2, 0, 5, "4e1883a1ae704adb1bbd748795c4011d"),
            (2, 1, 5, "6d4f8310d6d8450cd1968db25c2e18ca"),
            (2, 2, 2, "5f92061366d993cc1e18a9734ec9662c"),
        ],
    ),
}


class TestGoldenAddresses:
    """Shard digests address published artifacts in existing journals."""

    @staticmethod
    def _spec(scenario_name):
        from repro.core.vectors import VectorKind, vector_from_open_set
        from repro.engine import get_scenario

        # Hand-built vectors: no ILP solve, so solver drift cannot move
        # the addresses.
        fpva = full_layout(4, 4)
        valves = sorted(fpva.valves)
        vectors = (
            vector_from_open_set(
                fpva, "all-open", VectorKind.FLOW_PATH, valves,
                {"meter@east4": True},
            ),
            vector_from_open_set(
                fpva, "all-closed", VectorKind.CUT_SET, (),
                {"meter@east4": False},
            ),
            vector_from_open_set(
                fpva, "half", VectorKind.FLOW_PATH, valves[::2],
                {"meter@east4": False},
            ),
        )
        if scenario_name == "default":
            return CampaignSpec(
                fpva=fpva, vectors=vectors, fault_counts=(1, 3), trials=25,
                seed=11, shard_trials=10,
            )
        return CampaignSpec(
            fpva=fpva, vectors=vectors, fault_counts=(2,), trials=12,
            seed=11, shard_trials=5, scenario=get_scenario(scenario_name),
        )

    @pytest.mark.parametrize("scenario_name", sorted(GOLDEN_ADDRESSES))
    def test_addresses_are_byte_identical(self, scenario_name):
        digest, shards = GOLDEN_ADDRESSES[scenario_name]
        spec = self._spec(scenario_name)
        assert spec.digest == digest
        assert [
            (d.num_faults, d.shard, d.trials, d.digest) for d in spec.shards()
        ] == shards
        # The tail shard (uneven split) is its own artifact.
        assert shards[-1][2] < shards[0][2]


class TestShardStore:
    def test_publish_load_roundtrip(self, tmp_path, spec, bundle):
        fpva, _ = bundle
        store = ShardStore(tmp_path)
        descriptor = spec.shards()[0]
        valves = sorted(fpva.valves)
        result = CampaignResult(
            num_faults=descriptor.num_faults,
            trials=descriptor.trials,
            detected=descriptor.trials - 2,
            undetected_examples=[
                (StuckAt0(valves[0]),),
                (StuckAt1(valves[1]),),
            ],
            undetected_trials=[3, 11],
        )
        assert not store.has(descriptor.digest)
        store.publish(descriptor, result, worker="w9", elapsed=1.5)
        assert store.has(descriptor.digest)
        loaded = store.load(descriptor.digest)
        assert _result_key(loaded) == _result_key(result)
        meta = store.meta(descriptor.digest)
        assert meta["worker"] == "w9" and meta["trials"] == descriptor.trials

    def test_publish_idempotent(self, tmp_path, spec):
        store = ShardStore(tmp_path)
        descriptor = spec.shards()[0]
        store.publish(descriptor, _fake_result(descriptor), worker="first")
        store.publish(descriptor, _fake_result(descriptor), worker="second")
        assert store.meta(descriptor.digest)["worker"] == "first"

    def test_publish_rejects_mismatched_result(self, tmp_path, spec):
        store = ShardStore(tmp_path)
        descriptor = spec.shards()[0]
        bad = CampaignResult(
            num_faults=descriptor.num_faults,
            trials=descriptor.trials + 1,
            detected=0,
        )
        with pytest.raises(ValueError, match="does not match descriptor"):
            store.publish(descriptor, bad)

    def test_incomplete_artifact_not_addressable(self, tmp_path, spec):
        """Without meta.json (written last) the shard does not exist."""
        store = ShardStore(tmp_path)
        descriptor = spec.shards()[0]
        partial = store.path_for(descriptor.digest)
        partial.mkdir(parents=True)
        (partial / "result.npz").write_bytes(b"half-written garbage")
        assert not store.has(descriptor.digest)


class TestJournal:
    def test_manifest_created_and_validated(self, tmp_path, spec, bundle):
        journal = CampaignJournal(tmp_path / "j")
        journal.ensure(spec)
        manifest = journal.manifest()
        assert manifest["digest"] == spec.digest
        assert manifest["shards"] == len(spec.shards())
        # Same spec re-binds fine; a different campaign is rejected.
        CampaignJournal(tmp_path / "j").ensure(spec)
        fpva, vectors = bundle
        other = CampaignSpec(
            fpva=fpva, vectors=vectors, fault_counts=(1, 2), trials=41,
            seed=7, shard_trials=15,
        )
        with pytest.raises(JournalMismatch):
            CampaignJournal(tmp_path / "j").ensure(other)

    def test_claim_is_exclusive(self, tmp_path, spec):
        a = CampaignJournal(tmp_path, owner="a")
        b = CampaignJournal(tmp_path, owner="b")
        shards = spec.shards()
        first = a.claim(shards)
        assert first == shards[0]
        # b skips a's lease and claims the next shard instead.
        assert b.claim(shards) == shards[1]
        # Releasing frees the shard for the next claim.
        a.release(first)
        assert b.claim([first]) == first

    def test_done_shards_never_reclaimed(self, tmp_path, spec):
        journal = CampaignJournal(tmp_path)
        shards = spec.shards()
        claimed = journal.claim(shards)
        journal.publish(claimed, _fake_result(claimed))
        assert journal.claim([claimed]) is None
        assert journal.state(claimed) == "done"

    def test_stale_lease_reclaimed_after_timeout(self, tmp_path, spec):
        """Satellite: timeout staleness, pinned with a fake clock."""
        clock = FakeClock()
        a = CampaignJournal(
            tmp_path, lease_timeout=60.0, clock=clock, owner="a"
        )
        b = CampaignJournal(
            tmp_path, lease_timeout=60.0, clock=clock, owner="b"
        )
        shard = spec.shards()[0]
        assert a.claim([shard]) == shard
        # Fake a remote holder: liveness probing must not short-circuit
        # the timeout path (the pid in the lease is alive — it is ours).
        lease = json.loads((a._lease_path(shard.digest)).read_text())
        assert lease["claimed_at"] == clock.now
        clock.advance(59.0)
        assert b.claim([shard]) is None  # still fresh
        assert b.reclaimed == 0
        clock.advance(2.0)  # 61s old > 60s timeout
        assert b.claim([shard]) == shard
        assert b.reclaimed == 1

    def test_dead_pid_lease_reclaimed_immediately(self, tmp_path, spec):
        """A lease whose holder died on this host frees without waiting."""
        shard = spec.shards()[0]
        journal = CampaignJournal(tmp_path, lease_timeout=10_000.0)

        def _claim_and_die(root, spec):
            CampaignJournal(root, owner="doomed").claim(spec.shards())

        proc = multiprocessing.Process(
            target=_claim_and_die, args=(tmp_path, spec)
        )
        proc.start()
        proc.join()
        assert journal._lease_path(shard.digest).exists()
        assert journal.claim([shard]) == shard  # no timeout wait needed
        assert journal.reclaimed == 1

    def test_post_publish_crash_lease_housekept(self, tmp_path, spec):
        """Publish-then-die leaves done + dangling lease; done wins."""
        journal = CampaignJournal(tmp_path, lease_timeout=10_000.0)
        shard = spec.shards()[0]
        assert journal.claim([shard]) == shard
        journal.publish_result(shard, _fake_result(shard))
        # ... crash here: no release.  A second journal must treat the
        # shard as done and clean the dangling lease up.
        other = CampaignJournal(tmp_path, owner="other")
        assert other.claim([shard]) is None
        assert not other._lease_path(shard.digest).exists()


class TestMergeSelection:
    """Satellite: undetected-example selection is order-independent."""

    def _shards(self, fpva):
        valves = sorted(fpva.valves)
        mk = lambda i: (StuckAt0(valves[i]),)  # noqa: E731
        s0 = CampaignResult(
            num_faults=1, trials=20, detected=17,
            undetected_examples=[mk(0), mk(1), mk(2)],
            undetected_trials=[4, 9, 15],
        )
        s1 = CampaignResult(
            num_faults=1, trials=20, detected=18,
            undetected_examples=[mk(3), mk(4)],
            undetected_trials=[0, 1],
        )
        s2 = CampaignResult(
            num_faults=1, trials=10, detected=9,
            undetected_examples=[mk(5)],
            undetected_trials=[7],
        )
        return [s0, s1, s2]

    def test_truncation_takes_globally_first(self, bundle):
        fpva, _ = bundle
        shards = self._shards(fpva)
        merged = merge_shards(1, list(enumerate(shards)), keep_undetected=4)
        # Global trial indices: shard0 at 4,9,15; shard1 at 20,21; shard2 at 47.
        assert merged.undetected_trials == [4, 9, 15, 20]
        assert merged.trials == 50 and merged.detected == 44
        assert merged.undetected_examples == (
            shards[0].undetected_examples + shards[1].undetected_examples[:1]
        )

    def test_merge_is_arrival_order_independent(self, bundle):
        """The pinned fix: any resume/completion order merges identically."""
        fpva, _ = bundle
        shards = list(enumerate(self._shards(fpva)))
        reference = merge_shards(1, shards, keep_undetected=4)
        rng = random.Random(3)
        for _ in range(10):
            shuffled = shards[:]
            rng.shuffle(shuffled)
            assert _result_key(
                merge_shards(1, shuffled, keep_undetected=4)
            ) == _result_key(reference)

    def test_duplicate_shard_indices_rejected(self, bundle):
        fpva, _ = bundle
        shard = self._shards(fpva)[0]
        with pytest.raises(ValueError, match="duplicate shard"):
            merge_shards(1, [(0, shard), (0, shard)], keep_undetected=4)


class TestSchedulers:
    def _descriptors(self, bundle, n=24):
        fpva, vectors = bundle
        spec = CampaignSpec(
            fpva=fpva, vectors=vectors, fault_counts=(1, 2, 3), trials=80,
            shard_trials=10,
        )
        return spec.shards()[:n]

    def test_assignment_partitions_work(self, bundle):
        descriptors = self._descriptors(bundle)
        queues = GreedyScheduler().assign(descriptors, ["w0", "w1", "w2"])
        seen = [d.digest for queue in queues for d in queue]
        assert sorted(seen) == sorted(d.digest for d in descriptors)
        assert len(seen) == len(set(seen))

    def test_profiles_skew_assignment(self, bundle):
        """A worker measured 3x faster gets ~3x the trial volume."""
        descriptors = self._descriptors(bundle)
        profiles = {
            "fast": WorkerProfile("fast", trials=300, elapsed=1.0, shards=3),
            "slow": WorkerProfile("slow", trials=100, elapsed=1.0, shards=3),
        }
        queues = GreedyScheduler().assign(
            descriptors, ["fast", "slow"], profiles
        )
        fast_cost = sum(d.cost for d in queues[0])
        slow_cost = sum(d.cost for d in queues[1])
        assert fast_cost > 2 * slow_cost

    def test_profiles_measured_from_store(self, tmp_path, spec):
        store = ShardStore(tmp_path)
        shards = spec.shards()
        store.publish(shards[0], _fake_result(shards[0]), worker="w0", elapsed=2.0)
        store.publish(shards[1], _fake_result(shards[1]), worker="w0", elapsed=1.0)
        store.publish(shards[2], _fake_result(shards[2]), worker="w1", elapsed=3.0)
        profiles = measure_profiles(store, shards)
        assert set(profiles) == {"w0", "w1"}
        assert profiles["w0"].shards == 2
        assert profiles["w0"].elapsed == pytest.approx(3.0)
        assert profiles["w0"].throughput == pytest.approx(
            (shards[0].trials + shards[1].trials) / 3.0
        )


class TestJournaledRuns:
    def test_resume_requires_existing_journal(self, tmp_path, spec):
        with pytest.raises(FileNotFoundError, match="--resume"):
            run_journaled_sweep(spec, tmp_path / "missing", resume=True)

    def test_pool_drain_loads_the_journal_kernel(
        self, tmp_path, spec, monkeypatch
    ):
        """A multi-process drain started without a kernel ships the one
        already stored under the journal's ``kernels/``: the parent
        process loads it instead of compiling."""
        from repro.sim import ReachabilityKernel
        from repro.store import KernelStore

        journal_dir = tmp_path / "j"
        KernelStore(journal_dir / "kernels").save(ReachabilityKernel(spec.fpva))
        compiles = []
        original = ReachabilityKernel.__init__

        def counting(self, array):
            compiles.append(array)
            original(self, array)

        monkeypatch.setattr(ReachabilityKernel, "__init__", counting)
        results, stats = run_journaled_sweep(spec, journal_dir, workers=2)
        assert compiles == []
        assert stats.executed == stats.total
        assert set(results) == set(spec.fault_counts)

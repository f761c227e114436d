"""Sharded parallel campaigns: determinism and merge correctness."""

import pytest

import repro
import repro.engine
import repro.sim
from repro.core import generate_suite
from repro.engine import get_scenario, run_sweep
from repro.fpva import full_layout
from repro.sim.campaign import SHARD_TRIALS, shard_plan
from repro.sim.seeding import mix_seed


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(4, 4, name="parallel-4x4")
    return fpva, generate_suite(fpva).all_vectors()


def _result_key(result):
    return (
        result.num_faults,
        result.trials,
        result.detected,
        result.undetected_examples,
    )


def _campaign(fpva, vectors, num_faults, **kwargs):
    """One fault count's result, through the one campaign API."""
    return run_sweep(fpva, vectors, fault_counts=(num_faults,), **kwargs)[
        num_faults
    ]


@pytest.mark.parametrize("name", ["run_sweep"])
def test_one_definition_per_campaign_name(name):
    """Every public spelling of a campaign runner is the sharded,
    worker-count-invariant one: the same name never means two results,
    and the retired single-count runners are gone everywhere."""
    modules = (repro, repro.sim, repro.sim.campaign, repro.engine)
    found = {getattr(module, name, None) for module in modules} - {None}
    assert found == {getattr(repro.engine.parallel, name)}
    for retired in ("run_campaign", "run_trials"):
        assert not [m for m in modules if hasattr(m, retired)], retired


class TestDeterminism:
    def test_workers_1_vs_4_identical(self, bundle):
        """Satellite: the aggregate is a function of the seed alone."""
        fpva, vectors = bundle
        kwargs = dict(num_faults=2, trials=120, seed=7, shard_trials=25)
        serial = _campaign(fpva, vectors, workers=1, **kwargs)
        pooled = _campaign(fpva, vectors, workers=4, **kwargs)
        assert _result_key(serial) == _result_key(pooled)

    def test_workers_1_vs_4_identical_with_scenario(self, bundle):
        fpva, vectors = bundle
        kwargs = dict(
            num_faults=1,
            trials=80,
            seed=3,
            shard_trials=20,
            scenario=get_scenario("mixed"),
        )
        serial = _campaign(fpva, vectors, workers=1, **kwargs)
        pooled = _campaign(fpva, vectors, workers=4, **kwargs)
        assert _result_key(serial) == _result_key(pooled)

    def test_sweep_workers_independent(self, bundle):
        fpva, vectors = bundle
        kwargs = dict(
            fault_counts=(1, 2), trials=60, seed=5, shard_trials=15,
            scenario=get_scenario("intermittent"),
        )
        serial = run_sweep(fpva, vectors, workers=1, **kwargs)
        pooled = run_sweep(fpva, vectors, workers=4, **kwargs)
        assert set(serial) == set(pooled) == {1, 2}
        for k in serial:
            assert _result_key(serial[k]) == _result_key(pooled[k])

    def test_repeat_runs_identical(self, bundle):
        fpva, vectors = bundle
        kwargs = dict(num_faults=2, trials=50, seed=11, workers=2)
        first = _campaign(fpva, vectors, **kwargs)
        second = _campaign(fpva, vectors, **kwargs)
        assert _result_key(first) == _result_key(second)


class TestSharding:
    def test_uneven_trials_fully_executed(self, bundle):
        fpva, vectors = bundle
        result = _campaign(
            fpva, vectors, num_faults=1, trials=37, seed=0, workers=2,
            shard_trials=10,
        )
        assert result.trials == 37

    def test_plan_splits_every_fault_count_alike(self):
        """One split per k, tail shard last, one stream per coordinate."""
        plan = shard_plan((2, 1), trials=37, shard_trials=10, seed=4)
        sizes = [10, 10, 10, 7]
        assert [(k, shard, size) for k, shard, size, _ in plan] == [
            (k, shard, size) for k in (2, 1) for shard, size in enumerate(sizes)
        ]
        assert [seed for *_, seed in plan] == [
            mix_seed(4, k, shard) for k, shard, _, _ in plan
        ]

    def test_plan_default_shard_size(self):
        assert repro.engine.SHARD_TRIALS == SHARD_TRIALS == 50
        assert [size for _, _, size, _ in shard_plan((1,), 120)] == [50, 50, 20]

    def test_in_memory_sweep_addresses_nothing(self, bundle, monkeypatch):
        """The pool runs the plan directly: no campaign key, no digests."""
        import repro.fabric.descriptors as descriptors

        def _boom(*args, **kwargs):
            raise AssertionError("the in-memory sweep addressed its shards")

        monkeypatch.setattr(descriptors, "campaign_key", _boom)
        monkeypatch.setattr(descriptors, "shard_digests", _boom)
        fpva, vectors = bundle
        sweep = run_sweep(
            fpva, vectors, fault_counts=(1, 2), trials=30, seed=2,
            shard_trials=10,
        )
        assert [sweep[k].trials for k in (1, 2)] == [30, 30]

    @pytest.mark.parametrize("scenario_name", [None, "mixed"])
    def test_batching_changes_no_result(self, bundle, monkeypatch, scenario_name):
        """run_shards folds whole shards per slot_rows call, BATCH_CHIPS
        or more at a time: any batch size gives every shard the result
        it gets alone."""
        from repro.sim import campaign
        from repro.sim.kernel import BatchEvaluator, ReachabilityKernel

        fpva, vectors = bundle
        scenario = scenario_name and get_scenario(scenario_name)
        kernel = ReachabilityKernel(fpva)
        universe = campaign.campaign_universe(fpva, scenario)
        rows = [
            (k, size, seed)
            for k, _, size, seed in shard_plan((1, 2, 3), 40, shard_trials=7, seed=4)
        ]

        def run(shards):
            evaluator = BatchEvaluator(kernel, vectors, universe)
            results = campaign.run_shards(evaluator, scenario, shards)
            return [result.as_dict() for result in results]

        alone = [result for row in rows for result in run([row])]
        for batch in (1, 10, 50, campaign.BATCH_CHIPS):
            monkeypatch.setattr(campaign, "BATCH_CHIPS", batch)
            assert run(rows) == alone, batch

    def test_mix_seed_deterministic_and_spread(self):
        assert mix_seed(0, 1, 0) == mix_seed(0, 1, 0)
        seeds = {mix_seed(0, k, s) for k in range(1, 6) for s in range(8)}
        assert len(seeds) == 40  # no collisions across (k, shard)

    def test_mix_seed_no_collisions_across_seed_and_k(self):
        """Satellite: naive ``seed + k`` sweeps collide — ``(seed=0, k=2)``
        and ``(seed=1, k=1)`` would draw identical chips.  The splitmix64
        route must keep every (seed, k, shard) stream distinct."""
        assert mix_seed(0, 2, 0) != mix_seed(1, 1, 0)
        grid = {
            mix_seed(seed, k, shard)
            for seed in range(12)
            for k in range(1, 6)
            for shard in range(4)
        }
        assert len(grid) == 12 * 5 * 4

    def test_detection_rate_comparable_to_serial(self, bundle):
        """Sharding changes RNG streams, not statistics: the paper's
        all-detected result must survive the parallel path."""
        fpva, vectors = bundle
        sharded = _campaign(
            fpva, vectors, num_faults=2, trials=100, seed=21, workers=4,
            shard_trials=25,
        )
        # One shard: every chip from a single stream.
        serial = _campaign(
            fpva, vectors, num_faults=2, trials=100, seed=21, shard_trials=100
        )
        assert sharded.all_detected and serial.all_detected


class TestOneSessionPerSweep:
    """A sweep runs every shard of a process on one evaluator of its own,
    built on the caller's kernel."""

    def test_pool_gets_one_task_per_worker(self, bundle, monkeypatch):
        """Each pool task takes a round-robin slice of the plan, so the
        kernel and the suite are pickled once per worker, not per shard."""
        from concurrent.futures import ProcessPoolExecutor

        import repro.engine.parallel as parallel

        tasks = []

        class Recording(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                tasks.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recording)
        fpva, vectors = bundle
        kwargs = dict(fault_counts=(1, 2), trials=50, seed=6, shard_trials=10)
        pooled = run_sweep(fpva, vectors, workers=2, **kwargs)
        assert len(tasks) == 2  # 10 shards
        serial = run_sweep(fpva, vectors, workers=1, **kwargs)
        for k in serial:
            assert _result_key(serial[k]) == _result_key(pooled[k])
            assert serial[k].undetected_trials == pooled[k].undetected_trials

    def test_store_kernel_loads_once(self, bundle, tmp_path, monkeypatch):
        """The caller's session loads the stored kernel; the sweep's
        evaluator runs on that object instead of reading the artifact again."""
        from repro.context import ExecutionContext
        from repro.store import KernelStore

        fpva, vectors = bundle
        ExecutionContext(fpva, store=tmp_path).kernel  # publish the artifact
        loads = []
        original = KernelStore.load

        def counting(self, array):
            loads.append(array)
            return original(self, array)

        monkeypatch.setattr(KernelStore, "load", counting)
        run_sweep(
            fpva, vectors, fault_counts=(1, 2), trials=30, seed=2,
            shard_trials=10, context=ExecutionContext(fpva, store=tmp_path),
        )
        assert loads == [fpva]

    def test_session_dies_with_the_sweep(self, bundle, tmp_path, monkeypatch):
        """No memo keeps a sweep's evaluators (and their scenario pools)
        alive after the sweep returns, in memory or through a journal."""
        import gc
        import weakref

        from repro.context import ExecutionContext
        from repro.sim.kernel import BatchEvaluator

        evaluators = []
        original = BatchEvaluator.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            evaluators.append(weakref.ref(self))

        monkeypatch.setattr(BatchEvaluator, "__init__", recording)
        fpva, vectors = bundle
        ctx = ExecutionContext(fpva, store=tmp_path / "store")
        for journal_dir in (None, tmp_path / "j"):
            evaluators.clear()
            run_sweep(
                fpva, vectors, fault_counts=(1, 2), trials=30, seed=2,
                shard_trials=10, context=ctx, journal_dir=journal_dir,
            )
            gc.collect()
            assert evaluators, journal_dir  # the sweep simulated something
            assert all(ref() is None for ref in evaluators), journal_dir


class TestFabricPath:
    """run_sweep rerouted through the campaign fabric."""

    def test_sweep_worker_count_invariant_under_journal(self, bundle, tmp_path):
        """Satellite: in-memory, journaled-serial and journaled-pooled
        sweeps are one bit-identical result."""
        fpva, vectors = bundle
        kwargs = dict(fault_counts=(1, 2), trials=60, seed=5, shard_trials=15)
        memory = run_sweep(fpva, vectors, workers=1, **kwargs)
        serial = run_sweep(
            fpva, vectors, workers=1, journal_dir=tmp_path / "serial", **kwargs
        )
        pooled = run_sweep(
            fpva, vectors, workers=3, journal_dir=tmp_path / "pooled", **kwargs
        )
        assert set(memory) == set(serial) == set(pooled)
        for k in memory:
            assert _result_key(memory[k]) == _result_key(serial[k])
            assert _result_key(memory[k]) == _result_key(pooled[k])
            assert memory[k].undetected_trials == serial[k].undetected_trials
            assert memory[k].undetected_trials == pooled[k].undetected_trials

    def test_campaign_journal_matches_in_memory(self, bundle, tmp_path):
        fpva, vectors = bundle
        kwargs = dict(num_faults=2, trials=50, seed=11, shard_trials=20)
        memory = _campaign(fpva, vectors, workers=2, **kwargs)
        journaled = _campaign(
            fpva, vectors, workers=2, journal_dir=tmp_path / "j", **kwargs
        )
        assert _result_key(memory) == _result_key(journaled)

    def test_journaled_pool_caps_at_unfinished_shards(
        self, bundle, tmp_path, monkeypatch
    ):
        """A pool process with no shard of its own is never started:
        2 unfinished shards at ``workers=4`` submit 2 drain tasks."""
        from concurrent.futures import ProcessPoolExecutor

        import repro.fabric.runner as runner

        tasks = []

        class Recording(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                tasks.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", Recording)
        fpva, vectors = bundle
        kwargs = dict(fault_counts=(1, 2), trials=10, seed=8, shard_trials=10)
        pooled = run_sweep(
            fpva, vectors, workers=4, journal_dir=tmp_path / "pooled", **kwargs
        )
        assert len(tasks) == 2  # 2 shards
        serial = run_sweep(
            fpva, vectors, workers=1, journal_dir=tmp_path / "serial", **kwargs
        )
        assert len(tasks) == 2
        assert pooled == serial

    def test_finished_journal_rerun_simulates_nothing(
        self, bundle, tmp_path, monkeypatch
    ):
        """Re-running a completed sweep is a pure cache hit: the second
        pass must never reach the shard executor."""
        from repro.fabric import ShardWorker

        fpva, vectors = bundle
        kwargs = dict(
            fault_counts=(1, 2), trials=40, seed=9, shard_trials=15,
            journal_dir=tmp_path / "j",
        )
        first = run_sweep(fpva, vectors, workers=1, **kwargs)

        def _boom(self, descriptor):
            raise AssertionError("cache-hit rerun re-simulated a shard")

        monkeypatch.setattr(ShardWorker, "run_shard", _boom)
        second = run_sweep(fpva, vectors, workers=1, resume=True, **kwargs)
        assert set(first) == set(second)
        for k in first:
            assert _result_key(first[k]) == _result_key(second[k])

    def test_finished_journal_rerun_compiles_no_kernel(
        self, bundle, tmp_path, monkeypatch
    ):
        """Without a caller's session, a rerun with no shard left to run
        compiles nothing; a session for another array is still refused."""
        from repro.context import ExecutionContext
        from repro.sim.kernel import ReachabilityKernel

        fpva, vectors = bundle
        kwargs = dict(
            fault_counts=(1, 2), trials=40, seed=9, shard_trials=15,
            journal_dir=tmp_path / "j",
        )
        first = run_sweep(fpva, vectors, **kwargs)
        other = ExecutionContext(full_layout(3, 3, name="parallel-other"))

        def _compile(self, array):
            raise AssertionError("finished-journal rerun compiled a kernel")

        monkeypatch.setattr(ReachabilityKernel, "__init__", _compile)
        second = run_sweep(fpva, vectors, resume=True, **kwargs)
        assert first == second
        with pytest.raises(ValueError, match="context was created for array"):
            run_sweep(fpva, vectors, resume=True, context=other, **kwargs)


class TestSweepInputs:
    @pytest.mark.parametrize("journaled", [False, True], ids=["memory", "journal"])
    def test_duplicate_fault_counts_rejected(self, bundle, tmp_path, journaled):
        """A repeated k would count the same chips twice in memory and
        once through the journal; both paths refuse it instead."""
        fpva, vectors = bundle
        with pytest.raises(ValueError, match="duplicate fault counts"):
            run_sweep(
                fpva, vectors, fault_counts=(1, 1), trials=60, seed=3,
                journal_dir=tmp_path / "j" if journaled else None,
            )

    @pytest.mark.parametrize("journaled", [False, True], ids=["memory", "journal"])
    @pytest.mark.parametrize(
        "bad",
        [dict(shard_trials=0), dict(shard_trials=-3), dict(trials=-5)],
        ids=["zero-shard", "negative-shard", "negative-trials"],
    )
    def test_out_of_range_sizes_rejected(self, bundle, tmp_path, journaled, bad):
        """A shard size below one never finished splitting, and negative
        trials reported 0/0 detected as 100%: both paths refuse them
        before touching a journal."""
        fpva, vectors = bundle
        journal = tmp_path / "j"
        with pytest.raises(ValueError, match="must be"):
            run_sweep(
                fpva, vectors, fault_counts=(1,), seed=3,
                journal_dir=journal if journaled else None,
                **{"trials": 20, **bad},
            )
        assert not journal.exists()

    @pytest.mark.parametrize(
        "bad",
        [dict(shard_trials=0), dict(trials=-1)],
        ids=["zero-shard", "negative-trials"],
    )
    def test_campaign_spec_rejects_out_of_range_sizes(self, bundle, bad):
        from repro.fabric import CampaignSpec

        fpva, vectors = bundle
        with pytest.raises(ValueError, match="must be"):
            CampaignSpec(
                fpva=fpva, vectors=tuple(vectors), fault_counts=(1,),
                **{"trials": 10, **bad},
            )

    def test_journal_rejects_an_empty_attempt_budget(self, bundle, tmp_path):
        """``max_attempts=0`` quarantined every shard unrun and still
        reported the empty merge as 100% detected."""
        from repro.fabric import CampaignSpec, RetryPolicy, run_journaled_sweep

        fpva, vectors = bundle
        spec = CampaignSpec(
            fpva=fpva, vectors=tuple(vectors), fault_counts=(1,), trials=10
        )
        with pytest.raises(ValueError, match="max_attempts"):
            run_journaled_sweep(
                spec, tmp_path / "j", retry=RetryPolicy(max_attempts=0)
            )
        assert not (tmp_path / "j").exists()

    def test_campaign_spec_rejects_duplicate_fault_counts(self, bundle):
        from repro.fabric import CampaignSpec

        fpva, vectors = bundle
        with pytest.raises(ValueError, match="duplicate fault counts"):
            CampaignSpec(
                fpva=fpva, vectors=tuple(vectors), fault_counts=(2, 1, 2),
                trials=10,
            )


class TestUniverseDerivation:
    """The fault universe is a per-sweep input, not a per-shard cost."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        import repro.sim.campaign as campaign

        calls = []
        real = campaign.fault_universe

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign, "fault_universe", counting)
        return calls

    def test_once_per_in_memory_sweep(self, bundle, derivations):
        fpva, vectors = bundle
        run_sweep(
            fpva, vectors, fault_counts=(1, 2), trials=60, seed=3,
            shard_trials=15,
        )
        assert len(derivations) == 1  # 8 shards

    def test_once_per_in_memory_sweep_with_scenario(self, bundle, monkeypatch):
        from repro.engine.scenarios import MixedScenario

        fpva, vectors = bundle
        calls = []
        real = MixedScenario.universe

        def counting(self, fpva):
            calls.append(fpva)
            return real(self, fpva)

        monkeypatch.setattr(MixedScenario, "universe", counting)
        run_sweep(
            fpva, vectors, fault_counts=(1, 2), trials=40, seed=3,
            shard_trials=10, scenario=get_scenario("mixed"),
        )
        assert len(calls) == 1  # 8 shards

    @pytest.mark.parametrize("scenario_name", [None, "mixed"])
    def test_shared_universe_is_immutable(self, bundle, scenario_name):
        """Every shard draws from the one derived universe, so none may
        change it for the next: a scenario's list comes back a tuple."""
        from repro.sim.campaign import campaign_universe

        fpva, _ = bundle
        scenario = get_scenario(scenario_name) if scenario_name else None
        universe = campaign_universe(fpva, scenario)
        assert isinstance(universe, tuple) and universe

    def test_once_per_shard_worker(self, bundle, tmp_path, derivations):
        from repro.fabric import CampaignJournal, CampaignSpec, ShardWorker

        fpva, vectors = bundle
        spec = CampaignSpec(
            fpva=fpva, vectors=tuple(vectors), fault_counts=(1, 2),
            trials=60, seed=3, shard_trials=15,
        )
        journal = CampaignJournal(tmp_path / "j")
        journal.ensure(spec)
        worker = ShardWorker(journal, spec, spec.shards())
        assert worker.drain() == 8
        assert len(derivations) == 1
        # A journaled sweep drains through one worker, so one derivation.
        run_sweep(
            fpva, vectors, fault_counts=(1, 2), trials=60, seed=3,
            shard_trials=15, journal_dir=tmp_path / "sweep",
        )
        assert len(derivations) == 2

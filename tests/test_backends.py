"""The propagation-tier spine: both tiers pinned to the object reference.

* each tier (``tile``, the production tier, and ``word``, the reference
  tier) produces **bit identical** readings to the object-graph
  reference in ``tests/oracle.py``, across tile and chunk boundaries;
* a :class:`~repro.store.KernelStore`-persisted kernel warm-loads and
  replays identical readings under either tier (artifacts are
  backend-agnostic);
* production kernels propagate through ``tile``; only an assignment,
  ``kernel.backend = WordBackend(kernel)``, attaches ``word``, and a
  session adopting such a kernel keeps it.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

import oracle
from repro.context import ExecutionContext
from repro.fpva import table1_layout
from repro.sim.backends import (
    TileBackend,
    WordBackend,
    availability,
    default_backend,
)
from repro.sim.kernel import BatchEvaluator, ReachabilityKernel


def _kernel_on(fpva, tier):
    """A fresh kernel propagating through ``tier``."""
    kernel = ReachabilityKernel(fpva)
    kernel.backend = tier(kernel)
    return kernel


def _random_scenarios(kernel, rng, count):
    """(open_mask, blocked_mask) pairs spanning sparse and dense patterns."""
    out = []
    for _ in range(count):
        density = rng.choice((0.1, 0.5, 0.9))
        open_mask = sum(
            1 << i for i in range(kernel.n_valves) if rng.random() < density
        )
        blocked_mask = sum(
            1 << i for i in range(kernel.n_edges) if rng.random() < 0.15
        )
        out.append((open_mask, blocked_mask))
    # Edge words: all-closed and all-open scenarios.
    out.append((0, 0))
    out.append(((1 << kernel.n_valves) - 1, 0))
    return out


@pytest.fixture(scope="module")
def fpva():
    return table1_layout(5)


@pytest.fixture(scope="module")
def reference(fpva):
    """Object-engine readings for a fixed scenario set (the ground truth)."""
    kernel = ReachabilityKernel(fpva)
    scenarios = _random_scenarios(kernel, random.Random(7), 150)
    sim = oracle.ObjectSimulator(fpva)
    valve_order = list(kernel.valve_index)
    edge_order = list(kernel.edge_index)
    rows = []
    for open_mask, blocked_mask in scenarios:
        opened = frozenset(
            v for i, v in enumerate(valve_order) if (open_mask >> i) & 1
        )
        blocked = frozenset(
            e for i, e in enumerate(edge_order) if (blocked_mask >> i) & 1
        )
        readings = sim.meter_readings(opened, blocked=blocked)
        rows.append([readings[name] for name in kernel.sink_names])
    return scenarios, np.array(rows, dtype=bool)


@pytest.mark.parametrize(
    "tier", [WordBackend, TileBackend], ids=lambda tier: tier.name
)
class TestBackendEquivalence:
    """Tentpole spine: every tier bit-identical to the object engine."""

    def test_batched_matches_object_reference(self, fpva, reference, tier):
        scenarios, expected = reference
        kernel = _kernel_on(fpva, tier)
        got = kernel.batch_readings(scenarios)
        assert got.dtype == bool and got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_scalar_matches_object_reference(self, fpva, reference, tier):
        scenarios, expected = reference
        kernel = _kernel_on(fpva, tier)
        for (open_mask, blocked_mask), row in zip(scenarios[:40], expected):
            readings = kernel.readings(open_mask, blocked_mask)
            assert [readings[s] for s in kernel.sink_names] == list(row)

    def test_reach_matches_scalar_reference(self, fpva, tier):
        kernel = _kernel_on(fpva, tier)
        sim = oracle.ObjectSimulator(fpva)
        valve_order = list(kernel.valve_index)
        edge_order = list(kernel.edge_index)
        rng = random.Random(11)
        for open_mask, blocked_mask in _random_scenarios(kernel, rng, 20):
            opened = frozenset(
                v for i, v in enumerate(valve_order) if (open_mask >> i) & 1
            )
            blocked = frozenset(
                e for i, e in enumerate(edge_order) if (blocked_mask >> i) & 1
            )
            reached = kernel.reach(open_mask, blocked_mask)
            assert {
                node for node, hit in zip(kernel.nodes, reached) if hit
            } == sim.pressurized_nodes(opened, blocked=blocked)

    def test_odd_batch_widths(self, fpva, tier):
        """Non-multiple-of-64 batches exercise the padded tail word; 2,048
        scenarios fill one 32-word pass exactly, 2,049 and 2,113 cross the
        kernel's 2,048-scenario chunk, and 4,097 takes three passes."""
        kernel = _kernel_on(fpva, tier)
        ref_kernel = _kernel_on(fpva, WordBackend)
        rng = random.Random(3)
        for size in (1, 63, 64, 65, 130, 2048, 2049, 2113, 4097):
            scenarios = _random_scenarios(kernel, rng, size)[:size]
            assert np.array_equal(
                kernel.batch_readings(scenarios),
                ref_kernel.batch_readings(scenarios),
            )

    def test_warm_start_roundtrip(self, fpva, reference, tier, tmp_path):
        """Acceptance: a persisted kernel loads into any tier identically."""
        scenarios, expected = reference
        seed_ctx = ExecutionContext(fpva, store=tmp_path)
        seed_ctx.kernel  # cold compile persists the artifact
        assert seed_ctx.kernel_compiles == 1
        ctx = ExecutionContext(fpva, store=tmp_path)
        kernel = ctx.kernel
        kernel.backend = tier(kernel)
        assert ctx.kernel_loads == 1 and ctx.kernel_compiles == 0
        assert np.array_equal(kernel.batch_readings(scenarios), expected)

    def test_pickle_roundtrip(self, fpva, tier):
        """Shard payloads carry the backend; readings survive the trip."""
        kernel = _kernel_on(fpva, tier)
        scenarios = _random_scenarios(kernel, random.Random(5), 40)
        expected = kernel.batch_readings(scenarios)
        clone = pickle.loads(pickle.dumps(kernel))
        assert isinstance(clone.backend, tier)
        assert np.array_equal(clone.batch_readings(scenarios), expected)


class TestRegistry:
    def test_always_available_tiers(self):
        assert availability() == {"word": None, "tile": None}

    def test_production_kernels_propagate_through_tile(self, fpva):
        assert default_backend() == "tile"
        assert isinstance(ReachabilityKernel(fpva).backend, TileBackend)
        assert isinstance(ExecutionContext(fpva).kernel.backend, TileBackend)
        # A session adopting a kernel keeps the tier that kernel carries.
        word = _kernel_on(fpva, WordBackend)
        adopted = ExecutionContext(fpva, kernel=word).kernel
        assert adopted is word and isinstance(adopted.backend, WordBackend)


class TestBackendObjects:
    def test_tile_plan_compiles_once(self, fpva):
        kernel = ReachabilityKernel(fpva)
        kernel.batch_readings([(0, 0), (1, 0)])
        tier, plan = kernel.backend, kernel.backend.plan
        # 5,000 scenarios cross the 2,048-scenario chunk twice.
        kernel.batch_readings([(3, 0)] * 5000)
        assert kernel.backend is tier and tier.plan is plan

    def test_class_patch_reaches_an_existing_tier(self, fpva, monkeypatch):
        """A probe wrapping ``TileBackend.reach_words`` on the class, as
        ``perfbench/tracing.py`` does, sees the flushes of a kernel whose
        tier was built before the patch."""
        kernel = ReachabilityKernel(fpva)
        kernel.batch_readings([(0, 0)])
        original = TileBackend.reach_words
        widths = []

        def probe(self, valve_words, blocked_words):
            widths.append(valve_words.shape[1])
            return original(self, valve_words, blocked_words)

        monkeypatch.setattr(TileBackend, "reach_words", probe)
        scenarios = _random_scenarios(kernel, random.Random(9), 100)
        evaluator = BatchEvaluator(kernel, [])
        slots = [evaluator.slot(*scenario) for scenario in scenarios]
        evaluator.flush()
        assert widths == [(evaluator.distinct_scenarios + 63) // 64]
        for (open_mask, blocked_mask), slot in zip(scenarios, slots):
            readings = kernel.readings(open_mask, blocked_mask)
            assert evaluator.observed_row(slot) == tuple(
                readings[name] for name in kernel.sink_names
            )

"""The backend-registry spine: both tiers pinned to the object reference.

* each registered backend (``tile``, the production tier, and ``word``,
  the reference tier) produces **bit identical** readings to the
  object-graph reference in ``tests/oracle.py``;
* a :class:`~repro.store.KernelStore`-persisted kernel warm-loads and
  replays identical readings under either tier (artifacts are
  backend-agnostic);
* production kernels propagate through ``tile``; only an explicit
  :meth:`~repro.sim.kernel.ReachabilityKernel.set_backend` attaches
  ``word``, and a session adopting such a kernel keeps it.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

import oracle
from repro.context import ExecutionContext
from repro.fpva import full_layout, table1_layout
from repro.sim.backends import (
    KernelBackend,
    availability,
    backend_names,
    create,
    default_backend,
    pick_tile_words,
)
from repro.sim.kernel import ReachabilityKernel


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


@pytest.mark.parametrize("name", backend_names())
class TestBackendEquivalence:
    """Tentpole spine: every tier bit-identical to the object engine."""

    def test_batched_matches_object_reference(self, fpva, reference, name):
        scenarios, expected = reference
        kernel = ReachabilityKernel(fpva).set_backend(name)
        got = kernel.batch_readings(scenarios)
        assert got.dtype == bool and got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_scalar_matches_object_reference(self, fpva, reference, name):
        scenarios, expected = reference
        kernel = ReachabilityKernel(fpva).set_backend(name)
        for (open_mask, blocked_mask), row in zip(scenarios[:40], expected):
            readings = kernel.readings(open_mask, blocked_mask)
            assert [readings[s] for s in kernel.sink_names] == list(row)

    def test_reach_matches_scalar_reference(self, fpva, name):
        kernel = ReachabilityKernel(fpva).set_backend(name)
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

    def test_odd_batch_widths(self, fpva, name):
        """Non-multiple-of-64 batches exercise the padded tail word."""
        kernel = ReachabilityKernel(fpva).set_backend(name)
        ref_kernel = ReachabilityKernel(fpva).set_backend("word")
        rng = random.Random(3)
        for size in (1, 63, 64, 65, 130):
            scenarios = _random_scenarios(kernel, rng, size)[:size]
            assert np.array_equal(
                kernel.batch_readings(scenarios),
                ref_kernel.batch_readings(scenarios),
            )

    def test_warm_start_roundtrip(self, fpva, reference, name, tmp_path):
        """Acceptance: a persisted kernel loads into any tier identically."""
        scenarios, expected = reference
        seed_ctx = ExecutionContext(fpva, cache_dir=tmp_path)
        seed_ctx.kernel  # cold compile persists the artifact
        assert seed_ctx.kernel_compiles == 1
        ctx = ExecutionContext(fpva, cache_dir=tmp_path)
        kernel = ctx.kernel.set_backend(name)
        assert ctx.kernel_loads == 1 and ctx.kernel_compiles == 0
        assert kernel.backend.name == name
        assert np.array_equal(kernel.batch_readings(scenarios), expected)

    def test_pickle_roundtrip(self, fpva, name):
        """Shard payloads carry the backend; readings survive the trip."""
        kernel = ReachabilityKernel(fpva).set_backend(name)
        scenarios = _random_scenarios(kernel, random.Random(5), 40)
        expected = kernel.batch_readings(scenarios)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.backend.name == name
        assert np.array_equal(clone.batch_readings(scenarios), expected)


class TestRegistry:
    def test_registry_names_and_alias(self, fpva):
        assert backend_names() == ("word", "tile")
        kernel = ReachabilityKernel(fpva)
        # "kernel" (an alias before sessions existed) is not a tier name.
        for name in ("kernel", "warp"):
            with pytest.raises(ValueError, match="unknown kernel backend"):
                kernel.set_backend(name)

    def test_always_available_tiers(self):
        status = availability()
        assert status["word"] is None and status["tile"] is None

    def test_production_kernels_propagate_through_tile(self, fpva):
        assert default_backend() == "tile"
        assert ReachabilityKernel(fpva).backend.name == "tile"
        assert ExecutionContext(fpva).kernel.backend.name == "tile"
        # A session adopting a kernel keeps the tier that kernel carries.
        word = ReachabilityKernel(fpva).set_backend("word")
        adopted = ExecutionContext(fpva, kernel=word).kernel
        assert adopted is word and adopted.backend.name == "word"

    def test_set_backend_same_name_is_noop(self, fpva):
        kernel = ReachabilityKernel(fpva).set_backend("tile")
        attached = kernel.backend
        assert kernel.set_backend("tile").backend is attached

    def test_set_backend_rejects_foreign_instances(self, fpva):
        kernel = ReachabilityKernel(fpva)
        other = ReachabilityKernel(full_layout(3, 3))
        with pytest.raises(ValueError, match="different kernel"):
            kernel.set_backend(create("word", other))
        with pytest.raises(TypeError, match="registry name"):
            kernel.set_backend(42)

    def test_pick_tile_words(self):
        # Small batches fit one tile exactly; huge batches cap at 32 words.
        assert pick_tile_words(1) == 1
        assert pick_tile_words(64) == 1
        assert pick_tile_words(65) == 2
        assert pick_tile_words(256) == 4
        assert pick_tile_words(257) == 5
        assert pick_tile_words(1024) == 16
        assert pick_tile_words(4096) == 32
        assert pick_tile_words(10**6) == 32


class TestBackendObjects:
    def test_describe_and_repr(self, fpva):
        kernel = ReachabilityKernel(fpva)
        backend = create("tile", kernel)
        assert "tile" in backend.describe()
        assert fpva.name in repr(backend)
        assert isinstance(backend, KernelBackend)

    def test_base_reach_words_is_abstract(self, fpva):
        kernel = ReachabilityKernel(fpva)
        with pytest.raises(NotImplementedError):
            KernelBackend(kernel).reach_words(
                np.zeros((kernel.n_valves, 1), dtype=np.uint64), None, 1
            )

    def test_tile_plan_compiles_once(self, fpva):
        kernel = ReachabilityKernel(fpva).set_backend("tile")
        kernel.batch_readings([(0, 0), (1, 0)])
        plan = kernel.backend.plan
        kernel.batch_readings([(3, 0)] * 70, tile_words=1)
        assert kernel.backend.plan is plan

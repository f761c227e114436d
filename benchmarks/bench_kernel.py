"""Compiled bitmask kernel vs the pure-Python reference, and backend tiers.

Acceptance measurements, each asserting exact result equality before
comparing wall-clock:

* **dictionary build** — the 8x8 ``max_cardinality=2`` stuck-at dictionary
  (~25k fault sets x full suite), the pure-Python object-graph engine of
  ``tests/oracle.py`` one chip at a time vs the canonicalize-dedup-batch
  kernel path.  Floor: >=5x.
* **campaign throughput** — full-suite application over hundreds of random
  double-fault chips, object-engine ``Tester.run`` per chip (the oracle's
  tester) vs one batched kernel evaluation (compile included).
  Floor: >=3x.
* **backend tiers** — the 16x16 (and, under ``REPRO_BENCH_FULL=1``, 20x20)
  card-2 dictionary build under the ``word`` reference tier and the
  ``tile`` production tier, tables asserted identical.  Floor: tile >=
  1.5x over the single-word sweep (1.3x in smoke mode).
* **scalar micro-benchmark** — the single-query BFS (adaptive
  diagnosis's cost profile), checked against the object-graph reference
  on its first 100 masks and pinned at an absolute queries/s floor.

Results are also written to ``BENCH_kernel.json`` (override with
``REPRO_BENCH_JSON``) so the perf trajectory is tracked across PRs;
``REPRO_BENCH_SMOKE=1`` shrinks the configuration for the CI smoke step.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks.conftest import BENCH_JSON, FULL, SMOKE, pedantic_once, record
from repro.context import ExecutionContext
from repro.core import generate_suite
from repro.engine import get_scenario
from repro.fpva import full_layout
from repro.sim import (
    BatchEvaluator,
    ChipUnderTest,
    FaultDictionary,
    ReachabilityKernel,
    Tester,
)
from repro.sim.backends import TileBackend, WordBackend
from repro.sim.faults import stuck_at_faults
from tests import oracle

SIZE = 6 if SMOKE else 8
DICT_MIN_SPEEDUP = 3.0 if SMOKE else 5.0
CAMPAIGN_MIN_SPEEDUP = 2.0 if SMOKE else 3.0
CAMPAIGN_TRIALS = 80 if SMOKE else 300

#: Backend-tier bench: arrays large enough that the word sweep's diameter
#: term dominates (the regime the tile backend removes).  20x20 joins
#: under REPRO_BENCH_FULL=1.
BACKEND_SIZES = (16, 20) if FULL else (16,)
BACKEND_SAMPLE = 60 if SMOKE else 150
TILE_MIN_SPEEDUP = 1.3 if SMOKE else 1.5

#: Scalar pin: ~30ms per rep, so the query count stays fixed even in
#: smoke mode — fewer queries only adds timing noise, not speed.
SCALAR_QUERIES = 2000
SCALAR_MIN_QPS = 20_000.0

#: Run configuration stamped into every section written to the bench JSON.
CONFIG = {"size": SIZE, "smoke": SMOKE, "backend_sizes": list(BACKEND_SIZES)}


def _bench_dictionary(fpva, vectors, universe):
    t0 = time.perf_counter()
    legacy = oracle.ReferenceDictionary(
        fpva, vectors, universe=universe, max_cardinality=2
    )
    t_legacy = time.perf_counter() - t0
    t0 = time.perf_counter()
    kernel = FaultDictionary(
        fpva,
        vectors,
        universe=universe,
        max_cardinality=2,
        context=ExecutionContext(fpva),
    )
    t_kernel = time.perf_counter() - t0
    assert list(kernel._table.items()) == list(legacy._table.items())
    assert kernel.resolution() == legacy.resolution()
    return {
        "fault_sets": sum(len(v) for v in legacy._table.values()),
        "distinct_syndromes": legacy.distinct_syndromes,
        "legacy_seconds": t_legacy,
        "kernel_seconds": t_kernel,
        "speedup": t_legacy / t_kernel,
    }


def test_dictionary_build_speedup(benchmark, capsys):
    """Acceptance: >=5x on the 8x8 double-fault dictionary build."""
    fpva = full_layout(SIZE, SIZE, name=f"kernel-bench-{SIZE}x{SIZE}")
    vectors = generate_suite(fpva).all_vectors()
    universe = stuck_at_faults(fpva)
    stats = pedantic_once(benchmark, _bench_dictionary, fpva, vectors, universe)
    benchmark.extra_info.update(stats)
    record(BENCH_JSON, f"dictionary_build_{SIZE}x{SIZE}_card2", stats, CONFIG)
    with capsys.disabled():
        print(
            f"\n{SIZE}x{SIZE} card-2 dictionary ({stats['fault_sets']} fault "
            f"sets, {len(vectors)} vectors): legacy "
            f"{stats['legacy_seconds']:.2f}s vs kernel "
            f"{stats['kernel_seconds']:.2f}s -> {stats['speedup']:.1f}x"
        )
    assert stats["speedup"] >= DICT_MIN_SPEEDUP, stats


def _bench_campaign(fpva, vectors, trials):
    scenario = get_scenario("stuck-at")
    universe = scenario.universe(fpva)
    rng = random.Random(0)
    chips = [scenario.sample(universe, rng, 2) for _ in range(trials)]
    legacy_tester = oracle.object_tester(fpva)  # pure-Python reference

    t0 = time.perf_counter()
    legacy_syndromes = [
        legacy_tester.run(ChipUnderTest(fpva, faults), vectors).syndrome()
        for faults in chips
    ]
    t_legacy = time.perf_counter() - t0

    t0 = time.perf_counter()  # kernel compile is part of the batched cost
    evaluator = BatchEvaluator(Tester(fpva).kernel, vectors)
    position = {fault: i for i, fault in enumerate(universe)}
    rows = evaluator.slot_rows(
        universe, [[position[f] for f in faults] for faults in chips]
    )
    evaluator.flush()
    kernel_syndromes = [
        evaluator.syndrome(pattern) for pattern in evaluator.patterns(rows).tolist()
    ]
    t_kernel = time.perf_counter() - t0

    assert kernel_syndromes == legacy_syndromes
    return {
        "trials": trials,
        "vectors": len(vectors),
        "distinct_scenarios": evaluator.distinct_scenarios,
        "legacy_seconds": t_legacy,
        "kernel_seconds": t_kernel,
        "speedup": t_legacy / t_kernel,
        "legacy_chips_per_second": trials / t_legacy,
        "kernel_chips_per_second": trials / t_kernel,
    }


def test_campaign_throughput_speedup(benchmark, capsys):
    """Acceptance: >=3x full-suite campaign throughput."""
    fpva = full_layout(SIZE, SIZE, name=f"kernel-bench-{SIZE}x{SIZE}")
    vectors = generate_suite(fpva).all_vectors()
    stats = pedantic_once(benchmark, _bench_campaign, fpva, vectors, CAMPAIGN_TRIALS)
    benchmark.extra_info.update(stats)
    record(
        BENCH_JSON, f"campaign_full_suite_throughput_{SIZE}x{SIZE}", stats, CONFIG
    )
    with capsys.disabled():
        print(
            f"\n{SIZE}x{SIZE} full-suite campaign ({stats['trials']} chips x "
            f"{stats['vectors']} vectors, {stats['distinct_scenarios']} "
            f"distinct states): legacy {stats['legacy_chips_per_second']:.0f} "
            f"chips/s vs kernel {stats['kernel_chips_per_second']:.0f} "
            f"chips/s -> {stats['speedup']:.1f}x"
        )
    assert stats["speedup"] >= CAMPAIGN_MIN_SPEEDUP, stats


def _bench_backend_tiers(fpva, vectors, sample):
    """Card-2 dictionary build per backend tier; tables must agree.

    Each tier gets its own kernel compile, is assigned as that kernel's
    ``backend`` and runs under a fresh session adopting that kernel,
    all inside the timed region — so it covers exactly what the tier
    pays, including the tile backend's elimination-plan compile.
    """
    stats: dict = {}
    tables = {}
    for tier in (WordBackend, TileBackend):
        name = tier.name
        t0 = time.perf_counter()
        kernel = ReachabilityKernel(fpva)
        kernel.backend = tier(kernel)
        built = FaultDictionary(
            fpva,
            vectors,
            universe=sample,
            max_cardinality=2,
            context=ExecutionContext(fpva, kernel=kernel),
        )
        seconds = time.perf_counter() - t0
        tables[name] = list(built._table.items())
        stats[name] = {
            "seconds": seconds,
            "fault_sets": sum(len(v) for v in built._table.values()),
        }
    for name, table in tables.items():
        assert table == tables["word"], f"backend {name!r} diverges from word"
    stats["tile_speedup_vs_word"] = (
        stats["word"]["seconds"] / stats["tile"]["seconds"]
    )
    return stats


@pytest.mark.parametrize("size", BACKEND_SIZES)
def test_backend_tier_floors(benchmark, capsys, size):
    """Acceptance: tile >=1.5x over the word sweep on the card-2 build."""
    fpva = full_layout(size, size, name=f"backend-bench-{size}x{size}")
    vectors = generate_suite(fpva).all_vectors()
    universe = stuck_at_faults(fpva)
    sample = random.Random(42).sample(
        universe, min(BACKEND_SAMPLE, len(universe))
    )
    stats = pedantic_once(benchmark, _bench_backend_tiers, fpva, vectors, sample)
    benchmark.extra_info.update(stats)
    record(BENCH_JSON, f"backend_tiers_{size}x{size}_card2", stats, CONFIG)
    with capsys.disabled():
        per_tier = ", ".join(
            f"{name} {tier['seconds']:.2f}s"
            for name, tier in stats.items()
            if isinstance(tier, dict)
        )
        print(
            f"\n{size}x{size} card-2 backend tiers ({len(sample)} faults x "
            f"{len(vectors)} vectors): {per_tier} -> tile "
            f"{stats['tile_speedup_vs_word']:.2f}x over word"
        )
    assert stats["tile_speedup_vs_word"] >= TILE_MIN_SPEEDUP, stats


def _bench_scalar_readings(kernel, masks):
    reference = oracle.ObjectSimulator(kernel.fpva)
    valves = list(kernel.valve_index)
    for mask in masks[:100]:  # exactness before wall-clock, as everywhere
        opened = [v for i, v in enumerate(valves) if (mask >> i) & 1]
        assert kernel.readings(mask) == reference.meter_readings(opened)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for mask in masks:
            kernel.readings(mask)
        best = min(best, time.perf_counter() - t0)
    return {"queries": len(masks), "queries_per_second": len(masks) / best}


def test_scalar_readings_microbench(benchmark, capsys):
    """Pin: the scalar path stays exact and fast.

    An absolute queries/s floor with ~5x headroom catches an accidental
    reroute through the batched numpy path outright.
    """
    fpva = full_layout(8, 8, name="scalar-bench-8x8")
    kernel = ReachabilityKernel(fpva)
    rng = random.Random(1)
    masks = [rng.getrandbits(kernel.n_valves) for _ in range(SCALAR_QUERIES)]
    stats = pedantic_once(benchmark, _bench_scalar_readings, kernel, masks)
    benchmark.extra_info.update(stats)
    record(BENCH_JSON, "scalar_readings_8x8", stats, CONFIG)
    with capsys.disabled():
        print(f"\n8x8 scalar readings: {stats['queries_per_second']:.0f} q/s")
    assert stats["queries_per_second"] >= SCALAR_MIN_QPS, stats

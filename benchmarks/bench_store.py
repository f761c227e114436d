"""Persistent artifact store: warm starts and streaming double-fault builds.

Two acceptance measurements for the ``repro.store`` subsystem:

* **warm-start** — building the 8x8 ``max_cardinality=2`` stuck-at
  dictionary cold (simulate + persist) vs re-constructing it from the
  store (no simulation).  Floor: the warm load must be **>=20x** faster,
  with bit-identical tables and diagnosis reports.
* **streaming scale-up** — the 10x10 double-fault dictionary (~65k fault
  sets), infeasible to rebuild per invocation before the store existed,
  built through the chunked streaming path (timed untraced), rebuilt into
  a fresh store under a ``tracemalloc`` peak budget, then warm-loaded.
* **incremental append** — one vector added to an already-published
  suite must delta-build bit-identically while simulating **>=10x**
  fewer scenarios than the cold rebuild (only the new column is
  simulated); wall-clock must clear a 5x floor.
* **incremental promotion** — raising ``max_cardinality`` 2->3 reuses
  every stored row and simulates only the triple tier; floor is on the
  deterministic scenario counts, with wall-clock recorded for the
  trajectory.

Results are written to ``BENCH_store.json`` (override with
``REPRO_BENCH_STORE_JSON``) so the warm/cold trajectory is tracked across
PRs; ``REPRO_BENCH_SMOKE=1`` shrinks both configurations for the CI smoke
step.
"""

from __future__ import annotations

import os
import random
import shutil
import time
import tracemalloc

from benchmarks.conftest import SMOKE, pedantic_once, record
from repro.core import generate_suite
from repro.fpva import full_layout
from repro.sim import ChipUnderTest, FaultDictionary
from repro.sim.faults import stuck_at_faults
from repro.store import ArtifactStore

BENCH_JSON = os.environ.get("REPRO_BENCH_STORE_JSON", "BENCH_store.json")

SIZE = 6 if SMOKE else 8
WARM_MIN_SPEEDUP = 8.0 if SMOKE else 20.0
STREAM_SIZE = 7 if SMOKE else 10
#: Peak tracemalloc budget for the streaming build.  The 10x10 build peaks
#: well under 256 MB (~180 MB measured); the budget flags any regression
#: back toward materializing the quadratic fault-set universe.
STREAM_PEAK_BUDGET_MB = 64 if SMOKE else 512
STREAM_CHUNK = 4096
#: Appending one vector re-simulates one column instead of the whole
#: suite.  The hard >=10x guarantee sits on the *scenario-count* ratio
#: below — deterministic, machine-independent, measured ~29x at 10x10 —
#: because the wall-clock ratio is capped by what the delta cannot skip:
#: both builds judge their sets on arrays, but the delta still reads the
#: ancestor's syndromes, rebuilds the ~65k table tuples, republishes the
#: artifact and pays one full garbage collection, which the cold build
#: spreads over 29x more simulation.  Measured 5.2x (cold 1.56s, delta
#: 0.30s) on a 2-core container, 7-9x before the cold build moved onto
#: arrays; the 5x wall floor is unchanged.
INC_APPEND_MIN_SPEEDUP = 1.5 if SMOKE else 5.0
#: Scenario counts are deterministic, so the simulation-avoidance floor
#: holds at every scale even where wall-clock is overhead-bound.
INC_APPEND_MIN_SCENARIO_RATIO = 10.0
#: Universe slice for the cardinality-3 promotion bench — the full
#: stuck-at universe's triple tier is combinatorially out of reach.
PROMOTE_UNIVERSE = 24 if SMOKE else 36

#: Run configuration stamped into every section written to the bench JSON.
CONFIG = {"size": SIZE, "stream_size": STREAM_SIZE, "smoke": SMOKE}


def _bench_warm_start(fpva, vectors, universe, store):
    t0 = time.perf_counter()
    cold = FaultDictionary(
        fpva, vectors, universe=universe, max_cardinality=2, store=store
    )
    t_cold = time.perf_counter() - t0
    # Warm starts are the *repeated* path; best-of-3 keeps the one-off
    # first-touch costs (page cache, importer state) out of the floor.
    t_warm = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        warm = FaultDictionary(
            fpva, vectors, universe=universe, max_cardinality=2, store=store
        )
        t_warm = min(t_warm, time.perf_counter() - t0)

    assert cold.build_stats["mode"] == "cold"
    assert warm.build_stats["mode"] == "warm"
    assert list(warm._table.items()) == list(cold._table.items())
    rng = random.Random(0)
    for _ in range(10):
        chip = ChipUnderTest(fpva, (rng.choice(universe),))
        assert warm.diagnose_chip(chip) == cold.diagnose_chip(chip)

    return {
        "fault_sets": cold.total_fault_sets,
        "distinct_syndromes": cold.distinct_syndromes,
        "cold_build_seconds": t_cold,
        "warm_load_seconds": t_warm,
        "speedup": t_cold / t_warm,
    }


def test_warm_start_speedup(benchmark, tmp_path, capsys):
    """Acceptance: warm-start dictionary load >=20x faster than cold build."""
    fpva = full_layout(SIZE, SIZE, name=f"store-bench-{SIZE}x{SIZE}")
    vectors = generate_suite(fpva).all_vectors()
    universe = stuck_at_faults(fpva)
    store = ArtifactStore(tmp_path)
    stats = pedantic_once(
        benchmark, _bench_warm_start, fpva, vectors, universe, store
    )
    benchmark.extra_info.update(stats)
    record(BENCH_JSON, f"warm_start_{SIZE}x{SIZE}_card2", stats, CONFIG)
    with capsys.disabled():
        print(
            f"\n{SIZE}x{SIZE} card-2 dictionary ({stats['fault_sets']} fault "
            f"sets): cold {stats['cold_build_seconds']:.2f}s vs warm "
            f"{stats['warm_load_seconds'] * 1000:.0f}ms -> "
            f"{stats['speedup']:.0f}x"
        )
    assert stats["speedup"] >= WARM_MIN_SPEEDUP, stats


def _bench_streaming(fpva, vectors, universe, root):
    def build(store):
        return FaultDictionary(
            fpva,
            vectors,
            universe=universe,
            max_cardinality=2,
            store=store,
            chunk_size=STREAM_CHUNK,
        )

    store = ArtifactStore(root / "timed")
    t0 = time.perf_counter()
    cold = build(store)
    t_cold = time.perf_counter() - t0
    # Tracing slows the build several-fold, so the peak is measured on a
    # second cold build into a fresh store, never on the timed one.
    tracemalloc.start()
    try:
        traced = build(ArtifactStore(root / "traced"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced.build_stats["mode"] == "cold", traced.build_stats

    t0 = time.perf_counter()
    warm = FaultDictionary(
        fpva, vectors, universe=universe, max_cardinality=2, store=store
    )
    t_warm = time.perf_counter() - t0
    assert warm.build_stats["mode"] == "warm"
    assert list(warm._table.items()) == list(cold._table.items())

    artifact = store.dictionaries.path_for(cold.digest)
    disk_bytes = sum(f.stat().st_size for f in artifact.iterdir())
    return {
        "universe": len(universe),
        "fault_sets": cold.total_fault_sets,
        "distinct_syndromes": cold.distinct_syndromes,
        "vectors": len(vectors),
        "chunk_size": STREAM_CHUNK,
        "chunks": store.dictionaries.meta(cold.digest)["chunks"],
        "cold_build_seconds": t_cold,
        "warm_load_seconds": t_warm,
        "peak_memory_mb": peak / 1e6,
        "artifact_kb": disk_bytes / 1024,
    }


def test_streaming_double_fault_scale_up(benchmark, tmp_path, capsys):
    """Acceptance: the 10x10 double-fault dictionary builds through the
    streaming path inside a fixed memory budget (and then warm-loads)."""
    fpva = full_layout(
        STREAM_SIZE, STREAM_SIZE, name=f"store-stream-{STREAM_SIZE}"
    )
    vectors = generate_suite(fpva).all_vectors()
    universe = stuck_at_faults(fpva)
    stats = pedantic_once(
        benchmark, _bench_streaming, fpva, vectors, universe, tmp_path
    )
    benchmark.extra_info.update(stats)
    record(
        BENCH_JSON,
        f"streaming_build_{STREAM_SIZE}x{STREAM_SIZE}_card2",
        stats,
        CONFIG,
    )
    with capsys.disabled():
        print(
            f"\n{STREAM_SIZE}x{STREAM_SIZE} card-2 streaming build "
            f"({stats['fault_sets']} fault sets, {stats['chunks']} chunks): "
            f"{stats['cold_build_seconds']:.1f}s at "
            f"{stats['peak_memory_mb']:.0f}MB peak, warm reload "
            f"{stats['warm_load_seconds'] * 1000:.0f}ms, artifact "
            f"{stats['artifact_kb']:.0f}KB"
        )
    assert stats["peak_memory_mb"] <= STREAM_PEAK_BUDGET_MB, stats
    assert stats["warm_load_seconds"] < stats["cold_build_seconds"], stats


def _bench_incremental_append(fpva, vectors, universe, root):
    cold_store = ArtifactStore(root / "cold")
    t0 = time.perf_counter()
    cold = FaultDictionary(
        fpva,
        vectors,
        universe=universe,
        max_cardinality=2,
        store=cold_store,
    )
    t_cold = time.perf_counter() - t0
    assert cold.build_stats["mode"] == "cold", cold.build_stats

    inc_store = ArtifactStore(root / "inc")
    ancestor = FaultDictionary(
        fpva,
        vectors[:-1],
        universe=universe,
        max_cardinality=2,
        store=inc_store,
    )
    assert ancestor.build_stats["mode"] == "cold", ancestor.build_stats
    # Best-of-2, like the warm-start floor: un-publish the target between
    # attempts (the ancestor stays) so both runs take the delta path.
    t_delta = float("inf")
    for attempt in range(2):
        if attempt:
            shutil.rmtree(inc_store.dictionaries.path_for(delta.digest))
        t0 = time.perf_counter()
        delta = FaultDictionary(
            fpva,
            vectors,
            universe=universe,
            max_cardinality=2,
            store=inc_store,
        )
        t_delta = min(t_delta, time.perf_counter() - t0)
        assert delta.build_stats["mode"] == "delta", delta.build_stats
    assert delta.build_stats["new_vectors"] == 1
    assert list(delta._table.items()) == list(cold._table.items())

    return {
        "fault_sets": cold.total_fault_sets,
        "vectors": len(vectors),
        "cold_build_seconds": t_cold,
        "delta_build_seconds": t_delta,
        "speedup": t_cold / t_delta,
        "cold_scenarios": cold.build_stats["simulated_scenarios"],
        "delta_scenarios": delta.build_stats["simulated_scenarios"],
        "scenario_ratio": (
            cold.build_stats["simulated_scenarios"]
            / delta.build_stats["simulated_scenarios"]
        ),
        "floor_scenario_ratio": INC_APPEND_MIN_SCENARIO_RATIO,
        "floor_speedup": INC_APPEND_MIN_SPEEDUP,
        "reused_sets": delta.build_stats["reused_sets"],
    }


def test_incremental_append_speedup(benchmark, tmp_path, capsys):
    """Acceptance: appending one vector to the published 10x10 card-2
    suite delta-builds bit-identically, simulating >=10x fewer scenarios
    than the cold rebuild and clearing the wall-clock floor."""
    fpva = full_layout(
        STREAM_SIZE, STREAM_SIZE, name=f"store-append-{STREAM_SIZE}"
    )
    vectors = generate_suite(fpva).all_vectors()
    universe = stuck_at_faults(fpva)
    stats = pedantic_once(
        benchmark, _bench_incremental_append, fpva, vectors, universe,
        tmp_path,
    )
    benchmark.extra_info.update(stats)
    record(
        BENCH_JSON,
        f"incremental_append_{STREAM_SIZE}x{STREAM_SIZE}_card2",
        stats,
        CONFIG,
    )
    with capsys.disabled():
        print(
            f"\n{STREAM_SIZE}x{STREAM_SIZE} card-2 append-one-vector: cold "
            f"{stats['cold_build_seconds']:.2f}s "
            f"({stats['cold_scenarios']} scenarios) vs delta "
            f"{stats['delta_build_seconds'] * 1000:.0f}ms "
            f"({stats['delta_scenarios']} scenarios) -> "
            f"{stats['speedup']:.1f}x wall, "
            f"{stats['scenario_ratio']:.0f}x fewer scenarios"
        )
    assert stats["speedup"] >= INC_APPEND_MIN_SPEEDUP, stats
    assert (
        stats["cold_scenarios"]
        >= INC_APPEND_MIN_SCENARIO_RATIO * stats["delta_scenarios"]
    ), stats


def _bench_incremental_promotion(fpva, vectors, universe, root):
    cold_store = ArtifactStore(root / "cold")
    t0 = time.perf_counter()
    cold = FaultDictionary(
        fpva,
        vectors,
        universe=universe,
        max_cardinality=3,
        store=cold_store,
    )
    t_cold = time.perf_counter() - t0
    assert cold.build_stats["mode"] == "cold", cold.build_stats

    inc_store = ArtifactStore(root / "inc")
    ancestor = FaultDictionary(
        fpva,
        vectors,
        universe=universe,
        max_cardinality=2,
        store=inc_store,
    )
    assert ancestor.build_stats["mode"] == "cold", ancestor.build_stats
    t0 = time.perf_counter()
    delta = FaultDictionary(
        fpva, vectors, universe=universe, max_cardinality=3, store=inc_store
    )
    t_delta = time.perf_counter() - t0

    assert delta.build_stats["mode"] == "delta", delta.build_stats
    assert delta.build_stats["reused_sets"] == ancestor.total_fault_sets
    assert list(delta._table.items()) == list(cold._table.items())

    return {
        "universe": len(universe),
        "fault_sets": cold.total_fault_sets,
        "reused_sets": delta.build_stats["reused_sets"],
        "promoted_sets": delta.build_stats["promoted_sets"],
        "cold_build_seconds": t_cold,
        "delta_build_seconds": t_delta,
        "speedup": t_cold / t_delta,
        "cold_scenarios": cold.build_stats["simulated_scenarios"],
        "delta_scenarios": delta.build_stats["simulated_scenarios"],
    }


def test_incremental_promotion_scenarios(benchmark, tmp_path, capsys):
    """Acceptance: promoting a stored card-2 dictionary to card-3 reuses
    every row and never simulates more scenarios than the cold build.

    The floor sits on the deterministic scenario counts rather than
    wall-clock: the triple tier dominates both builds, so the timing
    ratio is noise-bound, but the reuse accounting is exact.
    """
    fpva = full_layout(
        STREAM_SIZE, STREAM_SIZE, name=f"store-promote-{STREAM_SIZE}"
    )
    vectors = generate_suite(fpva).all_vectors()
    universe = stuck_at_faults(fpva)[:PROMOTE_UNIVERSE]
    stats = pedantic_once(
        benchmark, _bench_incremental_promotion, fpva, vectors, universe,
        tmp_path,
    )
    benchmark.extra_info.update(stats)
    record(
        BENCH_JSON,
        f"incremental_promotion_{STREAM_SIZE}x{STREAM_SIZE}_card3",
        stats,
        CONFIG,
    )
    with capsys.disabled():
        print(
            f"\n{STREAM_SIZE}x{STREAM_SIZE} card-3 promotion "
            f"({stats['reused_sets']} reused, {stats['promoted_sets']} "
            f"promoted): cold {stats['cold_build_seconds']:.1f}s vs delta "
            f"{stats['delta_build_seconds']:.1f}s -> "
            f"{stats['speedup']:.1f}x"
        )
    assert stats["delta_scenarios"] <= stats["cold_scenarios"], stats

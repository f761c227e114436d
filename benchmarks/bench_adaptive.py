"""Adaptive vs full-suite diagnosis — applied-vector counts and wall-clock.

The full-suite path applies all N generated vectors to every chip before
the dictionary lookup.  The adaptive engine schedules vectors by
information gain and stops at the full-suite verdict; this bench records
how many applications that actually takes, per scenario, on the 8x8
acceptance array and the Table I layouts.

**Sessions per second** — the array scheduler against the pure-Python
reference scheduler of ``tests/oracle.py`` on identical chips (one or two
stuck-at faults each) over a stuck-at dictionary, sessions asserted
identical before any time is compared.  Floors: >=7x at 8x8 card-2,
>=10x at 10x10 card-2 on a hierarchical suite (``REPRO_BENCH_FULL=1``
only); 8x8 card-1 is recorded without a floor.  ``REPRO_BENCH_SMOKE=1``
runs 5x5 card-2 alone, floored at >=2x.  Results are written to
``BENCH_adaptive.json`` (override with ``REPRO_BENCH_ADAPTIVE_JSON``).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks.conftest import FULL, SMOKE, TRIALS, pedantic_once, record
from repro.core import generate_suite
from repro.engine import AdaptiveDiagnoser, get_scenario, scenario_names
from repro.fpva import full_layout, table1_layout
from repro.sim import ChipUnderTest, FaultDictionary
from repro.sim.faults import stuck_at_faults
from tests import oracle

BENCH_JSON = os.environ.get("REPRO_BENCH_ADAPTIVE_JSON", "BENCH_adaptive.json")

#: (array size, dictionary cardinality, path strategy, speedup floor).
#: Recorded on a 2-core container: 19.6x at 8x8 card-2, 25.8x at 10x10
#: card-2 (hierarchical), 7.1x at 5x5 card-2 and 2.8x at 8x8 card-1,
#: where the fixed per-step cost and ``Tester.apply`` dominate — hence
#: no floor there.
if SMOKE:
    SESSION_CONFIGS = [(5, 2, "auto", 2.0)]
else:
    SESSION_CONFIGS = [(8, 2, "auto", 7.0), (8, 1, "auto", None)]
    if FULL:
        SESSION_CONFIGS.append((10, 2, "hierarchical", 10.0))
#: Fresh chips per configuration, as in one round of the repo benchmark's
#: ``screen`` workload.
SESSION_CHIPS = 50
CONFIG = {"smoke": SMOKE, "full": FULL, "chips": SESSION_CHIPS}


def _session_stats(fpva, vectors, scenario, trials, seed=0):
    universe = scenario.universe(fpva)
    dictionary = FaultDictionary(fpva, vectors, universe=universe)
    engine = AdaptiveDiagnoser(dictionary)
    rng = random.Random(seed)
    applied = []
    mismatches = 0
    t_adaptive = t_full = 0.0
    for _ in range(trials):
        chip = ChipUnderTest(fpva, scenario.sample(universe, rng, 1))
        t0 = time.perf_counter()
        session = engine.diagnose(chip)
        t_adaptive += time.perf_counter() - t0
        t0 = time.perf_counter()
        full = dictionary.diagnose_chip(chip)
        t_full += time.perf_counter() - t0
        applied.append(session.num_applied)
        if session.report != full:
            mismatches += 1
    return {
        "mean_applied": sum(applied) / len(applied),
        "max_applied": max(applied),
        "full": len(vectors),
        "mismatches": mismatches,
        "t_adaptive": t_adaptive,
        "t_full": t_full,
    }


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_adaptive_vector_savings_8x8(benchmark, scenario_name, capsys):
    """Acceptance: ≥30% fewer applied vectors than the full suite on 8x8."""
    fpva = full_layout(8, 8, name="adaptive-8x8")
    vectors = generate_suite(fpva).all_vectors()
    scenario = get_scenario(scenario_name)
    stats = pedantic_once(
        benchmark, _session_stats, fpva, vectors, scenario, TRIALS
    )
    benchmark.extra_info.update(stats)
    saving = 1.0 - stats["mean_applied"] / stats["full"]
    with capsys.disabled():
        print(
            f"\n8x8 {scenario_name}: mean {stats['mean_applied']:.1f} / "
            f"{stats['full']} vectors ({saving:.0%} saved), "
            f"max {stats['max_applied']}, "
            f"adaptive {stats['t_adaptive']:.2f}s vs full {stats['t_full']:.2f}s, "
            f"{stats['mismatches']} verdict mismatches"
        )
    assert stats["mismatches"] == 0
    assert saving >= 0.30


@pytest.mark.parametrize("n", (5, 10))
def test_adaptive_savings_table1(benchmark, n, capsys):
    """The same comparison on the paper's benchmark layouts."""
    fpva = table1_layout(n)
    vectors = generate_suite(fpva).all_vectors()
    stats = pedantic_once(
        benchmark,
        _session_stats,
        fpva,
        vectors,
        get_scenario("stuck-at"),
        TRIALS,
    )
    benchmark.extra_info.update(stats)
    saving = 1.0 - stats["mean_applied"] / stats["full"]
    with capsys.disabled():
        print(
            f"\n{fpva.name}: mean {stats['mean_applied']:.1f} / {stats['full']} "
            f"vectors ({saving:.0%} saved), {stats['mismatches']} mismatches"
        )
    assert stats["mismatches"] == 0
    assert saving > 0.0


def _timed_sessions(engine, chips):
    t0 = time.perf_counter()
    sessions = [engine.diagnose(chip) for chip in chips]
    return sessions, time.perf_counter() - t0


def _bench_sessions(size, cardinality, strategy):
    fpva = full_layout(size, size, name=f"adaptive-rate-{size}x{size}")
    vectors = generate_suite(fpva, path_strategy=strategy).all_vectors()
    universe = stuck_at_faults(fpva)
    dictionary = FaultDictionary(
        fpva, vectors, universe=universe, max_cardinality=cardinality
    )
    scenario = get_scenario("stuck-at")
    rng = random.Random(0)
    chips = [
        ChipUnderTest(fpva, scenario.sample(universe, rng, 1 + c % 2))
        for c in range(SESSION_CHIPS)
    ]
    sessions, t_array = _timed_sessions(AdaptiveDiagnoser(dictionary), chips)
    reference, t_reference = _timed_sessions(
        oracle.ReferenceAdaptiveDiagnoser(dictionary), chips
    )
    mismatches = sum(
        (a.steps, a.exhausted_budget, a.report)
        != (b.steps, b.exhausted_budget, b.report)
        for a, b in zip(sessions, reference)
    )
    return {
        "size": size,
        "cardinality": cardinality,
        "path_strategy": strategy,
        "vectors": len(vectors),
        "hypotheses": dictionary.distinct_syndromes + 1,
        "chips": len(chips),
        "mean_applied": sum(s.num_applied for s in sessions) / len(sessions),
        "mismatches": mismatches,
        "sessions_per_second": len(chips) / t_array,
        "reference_sessions_per_second": len(chips) / t_reference,
        "speedup": t_reference / t_array,
    }


@pytest.mark.parametrize(
    "size,cardinality,strategy,floor",
    SESSION_CONFIGS,
    ids=[f"{n}x{n}-card{c}-{s}" for n, c, s, _ in SESSION_CONFIGS],
)
def test_adaptive_sessions_per_second(
    benchmark, size, cardinality, strategy, floor, capsys
):
    """Array scheduler vs the reference on identical chips and sessions."""
    stats = pedantic_once(benchmark, _bench_sessions, size, cardinality, strategy)
    stats["min_speedup"] = floor
    benchmark.extra_info.update(stats)
    suffix = "" if strategy == "auto" else f"_{strategy}"
    record(
        BENCH_JSON,
        f"sessions_per_second_{size}x{size}_card{cardinality}{suffix}",
        stats,
        CONFIG,
    )
    with capsys.disabled():
        print(
            f"\n{size}x{size} card-{cardinality} {strategy} "
            f"({stats['hypotheses']} hypotheses, {stats['vectors']} vectors): "
            f"{stats['sessions_per_second']:.0f} vs reference "
            f"{stats['reference_sessions_per_second']:.1f} sessions/s -> "
            f"{stats['speedup']:.1f}x, {stats['mismatches']} mismatches"
        )
    assert stats["mismatches"] == 0, stats
    if floor is not None:
        assert stats["speedup"] >= floor, stats

"""Test generation on the ExecutionContext: shared kernels, batched hardening.

Two acceptance measurements for the PR-5 session refactor:

* **context-shared generation** — generating the full suite compiles the
  reachability kernel exactly **once** (pre-context, the nine private
  ``PressureSimulator`` call sites each compiled their own), and a second
  generation on the same session compiles **zero**; cold vs shared wall
  clock is recorded alongside for the trajectory.
* **batched double-fault hardening** — `harden_double_faults` through the
  session's :class:`~repro.sim.kernel.BatchEvaluator` (per-vector
  scenario grids, 64 scenarios per word, one flush) vs the serial
  chip-at-a-time reference in ``tests/oracle.py``.  Floor: **>=3x** on the
  8x8 layout, with bit-identical audits and generated vectors.

Results are written to ``BENCH_testgen.json`` (override with
``REPRO_BENCH_TESTGEN_JSON``) so the trajectory is tracked across PRs;
``REPRO_BENCH_SMOKE=1`` shrinks the configuration for the CI smoke step.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import SMOKE, pedantic_once
from repro.context import ExecutionContext
from repro.core import TestGenerator, generate_suite
from repro.core.repair import harden_double_faults
from repro.core.vectors import TestSet
from repro.fpva import full_layout
from repro.sim import ReachabilityKernel
from tests import oracle

BENCH_JSON = os.environ.get("REPRO_BENCH_TESTGEN_JSON", "BENCH_testgen.json")

SIZE = 6 if SMOKE else 8
HARDEN_MIN_SPEEDUP = 2.0 if SMOKE else 3.0


def _record(section: str, payload: dict) -> None:
    """Merge one section into the machine-readable bench JSON."""
    data = {}
    if os.path.exists(BENCH_JSON):
        try:
            with open(BENCH_JSON) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    data["config"] = {"size": SIZE, "smoke": SMOKE}
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _CompileCounter:
    """Counts ReachabilityKernel compiles while installed."""

    def __init__(self):
        self.count = 0
        self._original = ReachabilityKernel.__init__

    def __enter__(self):
        original = self._original
        counter = self

        def counting(kernel_self, fpva):
            counter.count += 1
            original(kernel_self, fpva)

        ReachabilityKernel.__init__ = counting
        return self

    def __exit__(self, *exc):
        ReachabilityKernel.__init__ = self._original
        return False


def _bench_generation(fpva):
    # Cold: a fresh session generates the full suite (paths via the
    # simulation-heavy greedy strategy, cuts via sweep, leakage on).
    with _CompileCounter() as cold_compiles:
        cold_ctx = ExecutionContext(fpva)
        t0 = time.perf_counter()
        cold_suite = TestGenerator(
            fpva, path_strategy="greedy", cut_strategy="sweep", context=cold_ctx
        ).generate().testset
        t_cold = time.perf_counter() - t0

    # Shared: the same session generates again — kernel and pooled batch
    # evaluations are already warm, so zero compiles happen.
    with _CompileCounter() as shared_compiles:
        t0 = time.perf_counter()
        shared_suite = TestGenerator(
            fpva, path_strategy="greedy", cut_strategy="sweep", context=cold_ctx
        ).generate().testset
        t_shared = time.perf_counter() - t0

    assert cold_suite.all_vectors() == shared_suite.all_vectors()
    return {
        "vectors": cold_suite.total,
        "cold_seconds": t_cold,
        "shared_seconds": t_shared,
        "cold_kernel_compiles": cold_compiles.count,
        "shared_kernel_compiles": shared_compiles.count,
    }


def test_context_shared_generation(benchmark, capsys):
    """Acceptance: exactly one kernel compile per generation session."""
    fpva = full_layout(SIZE, SIZE, name=f"testgen-bench-{SIZE}x{SIZE}")
    stats = pedantic_once(benchmark, _bench_generation, fpva)
    benchmark.extra_info.update(stats)
    _record(f"context_shared_generation_{SIZE}x{SIZE}", stats)
    with capsys.disabled():
        print(
            f"\n{SIZE}x{SIZE} generation ({stats['vectors']} vectors): cold "
            f"{stats['cold_seconds']:.2f}s / {stats['cold_kernel_compiles']} "
            f"compile, context-shared {stats['shared_seconds']:.2f}s / "
            f"{stats['shared_kernel_compiles']} compiles"
        )
    assert stats["cold_kernel_compiles"] == 1, stats
    assert stats["shared_kernel_compiles"] == 0, stats


def _copy_testset(ts: TestSet) -> TestSet:
    return TestSet(
        fpva=ts.fpva,
        flow_paths=list(ts.flow_paths),
        cut_sets=list(ts.cut_sets),
        leakage=list(ts.leakage),
    )


def _bench_hardening(fpva, suite):
    serial_ts = _copy_testset(suite)
    t0 = time.perf_counter()
    serial = oracle.harden_double_faults(fpva, serial_ts)
    t_serial = time.perf_counter() - t0

    batched_ts = _copy_testset(suite)
    t0 = time.perf_counter()  # kernel compile is part of the batched cost
    batched = harden_double_faults(
        fpva, batched_ts, context=ExecutionContext(fpva)
    )
    t_batched = time.perf_counter() - t0

    assert batched.pairs_audited == serial.pairs_audited
    assert batched.pairs_missed == serial.pairs_missed
    assert batched.vectors_added == serial.vectors_added
    assert batched_ts.flow_paths == serial_ts.flow_paths
    assert batched_ts.cut_sets == serial_ts.cut_sets
    return {
        "pairs_audited": serial.pairs_audited,
        "pairs_missed": len(serial.pairs_missed),
        "vectors": suite.total,
        "serial_seconds": t_serial,
        "batched_seconds": t_batched,
        "speedup": t_serial / t_batched,
    }


def test_hardening_batched_speedup(benchmark, capsys):
    """Acceptance: >=3x batched double-fault hardening on the 8x8 layout,
    bit-identical generated vectors."""
    fpva = full_layout(SIZE, SIZE, name=f"testgen-bench-{SIZE}x{SIZE}")
    suite = generate_suite(fpva)
    stats = pedantic_once(benchmark, _bench_hardening, fpva, suite)
    benchmark.extra_info.update(stats)
    _record(f"hardening_{SIZE}x{SIZE}", stats)
    with capsys.disabled():
        print(
            f"\n{SIZE}x{SIZE} hardening audit ({stats['pairs_audited']} pairs x "
            f"{stats['vectors']} vectors): serial {stats['serial_seconds']:.2f}s "
            f"vs batched {stats['batched_seconds']:.2f}s -> "
            f"{stats['speedup']:.1f}x"
        )
    assert stats["speedup"] >= HARDEN_MIN_SPEEDUP, stats

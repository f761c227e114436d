"""Shared benchmark configuration.

Environment knobs:

* ``REPRO_BENCH_FULL=1``  — include the large (20x20 / 30x30) arrays in the
  Table I and fault-injection benches (several minutes).
* ``REPRO_BENCH_TRIALS`` — fault-injection trials per configuration
  (default 100; the paper used 10 000).
"""

from __future__ import annotations

import json
import os

import pytest

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "100"))

#: Reduced-configuration mode for the CI smoke step: smaller arrays and
#: relaxed speedup floors so the kernel bench finishes in seconds while
#: still catching order-of-magnitude regressions.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Where machine-readable bench results are written (perf trajectory
#: tracking across PRs).
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_kernel.json")

#: Sizes benchmarked by default vs. under REPRO_BENCH_FULL=1.
DEFAULT_SIZES = (5, 10, 15, 20, 30) if FULL else (5, 10, 15)


def record(path: str, section: str, payload: dict, config: dict) -> None:
    """Merge one section (and the run's ``config``) into a bench JSON."""
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    data["config"] = config
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def pedantic_once(benchmark, fn, *args, **kwargs):
    """Run a heavyweight target exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def bench_sizes():
    return DEFAULT_SIZES


@pytest.fixture(scope="session")
def trials():
    return TRIALS

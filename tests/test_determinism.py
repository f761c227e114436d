"""Generated suites, dictionaries and campaigns do not depend on the
interpreter's hash seed.

Stored suites are addressed by the settings they were generated with
(:class:`repro.store.SuiteStore`), so a content address names one suite
only if generation is deterministic.  ``Port`` and the path-cover
terminals hash through strings, whose hashes change per process under
``PYTHONHASHSEED``; any set of them that reaches an ILP's variable or row
order would change the suite from run to run.  Each case runs in fresh
interpreters under several hash seeds and compares their output bytes:
the ``TestSet.to_json`` of a suite, or a dictionary's digest and
syndrome classes plus campaign sweeps at two worker counts.  Campaign
sweeps are also pinned to recorded SHA-256s, in process, so a change to
the fault model or the sampler cannot move their bytes unnoticed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HASH_SEEDS = ("0", "1", "2")

#: Writes one generated suite's ``to_json(indent=None)`` to stdout.
GENERATE = """
import sys
from repro.core import TestGenerator
from repro.fpva import full_layout, table1_layout

kind, n, strategy, subblock = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
fpva = table1_layout(n) if kind == "table1" else full_layout(n, n)
generator = TestGenerator(fpva, path_strategy=strategy, subblock=subblock)
sys.stdout.write(generator.generate().testset.to_json(indent=None))
"""


#: Prints a cardinality-2 stuck-at dictionary's digest and the SHA-256 of
#: its syndrome classes, then one sorted-JSON line per sweep worker count
#: (the mixed scenario, so undetected examples and their reprs show).
DICTIONARY_AND_SWEEPS = """
import hashlib, json, tempfile
from repro.context import ExecutionContext
from repro.engine import get_scenario, run_sweep
from repro.fpva import full_layout
from repro.sim.faults import stuck_at_faults

fpva = full_layout(4, 4)
with tempfile.TemporaryDirectory() as store:
    ctx = ExecutionContext(fpva, store=store)
    vectors = ctx.suite().testset.all_vectors()
    dictionary = ctx.dictionary(
        vectors, universe=stuck_at_faults(fpva), max_cardinality=2
    )
    classes = repr(dictionary.syndrome_classes()).encode()
    print(dictionary.digest, hashlib.sha256(classes).hexdigest())
    for workers in (1, 2):
        sweep = run_sweep(
            fpva, vectors, fault_counts=(1, 2, 3), trials=60, seed=3,
            shard_trials=10, workers=workers, context=ctx,
            scenario=get_scenario("mixed"),
        )
        print(json.dumps({k: r.as_dict() for k, r in sweep.items()}, sort_keys=True))
"""


def _run_by_seed(script: str, *argv: str) -> dict:
    """``{hash seed: stdout bytes}`` of ``script``, run concurrently."""
    procs = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        procs[seed] = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
    out = {}
    for seed, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, stderr.decode()[-2000:]
        out[seed] = stdout
    return out


def _suites_by_seed(kind: str, n: int, strategy: str, subblock: int = 5) -> dict:
    """``{hash seed: suite JSON bytes}``, generated concurrently."""
    return _run_by_seed(GENERATE, kind, str(n), strategy, str(subblock))


def test_hierarchical_suite_ignores_hash_seed():
    """Each corridor window's ILP is built in the cell graph's order."""
    suites = _suites_by_seed("full", 8, "hierarchical", subblock=4)
    assert len(set(suites.values())) == 1, {
        seed: hashlib.sha256(raw).hexdigest()[:12] for seed, raw in suites.items()
    }


def test_dictionary_and_sweeps_ignore_hash_seed_and_workers():
    """A stored dictionary and a campaign sweep on a full 4x4 print the
    same bytes in every process, and the sweep the same at 1 and 2
    workers."""
    outputs = _run_by_seed(DICTIONARY_AND_SWEEPS)
    assert len(set(outputs.values())) == 1, {
        seed: hashlib.sha256(raw).hexdigest()[:12] for seed, raw in outputs.items()
    }
    _, serial, pooled = next(iter(outputs.values())).decode().splitlines()
    assert serial == pooled


#: (layout kind, n, path strategy) -> pinned SHA-256 of the suite, or None.
#: Table I 5x5's cut-sets are the sweep's walls, certified optimal by the
#: cut-set ILP; the full 8x8 (64 cells) takes the sweep directly.
PAPER_SUITES = {
    ("table1", 5, "direct"): (
        "a9cc5d057a6a15903c30e3889463569c0077d939f75de22ed7ffaf59d0eb538b"
    ),
    ("full", 8, "auto"): (
        "e76800d51a8a480044577454853961dd3990bf2b5005420a5083c0097c42109f"
    ),
    ("table1", 10, "hierarchical"): None,
}


@pytest.mark.slow
def test_paper_suites_ignore_hash_seed():
    for (kind, n, strategy), pinned in PAPER_SUITES.items():
        suites = _suites_by_seed(kind, n, strategy)
        digests = {hashlib.sha256(raw).hexdigest() for raw in suites.values()}
        assert len(digests) == 1, (kind, n, strategy, digests)
        if pinned is not None:
            assert digests == {pinned}, (kind, n, strategy)


#: (scenario, suite prefix) -> SHA-256 of the sweep JSON on a full 4x4:
#: k = 1..3, 60 chips each, seed 3, 10 chips a shard, over the generated
#: suite (14 vectors) and over its first 4 vectors, under which chips of
#: every scenario escape, so the undetected examples pin the draws.
#: ``None`` is the default workload, drawn on universe indices; the named
#: scenarios draw through ``FaultScenario.sample``.  Recorded before the
#: fault model moved onto arrays for every fault kind.
CAMPAIGN_SWEEPS = {
    (None, 14): "c1a4e255c9731b654c61c0a68f3a30edff29445c7b5899014fbaad5e714b5ee9",
    ("stuck-at", 14): "c1a4e255c9731b654c61c0a68f3a30edff29445c7b5899014fbaad5e714b5ee9",
    ("mixed", 14): "02593efdee9392f322b7dd1fd4aeb355155bdc4257b49e433f4e33c0fa40c659",
    ("intermittent", 14): "01dc3dec797031d49c1371bc52bef6051fe4afd039f478ab49a4b5c2e79677a8",
    (None, 4): "aeb6ab2bc2401b5731e53d0e6f095d1bf59db31ebb388f2b3c5d9d52c7b9df0f",
    ("stuck-at", 4): "aeb6ab2bc2401b5731e53d0e6f095d1bf59db31ebb388f2b3c5d9d52c7b9df0f",
    ("mixed", 4): "f9d1678069edabd48e40f5c2db1b4e0921092431f2b61d3a0ccd775a4bfb7369",
    ("intermittent", 4): "af02d0d29fe349ec6c2cf303d09922d3eb19302234b397dfb10a67acfaf9c5c5",
}


def test_campaign_bytes_are_pinned():
    """Every pinned sweep prints the bytes it printed when recorded."""
    import json

    from repro.core import generate_suite
    from repro.engine import get_scenario, run_sweep
    from repro.fpva import full_layout

    fpva = full_layout(4, 4)
    vectors = generate_suite(fpva).all_vectors()
    assert len(vectors) == 14
    digests = {}
    for name, count in CAMPAIGN_SWEEPS:
        sweep = run_sweep(
            fpva, vectors[:count], fault_counts=(1, 2, 3), trials=60, seed=3,
            shard_trials=10, scenario=name and get_scenario(name),
        )
        raw = json.dumps({k: r.as_dict() for k, r in sweep.items()}, sort_keys=True)
        digests[name, count] = hashlib.sha256(raw.encode()).hexdigest()
    assert digests == CAMPAIGN_SWEEPS

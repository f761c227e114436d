"""Stable content digests for stored artifacts.

Cached artifacts are keyed by what they were derived *from*, never by
where or when: a generated suite by the array and the generator's
settings, solver and version, a dictionary by the (array, vector suite,
fault universe, cardinality) quadruple — the scenario is captured
through the ordered universe it induces.  Two processes that describe the same workload therefore address the same
cache entry, and any change to layout, suite, universe contents/order or
cardinality changes the digest, which is the entire invalidation story:
stale entries are never overwritten, they are simply never addressed
again.

Encodings are canonical nested tuples of primitives serialized as compact
JSON and hashed with BLAKE2b.  The array's *display name* is deliberately
excluded from the layout key (two identically-shaped arrays with
different labels share artifacts); port names are included because meter
readings — and therefore syndromes — are keyed by them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge
from repro.sim.campaign import KEEP_UNDETECTED
from repro.sim.faults import (
    ChannelBlocked,
    ControlLeak,
    Fault,
    IntermittentStuckAt,
    StuckAt0,
    StuckAt1,
)

#: Bump when any persisted format or canonical encoding changes shape;
#: old cache entries then stop being addressed (never reinterpreted).
STORE_FORMAT_VERSION = 1


def _edge_key(edge: Edge) -> tuple[int, int, int, int]:
    return (edge.a.r, edge.a.c, edge.b.r, edge.b.c)


def layout_key(fpva: FPVA) -> tuple:
    """Canonical structural identity of an array (name excluded)."""
    return (
        fpva.nr,
        fpva.nc,
        tuple(sorted((c.r, c.c) for c in fpva.obstacles)),
        tuple(sorted(_edge_key(e) for e in fpva.channels)),
        tuple(
            (p.kind.value, p.side.value, p.index, p.name) for p in fpva.ports
        ),
    )


def vector_key(vector: TestVector) -> tuple:
    """Canonical identity of one test vector (provenance excluded)."""
    return (
        vector.name,
        vector.kind.value,
        tuple(sorted(_edge_key(e) for e in vector.open_valves)),
        tuple(sorted((name, bool(v)) for name, v in vector.expected.items())),
    )


def fault_key(fault: Fault) -> tuple:
    """Canonical identity of one fault hypothesis."""
    if isinstance(fault, StuckAt0):
        return ("sa0", _edge_key(fault.valve))
    if isinstance(fault, StuckAt1):
        return ("sa1", _edge_key(fault.valve))
    if isinstance(fault, ControlLeak):
        return ("leak", _edge_key(fault.a), _edge_key(fault.b))
    if isinstance(fault, IntermittentStuckAt):
        return (
            "flaky",
            _edge_key(fault.valve),
            bool(fault.stuck_open),
            float(fault.rate),
            int(fault.salt),
        )
    if isinstance(fault, ChannelBlocked):
        return ("blocked", _edge_key(fault.edge))
    raise TypeError(f"unknown fault kind {fault!r}")


def digest_of(*parts: Any) -> str:
    """BLAKE2b hex digest of canonically JSON-serialized parts."""
    payload = json.dumps(parts, separators=(",", ":"), sort_keys=True)
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def digest_int(digest: str, bits: int = 64) -> int:
    """The leading ``bits`` of a hex content digest as an integer.

    Content digests double as deterministic per-artifact entropy: the
    fabric's retry backoff derives its jitter from the shard digest, so
    two workers retrying the same shard de-synchronize identically on
    every host with no RNG state to persist.
    """
    return int(digest[: bits // 4], 16)


def suite_digest(
    fpva: FPVA,
    config: Mapping[str, Any],
    solver: Sequence[str],
    generator_version: int,
) -> str:
    """Cache key of a generated test suite.

    A suite is addressed by what it is generated *from*: the layout, the
    generator's resolved settings (``TestGenerator.config()``), the
    solver's name and version and the generator version.  Unlike the
    layout key elsewhere, the array's name is included, because the
    stored suite records it and only loads onto an array of that name.
    """
    return digest_of(
        "suite",
        STORE_FORMAT_VERSION,
        layout_key(fpva),
        fpva.name,
        dict(config),
        list(solver),
        int(generator_version),
    )


def scenario_key(scenario: Any) -> tuple:
    """Canonical identity of a campaign's fault workload.

    ``None`` is the paper's default stuck-at/control-leak space, keyed
    ``("default", True)`` as it was when that space could drop its
    control leaks, so its shards keep their addresses.  Registered
    scenarios are frozen dataclasses, so ``repr`` canonically captures
    their parameters (a custom scenario must likewise keep its ``repr`` a
    pure function of its sampling behaviour to address shards correctly).
    """
    if scenario is None:
        return ("default", True)
    return ("scenario", scenario.name, repr(scenario))


def campaign_key(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    scenario: Any,
    seed: int,
    shard_trials: int,
) -> tuple:
    """The shared identity prefix of a campaign's shard space.

    Deliberately excludes the fault-count list and the total trial count:
    a shard is addressed by what it *simulates*, so a single-``k``
    campaign and a sweep containing that ``k`` hit the same shard
    artifacts, and extending ``trials`` reuses every full shard already
    published.  A shard's result keeps up to
    :data:`~repro.sim.campaign.KEEP_UNDETECTED` undetected examples, so
    that count closes the key.
    """
    return (
        STORE_FORMAT_VERSION,
        layout_key(fpva),
        tuple(vector_key(v) for v in vectors),
        scenario_key(scenario),
        int(seed),
        int(shard_trials),
        KEEP_UNDETECTED,
    )


def campaign_digest(key: tuple, fault_counts: Sequence[int], trials: int) -> str:
    """Manifest identity of one concrete campaign/sweep invocation."""
    return digest_of(
        "campaign", key, tuple(int(k) for k in fault_counts), int(trials)
    )


def shard_digests(
    key: tuple, coords: Iterable[tuple[int, int, int]]
) -> list[str]:
    """Content addresses of one campaign key's ``(k, shard, trials)`` units.

    Each address is ``digest_of("shard", key, k, shard, trials)``, byte
    for byte — published shard artifacts in existing journals are filed
    under these — but the key, which carries the whole vector suite, is
    encoded and hashed once: every shard copies that hash state and adds
    only its ``k,shard,trials]`` tail.  ``trials`` is the shard's own
    size (the tail shard of an uneven split is a different artifact from
    a full one).
    """
    head = json.dumps(["shard", key], separators=(",", ":"), sort_keys=True)
    prefix = hashlib.blake2b(f"{head[:-1]},".encode(), digest_size=16)
    out: list[str] = []
    for num_faults, shard, trials in coords:
        state = prefix.copy()
        state.update(f"{int(num_faults)},{int(shard)},{int(trials)}]".encode())
        out.append(state.hexdigest())
    return out


def layout_digest(fpva: FPVA) -> str:
    """Structural identity of one array as a standalone digest.

    Recorded in dictionary lineage metadata so ancestor resolution can
    compare layouts across stored artifacts without re-deriving (or even
    having) the arrays they were built from.
    """
    return _digest("layout", layout_key(fpva))


def universe_digest(universe: Iterable[Fault]) -> str:
    """Identity of one *ordered* fault universe as a standalone digest.

    Order-sensitive for the same reason :func:`dictionary_digest` is:
    stored fault sets are universe indices, so two artifacts are
    row-compatible only when their universes match element for element.
    """
    return _digest("universe", [fault_key(f) for f in universe])


def suite_digests(vectors: Sequence[TestVector]) -> list[str]:
    """Per-vector content digests, in suite order.

    The unit of dictionary reuse: a stored artifact whose vector-digest
    *set* is a subset of a new suite's already holds every one of that
    suite's columns for those vectors (syndromes are per-vector readings),
    whatever order either suite lists them in.
    """
    return [_digest("vector", vector_key(v)) for v in vectors]


def dictionary_digest(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    universe: Iterable[Fault],
    max_cardinality: int,
) -> str:
    """Cache key of a :class:`FaultDictionary` syndrome table.

    The universe is hashed *in order* because stored fault sets are
    encoded as universe indices — a reordered universe is a different
    artifact even when its contents coincide.
    """
    return DictionaryKeys.of(fpva, vectors, universe, max_cardinality).digest()


class DictionaryKeys(NamedTuple):
    """The canonical keys of a dictionary's inputs, taken once: its
    :meth:`digest` and its :meth:`lineage` digests derive from them."""

    layout: tuple
    vectors: list
    faults: list
    cardinality: int

    @classmethod
    def of(cls, fpva, vectors, universe, max_cardinality) -> "DictionaryKeys":
        vector_keys = [vector_key(v) for v in vectors]
        fault_keys = [fault_key(f) for f in universe]
        return cls(layout_key(fpva), vector_keys, fault_keys, int(max_cardinality))

    def digest(self) -> str:
        """:func:`dictionary_digest`."""
        return digest_of("dictionary", STORE_FORMAT_VERSION, *self)

    def lineage(self) -> dict:
        """:func:`layout_digest`, :func:`universe_digest` and
        :func:`suite_digests`, keyed as a lineage block is."""
        return {
            "layout": _digest("layout", self.layout),
            "universe": _digest("universe", self.faults),
            "suite": [_digest("vector", key) for key in self.vectors],
        }


def _digest(kind: str, key) -> str:
    return digest_of(kind, STORE_FORMAT_VERSION, key)

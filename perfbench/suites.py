"""Fixed vector-suite fixtures for the `dict` and `screen` workloads.

The suites are stored as compact ``TestSet.to_json(indent=None)`` output under
``perfbench/fixtures/`` and pinned by SHA-256, so a change to the test
generator cannot move the dictionary or screening numbers: only the
`gen` and `cli` workloads exercise generation.

``TestSet`` has a writer and no reader, so :func:`load_suite` rebuilds
each vector through public constructors only and then re-serializes the
result, which must reproduce the fixture byte for byte.

Regenerate (and print the digests to paste into ``DIGESTS``) with::

    PYTHONPATH=src python3 perfbench/suites.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Fixture name -> SHA-256 of the JSON file.
DIGESTS = {
    "full-5x5": "5ffaa64f0e5c3c6242f5ddd5e5178768b23c7169f629e9d1ed8cd8716a66d86e",  # N=15
    "full-8x8": "e76800d51a8a480044577454853961dd3990bf2b5005420a5083c0097c42109f",  # N=25
    "full-10x10": "e73d9aa26bc8bb65423725323b4ca3ed0edaec6a6fa928e97e39dfe7cbfb81c5",  # N=31
}


class FixtureError(RuntimeError):
    """A fixture is missing, altered, or does not round-trip."""


def load_suite(name: str):
    """The pinned suite ``name`` on a freshly built full array."""
    from repro.core import TestSet, VectorKind, vector_from_open_set
    from repro.fpva import Cell, edge_between, full_layout

    path = FIXTURES / f"{name}.json"
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != DIGESTS[name]:
        raise FixtureError(f"{path}: sha256 {digest} != pinned {DIGESTS[name]}")
    data = json.loads(raw)
    nr, nc = data["dimensions"]
    fpva = full_layout(nr, nc)
    if fpva.name != data["array"]:
        raise FixtureError(f"{path}: array {data['array']!r} is not {fpva.name!r}")

    def vectors(section: str) -> list:
        return [
            vector_from_open_set(
                fpva,
                item["name"],
                VectorKind(item["kind"]),
                [edge_between(Cell(*a), Cell(*b)) for a, b in item["open_valves"]],
                item["expected"],
            )
            for item in data[section]
        ]

    suite = TestSet(
        fpva=fpva,
        flow_paths=vectors("flow_paths"),
        cut_sets=vectors("cut_sets"),
        leakage=vectors("leakage"),
    )
    if suite.to_json(indent=None).encode() != raw:
        raise FixtureError(f"{path}: rebuilt suite does not re-serialize identically")
    return suite


def write_fixtures() -> None:
    """Generate every fixture with the default generator settings."""
    from repro.core import TestGenerator
    from repro.fpva import full_layout

    FIXTURES.mkdir(exist_ok=True)
    for name in DIGESTS:
        side = int(name.rsplit("x", 1)[1])
        suite = TestGenerator(full_layout(side, side)).generate().testset
        raw = suite.to_json(indent=None).encode()
        (FIXTURES / f"{name}.json").write_bytes(raw)
        print(f'    "{name}": "{hashlib.sha256(raw).hexdigest()}",  # N={suite.total}')


if __name__ == "__main__":
    write_fixtures()

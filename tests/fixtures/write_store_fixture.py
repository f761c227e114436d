"""Write the store fixture that ``tests/test_store.py`` warm-loads.

The fixture pins on-disk compatibility: artifacts written by one version
of the code must stay warm, and a journal it wrote must stay resumable,
for the next.  It holds

* ``cache/kernels/``: a full 3x3 kernel and its checksum sidecar, a
  leftover of the versions that stored kernels.  The code ignores it,
  since kernels are now compiled and never stored, and a regenerated
  fixture would not have one;
* ``cache/dictionaries/``: the cardinality-2 stuck-at dictionary of the
  suite below;
* ``journal/``: a campaign's ``campaign.json`` and its four published
  shards (fault counts 1 and 2, two shards of 10 trials each);
* ``suite.json``: the vector suite everything was built from
  (``TestSet.to_json``), so a later change to the test generator cannot
  turn the fixture cold.

Regenerate it only when the store format changes on purpose::

    PYTHONPATH=src python tests/fixtures/write_store_fixture.py tests/fixtures/store-3x3
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path


def write_fixture(out: Path) -> None:
    from repro.context import ExecutionContext
    from repro.core import generate_suite
    from repro.fabric import CampaignSpec, run_journaled_sweep
    from repro.fpva import full_layout
    from repro.sim.faults import stuck_at_faults

    if out.exists():
        raise SystemExit(f"{out} exists; remove it first")
    fpva = full_layout(3, 3)
    suite = generate_suite(fpva)
    vectors = suite.all_vectors()
    out.mkdir(parents=True)
    (out / "suite.json").write_text(suite.to_json(indent=None))

    # The session publishes the table (and stores no kernel).
    ExecutionContext(fpva, store=out / "cache").dictionary(
        vectors, max_cardinality=2, universe=stuck_at_faults(fpva)
    )

    spec = CampaignSpec(
        fpva=fpva,
        vectors=tuple(vectors),
        fault_counts=(1, 2),
        trials=20,
        seed=3,
        shard_trials=10,
    )
    with tempfile.TemporaryDirectory() as workdir:
        journal = Path(workdir) / "journal"
        run_journaled_sweep(spec, journal)
        # Only the manifest and the published shards: leases, attempt
        # records and heartbeats are run state, not artifacts.
        (out / "journal").mkdir()
        shutil.copy2(journal / "campaign.json", out / "journal")
        shutil.copytree(journal / "shards", out / "journal" / "shards")


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))

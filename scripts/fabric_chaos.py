#!/usr/bin/env python
"""Chaos harness for the campaign fabric's self-healing guarantees.

Runs alongside a live journaled campaign drain and does two kinds of
damage, in order:

1. **Artifact damage** — as shards publish, damage random published
   shard artifacts, cycling through three kinds so that every kind the
   store must catch shows up: a flipped byte in the ``result.npz``
   payload, a torn ``meta.json`` completeness marker, and a *lying*
   marker (valid JSON that no longer records the payload's checksum).
2. **SIGKILL** — kill the drain's whole process group mid-campaign, the
   way the crash-injection suite does, leaving stale leases and burned
   attempt budgets behind.

The harness only *injects* faults and reports how many shard artifacts
it damaged; the assertion lives with the caller (CI): resuming the
campaign afterwards must quarantine every damaged shard (one
``<digest>.reason.json`` record each under ``journal/quarantine/``),
re-simulate it, and produce a merged JSON byte-identical to an
uninterrupted serial reference — with a non-degraded exit code, since
corruption heals and the kill burns fewer attempts than the poison
budget.

Usage::

    setsid python -m repro campaign ... --workers 2 --journal-dir journal &
    python scripts/fabric_chaos.py journal --victim $! \\
        --cache-dir .artifact-cache --corruptions 3 --seed 13

Exits 0 when it corrupted at least one artifact, 1 otherwise (nothing
published in time — the campaign probably failed to start).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.store.integrity import (  # noqa: E402
    fsync_dir,
    marker_bytes,
    write_durable,
)


def publish_damage(path: Path, payload: bytes) -> None:
    """Replace ``path`` with ``payload`` atomically, fsynced.

    The drain is live while the chaos runs: a raw in-place write could
    expose a *torn* artifact to a concurrently verifying reader on slow
    filesystems, turning injected bit rot into an unplanned partial-write
    test.  Damage must be just as atomic as a real publish — the reader
    sees the old bytes or the corrupted bytes, never a mix.
    """
    tmp = path.with_name(path.name + f".chaos-tmp-{os.getpid()}")
    write_durable(tmp, payload)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def published_shards(journal: Path) -> list[Path]:
    """Directories of completely published shards (meta.json present)."""
    return sorted(
        marker.parent for marker in journal.glob("shards/*/meta.json")
    )


def flip_bits(path: Path, rng: random.Random) -> bool:
    """Corrupt one random byte of ``path`` in place."""
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return False
    if not data:
        return False
    index = rng.randrange(len(data))
    data[index] ^= 0xFF
    publish_damage(path, bytes(data))
    print(f"chaos: flipped byte {index} of {path}", flush=True)
    return True


def truncate(path: Path) -> bool:
    """Tear ``path`` in half, modelling a partial write at power loss."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    if not data:
        return False
    publish_damage(path, data[: len(data) // 2])
    print(f"chaos: truncated {path} to {len(data) // 2} bytes", flush=True)
    return True


def drop_checksum(path: Path) -> bool:
    """Rewrite the marker ``path`` as valid JSON without its ``checksum``."""
    try:
        meta = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    if meta.pop("checksum", None) is None:
        return False
    publish_damage(path, marker_bytes(meta))
    print(f"chaos: dropped the checksum from {path}", flush=True)
    return True


def corrupt_one(
    journal: Path, rng: random.Random, hit: set[Path], kind: int
) -> bool:
    """Damage a random not-yet-hit published shard artifact.

    ``kind`` cycles the damage: 0 flips a payload byte, 1 tears the
    completeness marker, 2 makes the marker lie (no checksum).  All three
    must surface as quarantine-and-heal on resume.
    """
    fresh = [d for d in published_shards(journal) if d not in hit]
    if not fresh:
        return False
    victim = rng.choice(fresh)
    hit.add(victim)
    if kind % 3 == 0:
        return flip_bits(victim / "result.npz", rng)
    if kind % 3 == 1:
        return truncate(victim / "meta.json")
    return drop_checksum(victim / "meta.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal", type=Path, help="campaign journal directory")
    parser.add_argument("--victim", type=int, default=None, metavar="PID",
                        help="drain process (group leader) to SIGKILL "
                             "mid-campaign")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="artifact cache whose warm kernel gets "
                             "corrupted too (workers heal it by "
                             "recompiling)")
    parser.add_argument("--corruptions", type=int, default=3,
                        help="published shard artifacts to damage (the "
                             "kinds cycle: payload bit flip, torn marker, "
                             "lying marker)")
    parser.add_argument("--min-shards", type=int, default=2,
                        help="published shards to wait for before the "
                             "violence starts")
    parser.add_argument("--seed", type=int, default=13,
                        help="chaos RNG seed (reproducible damage)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="overall deadline in seconds")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    deadline = time.monotonic() + args.timeout
    hit: set[Path] = set()
    shards = 0

    def victim_alive() -> bool:
        if args.victim is None:
            return False
        try:
            os.kill(args.victim, 0)
        except OSError:
            return False
        return True

    # Phase 1: wait for real progress, then corrupt published artifacts
    # while the drain is still running over the same store.
    while time.monotonic() < deadline:
        n = len(published_shards(args.journal))
        if n >= args.min_shards:
            break
        if args.victim is not None and not victim_alive():
            print("chaos: victim exited before any damage", flush=True)
            break
        time.sleep(0.05)
    while shards < args.corruptions and time.monotonic() < deadline:
        if corrupt_one(args.journal, rng, hit, kind=shards):
            shards += 1
        else:
            time.sleep(0.05)  # wait for the next publish

    # Phase 2: SIGKILL the whole drain process group (the pool's workers
    # included), leaving stale leases + burned attempts for the resume.
    if args.victim is not None and victim_alive():
        try:
            os.killpg(args.victim, signal.SIGKILL)
        except OSError:
            os.kill(args.victim, signal.SIGKILL)
        print(f"chaos: SIGKILLed drain process group {args.victim}", flush=True)

    # Phase 3: corrupt the warm kernel artifact the resume will warm-load
    # by path — its worker must quarantine it and recompile.
    kernels = 0
    if args.cache_dir is not None:
        candidates = sorted((args.cache_dir / "kernels").glob("*.npz"))
        if candidates and flip_bits(rng.choice(candidates), rng):
            kernels = 1

    print(f"chaos: damaged {shards} shard artifact(s) and {kernels} "
          f"kernel(s), {len(published_shards(args.journal))} shards "
          f"published", flush=True)
    return 0 if shards + kernels else 1


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic seed derivation shared by every campaign runner.

The sharded campaign runner (:mod:`repro.engine.parallel`) and the
campaign fabric (:mod:`repro.fabric`) must derive one independent RNG
stream per ``(seed, fault count, shard)`` coordinate, which seeds that
shard's :func:`repro.sim.campaign.run_trials` loop.  Naive arithmetic
like ``seed + k`` collides across coordinates — the streams for
``(seed=0, k=2)`` and ``(seed=1, k=1)`` would be identical — so every
runner routes through :func:`mix_seed`, a splitmix64 finalizer over the
packed coordinates.  The finalizer is a bijection on 64-bit
words applied to a linear combination with large odd constants, so nearby
coordinates land in unrelated parts of the seed space.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def mix_seed(seed: int, num_faults: int = 0, shard: int = 0) -> int:
    """Deterministic, well-spread stream seed (splitmix64 finalizer)."""
    x = (seed * 0x9E3779B97F4A7C15 + num_faults * 0xBF58476D1CE4E5B9 + shard) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)

"""Property suite for the journal state machine.

Hypothesis drives arbitrary interleavings of ``claim`` / ``complete`` /
``crash`` / ``clock-advance`` across several simulated workers sharing
one real journal directory, then checks the invariants the fabric's
correctness rests on:

* **no shard is lost** — a final serial drain always reaches all-done;
* **no shard is double-counted** — the merged sweep has exactly the
  campaign's trial count per ``k``, and the store kept the *first*
  publication of every shard;
* **merging is schedule-independent** — the merged result equals the
  all-serial reference bit-for-bit, whatever the interleaving did.

Shard "simulation" is synthesized deterministically from each
descriptor, so the properties exercise the journal and merge machinery
(the expensive real simulation is covered by the crash harness).
"""

from __future__ import annotations

import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import DONE, CampaignJournal, CampaignSpec, ShardStore
from repro.fpva import full_layout
from repro.sim import CampaignResult, merge_shards
from repro.sim.campaign import KEEP_UNDETECTED

LEASE_TIMEOUT = 60.0
N_WORKERS = 3

# One tiny array, no simulation: vectors never get executed here, so an
# empty suite keeps CampaignSpec construction cheap.
FPVA = full_layout(2, 2, name="journal-2x2")
SPEC = CampaignSpec(
    fpva=FPVA,
    vectors=(),
    fault_counts=(1, 2),
    trials=25,
    seed=3,
    shard_trials=10,
)
DESCRIPTORS = SPEC.shards()


def synth_result(descriptor) -> CampaignResult:
    """A deterministic stand-in for simulating ``descriptor``."""
    rng = random.Random(descriptor.seed)
    n_undetected = rng.randrange(0, min(4, descriptor.trials + 1))
    undetected = sorted(rng.sample(range(descriptor.trials), n_undetected))
    return CampaignResult(
        num_faults=descriptor.num_faults,
        trials=descriptor.trials,
        detected=descriptor.trials - n_undetected,
        undetected_examples=[
            ("synthetic-fault", descriptor.digest, trial)
            for trial in undetected
        ],
        undetected_trials=undetected,
    )


def serial_reference():
    out = {}
    for k in SPEC.fault_counts:
        out[k] = merge_shards(
            k,
            [(d.shard, synth_result(d)) for d in SPEC.shards_for(k)],
            KEEP_UNDETECTED,
        )
    return out


REFERENCE = serial_reference()


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def _result_key(result):
    return (
        result.num_faults,
        result.trials,
        result.detected,
        result.undetected_examples,
        result.undetected_trials,
    )


ops = st.lists(
    st.tuples(
        st.sampled_from(["claim", "complete", "crash", "tick"]),
        st.integers(min_value=0, max_value=N_WORKERS - 1),
        st.integers(min_value=1, max_value=int(LEASE_TIMEOUT * 1.5)),
    ),
    max_size=60,
)


@settings(max_examples=30, deadline=None)
@given(ops=ops)
def test_interleavings_preserve_every_invariant(ops):
    with tempfile.TemporaryDirectory() as root:
        clock = FakeClock()
        journals = [
            CampaignJournal(
                root,
                lease_timeout=LEASE_TIMEOUT,
                clock=clock,
                owner=f"sim-w{i}",
            )
            for i in range(N_WORKERS)
        ]
        journals[0].ensure(SPEC)
        holding: list = [None] * N_WORKERS  # worker -> claimed descriptor
        first_publisher: dict[str, str] = {}

        for op, w, dt in ops:
            journal = journals[w]
            if op == "claim" and holding[w] is None:
                holding[w] = journal.claim(DESCRIPTORS)
            elif op == "complete" and holding[w] is not None:
                descriptor, holding[w] = holding[w], None
                first_publisher.setdefault(descriptor.digest, journal.owner)
                journal.publish_result(descriptor, synth_result(descriptor))
                journal.release(descriptor)
            elif op == "crash" and holding[w] is not None:
                # Death mid-simulate: the claim is forgotten, the lease
                # file stays behind until someone reclaims it.
                holding[w] = None
            elif op == "tick":
                clock.now += dt

        # Whatever happened, a final drain must finish the campaign:
        # leases left by "crashed" workers go stale once the clock moves
        # past the timeout, and done shards are never re-claimable.
        clock.now += LEASE_TIMEOUT + 1.0
        finisher = CampaignJournal(
            root, lease_timeout=LEASE_TIMEOUT, clock=clock, owner="finisher"
        )
        drained = 0
        while (descriptor := finisher.claim(DESCRIPTORS)) is not None:
            first_publisher.setdefault(descriptor.digest, finisher.owner)
            finisher.publish_result(descriptor, synth_result(descriptor))
            finisher.release(descriptor)
            drained += 1
        assert drained <= len(DESCRIPTORS)

        # No shard lost.
        store = ShardStore(f"{root}/shards")
        assert all(finisher.state(d) == DONE for d in DESCRIPTORS)

        # No shard double-counted: the store kept the first publication
        # (idempotent publish), and no lease outlives its shard.
        for descriptor in DESCRIPTORS:
            meta = store.meta(descriptor.digest)
            assert meta["worker"] == first_publisher[descriptor.digest]
            assert not finisher._lease_path(descriptor.digest).exists()

        # Schedule independence: merged == the all-serial reference.
        for k in SPEC.fault_counts:
            merged = merge_shards(
                k,
                [
                    (d.shard, store.load(d.digest))
                    for d in SPEC.shards_for(k)
                ],
                KEEP_UNDETECTED,
            )
            assert merged.trials == SPEC.trials
            assert _result_key(merged) == _result_key(REFERENCE[k])


@settings(max_examples=15, deadline=None)
@given(
    order=st.permutations(list(range(len(DESCRIPTORS)))),
    keep=st.integers(min_value=0, max_value=8),
)
def test_merge_invariant_under_completion_order(order, keep):
    """Publishing shards in any order merges to the serial result."""
    with tempfile.TemporaryDirectory() as root:
        store = ShardStore(root)
        for index in order:
            descriptor = DESCRIPTORS[index]
            store.publish(descriptor, synth_result(descriptor))
        for k in SPEC.fault_counts:
            serial = merge_shards(
                k,
                [(d.shard, synth_result(d)) for d in SPEC.shards_for(k)],
                keep,
            )
            loaded = [
                (d.shard, store.load(d.digest)) for d in SPEC.shards_for(k)
            ]
            random.Random(sum(order)).shuffle(loaded)
            assert _result_key(
                merge_shards(k, loaded, keep)
            ) == _result_key(serial)

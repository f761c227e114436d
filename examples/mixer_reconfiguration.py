"""Dynamic devices on an FPVA and why testing matters before mapping them.

Reproduces the scenario of the paper's Fig 2: a 4x2 and a 2x4 dynamic mixer
sharing the same chip area (time-multiplexed), each a ring of cells whose
eight pump valves drive a circular mixing flow.  Then shows the testing
angle: a single stuck-at-0 valve inside the shared area breaks one mixer
configuration but not the other, and the generated test suite pinpoints
whether the region is usable.

    python examples/mixer_reconfiguration.py
"""

from repro import (
    ChipUnderTest,
    DynamicMixer,
    ExecutionContext,
    StuckAt0,
    TestGenerator,
    ValveState,
    full_layout,
)
from repro.fpva import Cell
from repro.sim import FaultFold


def ring_intact(kernel, chip, mixer) -> bool:
    """Can fluid still circulate the full mixer ring on this chip?"""
    config = mixer.configuration(kernel.fpva)
    opened = {v for v, s in config.items() if s is ValveState.OPEN}
    # The chip's faults folded over one commanded configuration.
    fold = FaultFold(kernel, chip.faults, ["mixer"], [kernel.valve_mask(opened)])
    ((effective, _),) = fold.masks(range(len(chip.faults)))
    return all((effective >> kernel.valve_index[v]) & 1 for v in mixer.ring_valves)


def main() -> None:
    fpva = full_layout(8, 8, name="mixer-board")

    tall = DynamicMixer(Cell(2, 3), height=4, width=2)  # Fig 2(b)
    wide = DynamicMixer(Cell(3, 2), height=2, width=4)  # Fig 2(c)
    print(f"4x2 mixer: ring of {len(tall.ring_cells)} cells, "
          f"{len(tall.pump_valves)} pump valves")
    print(f"2x4 mixer: ring of {len(wide.ring_cells)} cells, "
          f"{len(wide.pump_valves)} pump valves")
    print(f"mixers share chip area (Fig 2(d)): {tall.overlaps(wide)}\n")

    for mixer, name in ((tall, "4x2"), (wide, "2x4")):
        mixer.validate(fpva)
        phases = mixer.pump_phases(plug_width=2)
        print(f"{name} mixer: {len(phases)} peristaltic phases; "
              f"phase 0 closes {sum(s is ValveState.CLOSED for s in phases[0].values())} pump valves")

    # A manufacturing defect in the shared area: one valve never opens.
    # It sits on the tall mixer's ring but only walls the wide mixer.
    broken = tall.ring_valves[0]
    chip = ChipUnderTest(fpva, [StuckAt0(broken)])
    ctx = ExecutionContext(fpva)
    print(f"\ninjected defect: {StuckAt0(broken)}")
    print(f"  4x2 mixer ring usable: {ring_intact(ctx.kernel, chip, tall)}")
    print(f"  2x4 mixer ring usable: {ring_intact(ctx.kernel, chip, wide)}")

    # The generated suite catches the defect at manufacturing test, before
    # any application mapping happens — the ring check, generation and
    # testing share one compiled-kernel session.
    suite = TestGenerator(fpva, include_leakage=False, context=ctx).generate().testset
    tester = ctx.tester
    run = tester.run(chip, suite.all_vectors(), stop_at_first_fail=True)
    print(f"\nmanufacturing test: defect detected = {run.fault_detected} "
          f"(vector {run.failing[0].vector.name!r})")


if __name__ == "__main__":
    main()

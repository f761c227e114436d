"""Fault model and chip-under-test semantics."""

import itertools
import random

import pytest

import oracle
from repro.engine import get_scenario, scenario_names
from repro.fpva import full_layout, table1_layout
from repro.fpva.geometry import Cell, edge_between
from repro.core.vectors import TestVector, VectorKind
from repro.sim import (
    ChipUnderTest,
    ControlLeak,
    FaultFold,
    ReachabilityKernel,
    StuckAt0,
    StuckAt1,
    control_leak_faults,
    fault_universe,
    faults_compatible,
    faulty_valves,
    stuck_at_faults,
)
from repro.sim.diagnosis import iter_fault_sets
from repro.sim.faults import compatibility_key, max_compatible_faults

#: The arrays the compatibility rule is pinned on, built on demand.
COMPAT_LAYOUTS = {
    "full-3x3": lambda: full_layout(3, 3),
    "full-4x4": lambda: full_layout(4, 4),
    "table1-5x5": lambda: table1_layout(5),
}


class TestFaultUniverse:
    def test_stuck_at_counts(self, tiny):
        assert len(stuck_at_faults(tiny)) == 2 * tiny.valve_count

    def test_universe_includes_leaks(self, tiny):
        uni = fault_universe(tiny)
        leaks = [f for f in uni if isinstance(f, ControlLeak)]
        assert leaks and len(uni) == 2 * tiny.valve_count + len(leaks)

    def test_universe_without_leaks(self, tiny):
        uni = fault_universe(tiny, include_control_leaks=False)
        assert len(uni) == 2 * tiny.valve_count

    def test_leak_normalization(self, tiny):
        a, b = tiny.valves[0], tiny.valves[1]
        assert ControlLeak(a, b) == ControlLeak(b, a)

    def test_leak_same_valve_rejected(self, tiny):
        with pytest.raises(ValueError):
            ControlLeak(tiny.valves[0], tiny.valves[0])

    def test_compatibility(self, tiny):
        v = tiny.valves[0]
        assert not faults_compatible([StuckAt0(v), StuckAt1(v)])
        assert not faults_compatible([StuckAt0(v), StuckAt0(v)])
        assert faults_compatible([StuckAt0(v), StuckAt1(tiny.valves[1])])

    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_max_compatible_faults_is_one_per_key(self, tiny, scenario_name):
        """One fault per compatibility key is compatible, and no universe
        fault can join it."""
        universe = get_scenario(scenario_name).universe(tiny)
        one_per_key = list(
            {compatibility_key(f): f for f in universe}.values()
        )
        assert max_compatible_faults(universe) == len(one_per_key)
        assert faults_compatible(one_per_key)
        for extra in universe:
            if extra not in one_per_key:
                assert not faults_compatible(one_per_key + [extra])

    @pytest.mark.parametrize("scenario_name", scenario_names())
    @pytest.mark.parametrize("layout", sorted(COMPAT_LAYOUTS))
    def test_key_rule_matches_the_kind_rules(self, layout, scenario_name):
        """One fault per key is exactly the fault-kind rules of the
        reference: on every pair (a fault with itself included) and on
        random 3- to 5-fault draws, duplicates included."""
        universe = get_scenario(scenario_name).universe(COMPAT_LAYOUTS[layout]())
        for pair in itertools.combinations_with_replacement(universe, 2):
            assert faults_compatible(pair) == oracle.faults_compatible(pair), pair
        by_key: dict = {}
        for fault in universe:
            by_key.setdefault(compatibility_key(fault), []).append(fault)
        groups = list(by_key.values())
        rng = random.Random(f"{layout}/{scenario_name}")
        verdicts = set()
        for _ in range(1500):
            k = rng.randint(3, 5)
            # Drawing with replacement from about k key groups makes
            # shared keys and duplicates common; the whole universe
            # mostly gives compatible sets.
            pool = universe
            if rng.random() < 0.7:
                few = rng.sample(groups, min(len(groups), rng.randint(2, k + 1)))
                pool = [fault for group in few for fault in group]
            faults = rng.choices(pool, k=k)
            verdict = faults_compatible(faults)
            assert verdict == oracle.faults_compatible(faults), faults
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_enumeration_matches_the_kind_rules(self, scenario_name):
        """The dictionary's pairs and triples, chosen on keys alone, are
        the compatible sets of the reference rules in enumeration order."""
        universe = get_scenario(scenario_name).universe(full_layout(3, 3))
        assert list(iter_fault_sets(universe, 2)) == [
            (fault,) for fault in universe
        ] + [
            pair
            for pair in itertools.combinations(universe, 2)
            if oracle.faults_compatible(pair)
        ]
        first = list(dict.fromkeys(map(compatibility_key, universe)))[:6]
        dense = [f for f in universe if compatibility_key(f) in first]
        assert list(iter_fault_sets(dense, 3, min_cardinality=3)) == [
            triple
            for triple in itertools.combinations(dense, 3)
            if oracle.faults_compatible(triple)
        ]

    def test_faulty_valves(self, tiny):
        a, b, c = tiny.valves[:3]
        touched = faulty_valves([StuckAt0(a), ControlLeak(b, c)])
        assert touched == {a, b, c}

    def test_leak_candidates_are_adjacent(self, tiny):
        for fault in control_leak_faults(tiny):
            assert set(fault.a.dual()) & set(fault.b.dual())


def effective_open_valves(chip, commanded):
    """The valves ``chip`` leaves open under ``commanded``, read from the
    production fold, which must agree with the object-level model."""
    kernel = ReachabilityKernel(chip.fpva)
    fold = FaultFold(kernel, chip.faults, ["v"], [kernel.valve_mask(commanded)])
    ((open_mask, _),) = fold.masks(range(len(chip.faults)))
    opened = {v for v, i in kernel.valve_index.items() if (open_mask >> i) & 1}
    vector = TestVector("v", VectorKind.BASELINE, frozenset(commanded), {})
    assert opened == oracle.effective_state(chip, vector)[0]
    return opened


class TestChipUnderTest:
    def test_fault_free_identity(self, tiny):
        chip = ChipUnderTest(tiny)
        opened = frozenset(tiny.valves[:5])
        assert effective_open_valves(chip, opened) == opened

    def test_stuck_at_overrides(self, tiny):
        v0, v1 = tiny.valves[0], tiny.valves[1]
        chip = ChipUnderTest(tiny, [StuckAt0(v0), StuckAt1(v1)])
        effective = effective_open_valves(chip, {v0})
        assert v0 not in effective  # SA0 wins over the open command
        assert v1 in effective  # SA1 keeps it open though commanded closed

    def test_control_leak_propagates_closure(self, tiny):
        a, b = tiny.valves[0], tiny.valves[1]
        chip = ChipUnderTest(tiny, [ControlLeak(a, b)])
        # a commanded closed, b commanded open -> leak closes b too.
        effective = effective_open_valves(chip, {b})
        assert b not in effective
        # Both commanded open -> nothing closes.
        effective = effective_open_valves(chip, {a, b})
        assert {a, b} <= effective

    def test_control_leak_chain(self, tiny):
        a, b, c = tiny.valves[0], tiny.valves[1], tiny.valves[2]
        chip = ChipUnderTest(tiny, [ControlLeak(a, b), ControlLeak(b, c)])
        # a closed pressurizes b's line, which leaks on to c.
        effective = effective_open_valves(chip, {b, c})
        assert b not in effective and c not in effective

    def test_sa1_beats_leak(self, tiny):
        a, b = tiny.valves[0], tiny.valves[1]
        chip = ChipUnderTest(tiny, [ControlLeak(a, b), StuckAt1(b)])
        effective = effective_open_valves(chip, {b})
        assert b in effective  # cannot close a stuck-open valve

    def test_incompatible_set_rejected(self, tiny):
        v = tiny.valves[0]
        with pytest.raises(ValueError):
            ChipUnderTest(tiny, [StuckAt0(v), StuckAt1(v)])

    def test_fault_on_missing_valve_rejected(self, tiny):
        bogus = edge_between(Cell(1, 1), Cell(1, 2))
        other = full_layout(2, 2)
        # The edge exists on tiny; build a fault for a valve not on `other`.
        missing = edge_between(Cell(2, 2), Cell(2, 3))
        with pytest.raises(ValueError):
            ChipUnderTest(other, [StuckAt0(missing)])

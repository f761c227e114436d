"""Suite validation and the paper's two-fault detection guarantee."""

import pytest

import oracle
from repro.core import generate_suite
from repro.core.validate import (
    audit_two_fault_detection,
    validate_suite,
    validate_vector,
)
from repro.core.vectors import TestVector, VectorKind
from repro.fpva import full_layout
from repro.sim import ReachabilityKernel
from repro.sim.tester import Tester


@pytest.fixture(scope="module")
def suite4():
    fpva = full_layout(4, 4, name="theorem-4x4")
    return fpva, generate_suite(fpva)


@pytest.fixture(scope="module")
def suite5(table5):
    return table5, generate_suite(table5)


class TestValidation:
    def test_generated_suite_validates(self, suite4):
        fpva, suite = suite4
        report = validate_suite(fpva, suite.all_vectors(), check_pair_coverage=True)
        assert report.ok, report.issues[:5]

    def test_wrong_expectation_flagged(self, suite4):
        fpva, suite = suite4
        good = suite.flow_paths[0]
        bad = TestVector(
            name="bad",
            kind=good.kind,
            open_valves=good.open_valves,
            expected={k: not v for k, v in good.expected.items()},
        )
        report = validate_vector(fpva, bad)
        assert not report.ok

    def test_branching_path_flagged(self, suite4):
        fpva, suite = suite4
        base = suite.flow_paths[0]
        # Open every valve: massively branching, full of bypasses.
        bad = TestVector(
            name="branchy",
            kind=VectorKind.FLOW_PATH,
            open_valves=frozenset(fpva.valves),
            expected=ReachabilityKernel(fpva).meter_readings(frozenset(fpva.valves)),
        )
        report = validate_vector(fpva, bad)
        assert any("branching" in i.problem or "bypass" in i.problem for i in report.issues)

    def test_non_separating_cut_flagged(self, suite4):
        fpva, _ = suite4
        bad = TestVector(
            name="leaky-cut",
            kind=VectorKind.CUT_SET,
            open_valves=frozenset(fpva.valves),  # nothing closed at all
            expected={s.name: False for s in fpva.sinks},
        )
        report = validate_vector(fpva, bad)
        assert not report.ok

    def test_missing_coverage_flagged(self, suite4):
        fpva, suite = suite4
        # Cut-sets alone leave every stuck-at-0 unobserved.
        report = validate_suite(fpva, suite.cut_sets)
        assert any("stuck-at-0" in i.problem for i in report.issues)


class TestTwoFaultTheorem:
    """Section III: 'can guarantee the detection of up to two faults'."""

    def test_all_singles_and_pairs_detected(self, suite4):
        fpva, suite = suite4
        audit = audit_two_fault_detection(
            fpva,
            suite.all_vectors(),
            include_control_leaks=False,
            max_pairs=None,  # exhaustive: C(48, 2) pairs
        )
        assert audit.singles_checked == 2 * fpva.valve_count
        assert not audit.singles_missed
        assert audit.pairs_checked > 1000
        assert not audit.pairs_missed, audit.pairs_missed[:5]

    def test_with_control_leaks_sampled(self, suite4):
        fpva, suite = suite4
        audit = audit_two_fault_detection(
            fpva,
            suite.all_vectors(),
            include_control_leaks=True,
            max_pairs=500,
        )
        assert not audit.singles_missed
        assert not audit.pairs_missed, audit.pairs_missed[:5]

    def test_incomplete_suite_fails_audit(self, suite4):
        fpva, suite = suite4
        audit = audit_two_fault_detection(
            fpva, suite.flow_paths, include_control_leaks=False, max_pairs=100
        )
        # Flow paths alone cannot see stuck-at-1 faults.
        assert audit.singles_missed

    @pytest.mark.parametrize("max_pairs", [None, 500])
    @pytest.mark.parametrize("include_control_leaks", [False, True])
    def test_matches_the_chip_at_a_time_oracle(
        self, suite5, include_control_leaks, max_pairs
    ):
        """Same singles, same sampled pairs, same misses in the same order."""
        fpva, suite = suite5
        kwargs = dict(
            include_control_leaks=include_control_leaks, max_pairs=max_pairs
        )
        audit = audit_two_fault_detection(fpva, suite.all_vectors(), **kwargs)
        reference = oracle.audit_two_fault_detection(
            fpva, suite.all_vectors(), **kwargs
        )
        assert audit == reference

    def test_batched_without_applying_chips(self, suite4, monkeypatch):
        """The audit judges every set through the batch evaluator and
        never applies a chip vector by vector."""

        def refuse(*args, **kwargs):
            raise AssertionError("Tester.apply called by the audit")

        monkeypatch.setattr(Tester, "apply", refuse)
        fpva, suite = suite4
        audit = audit_two_fault_detection(
            fpva, suite.all_vectors(), include_control_leaks=True, max_pairs=500
        )
        assert audit.ok and audit.pairs_checked == 500

"""Pressure simulation, fault injection and diagnosis substrate."""

from repro.sim.campaign import CampaignResult, merge_shards, sample_fault_set
from repro.sim.chip import ChipUnderTest
from repro.sim.diagnosis import DiagnosisReport, FaultDictionary, iter_fault_sets
from repro.sim.seeding import mix_seed
from repro.sim.faults import (
    ChannelBlocked,
    ControlLeak,
    Fault,
    IntermittentStuckAt,
    StuckAt0,
    StuckAt1,
    control_leak_faults,
    fault_universe,
    untestable_leak_pairs,
    faults_compatible,
    faulty_valves,
    stuck_at_faults,
)
from repro.sim.kernel import BatchEvaluator, CompiledFaultSet, ReachabilityKernel
from repro.sim.pressure import PressureSimulator
from repro.sim.tester import Tester, TestRunResult, VectorOutcome

__all__ = [
    "CampaignResult",
    "merge_shards",
    "sample_fault_set",
    "ChipUnderTest",
    "DiagnosisReport",
    "FaultDictionary",
    "iter_fault_sets",
    "mix_seed",
    "ChannelBlocked",
    "ControlLeak",
    "Fault",
    "IntermittentStuckAt",
    "StuckAt0",
    "StuckAt1",
    "control_leak_faults",
    "fault_universe",
    "untestable_leak_pairs",
    "faults_compatible",
    "faulty_valves",
    "stuck_at_faults",
    "BatchEvaluator",
    "CompiledFaultSet",
    "ReachabilityKernel",
    "PressureSimulator",
    "Tester",
    "TestRunResult",
    "VectorOutcome",
]

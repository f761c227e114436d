"""Top-level test generation facade.

:class:`TestGenerator` produces the complete suite of one array — flow
paths, cut-sets and control-leakage vectors — and reports the Table I
columns (n_p, t_p, n_c, t_c, n_l, t_l, N, T).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.context import ExecutionContext
from repro.core.cutsets import CutSetGenerator
from repro.core.heuristic import GreedyPathGenerator
from repro.core.hierarchy import BlockGrid, HierarchicalPathGenerator
from repro.core.leakage import LeakageGenerator
from repro.core.paths import FlowPathGenerator
from repro.core.repair import HardeningReport, harden_double_faults
from repro.core.vectors import TestSet
from repro.fpva.array import FPVA
from repro.ilp import SolveOptions

PATH_STRATEGIES = ("auto", "direct", "hierarchical", "greedy")
CUT_STRATEGIES = ("auto", "ilp", "sweep")

#: Largest cell count for which the direct whole-array ILP is attempted in
#: "auto" mode (the paper's direct model also stops being practical here).
DIRECT_ILP_CELL_LIMIT = 100

#: Version of the generation algorithms.  Stored suites are addressed by
#: the settings they were generated with (:meth:`TestGenerator.config`),
#: not by their contents, so bump this in any change that alters which
#: suite a configuration produces; old entries then stop being addressed.
#: Version 2: the cut-set ILP certifies the sweep's walls instead of
#: searching again, so arrays of up to 49 cells get the sweep's walls
#: whenever the model proves them optimal.
GENERATOR_VERSION = 2


@dataclass
class GenerationReport:
    """Timings and counts in Table I's layout."""

    array: str = ""
    nv: int = 0
    hierarchy: str = ""
    np_paths: int = 0
    tp_seconds: float = 0.0
    nc_cuts: int = 0
    tc_seconds: float = 0.0
    nl_leak: int = 0
    tl_seconds: float = 0.0
    #: Populated when double-fault hardening ran (see core/repair.py).
    hardening: HardeningReport | None = None
    #: How the suite was obtained: ``"cold"`` (generated) or ``"warm"``
    #: (loaded from the artifact store, so every timing is zero).
    mode: str = "cold"

    @property
    def total_vectors(self) -> int:
        return self.np_paths + self.nc_cuts + self.nl_leak

    @property
    def total_seconds(self) -> float:
        return self.tp_seconds + self.tc_seconds + self.tl_seconds

    def row(self) -> str:
        return (
            f"{self.array:>10}  nv={self.nv:5d}  {self.hierarchy:>5}  "
            f"np={self.np_paths:3d} ({self.tp_seconds:6.1f}s)  "
            f"nc={self.nc_cuts:3d} ({self.tc_seconds:6.1f}s)  "
            f"nl={self.nl_leak:3d} ({self.tl_seconds:6.1f}s)  "
            f"N={self.total_vectors:3d}  T={self.total_seconds:.1f}s"
        )


@dataclass
class GeneratedSuite:
    """A complete suite plus its generation report."""

    testset: TestSet
    report: GenerationReport


class TestGenerator:
    """Generates the full FPVA test suite."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        fpva: FPVA,
        path_strategy: str = "auto",
        cut_strategy: str = "auto",
        subblock: int = 5,
        solve_options: SolveOptions | None = None,
        include_leakage: bool = True,
        leakage_standalone: bool = True,
        harden_double_faults: bool = False,
        context: ExecutionContext | None = None,
    ):
        if path_strategy not in PATH_STRATEGIES:
            raise ValueError(f"path_strategy must be one of {PATH_STRATEGIES}")
        if cut_strategy not in CUT_STRATEGIES:
            raise ValueError(f"cut_strategy must be one of {CUT_STRATEGIES}")
        self.fpva = fpva
        self.path_strategy = path_strategy
        self.cut_strategy = cut_strategy
        self.subblock = subblock
        self.solve_options = solve_options
        self.include_leakage = include_leakage
        self.leakage_standalone = leakage_standalone
        self.harden_double_faults = harden_double_faults
        #: One session shared by every sub-generator (and the hardening
        #: pass), so the whole generate() run compiles at most one kernel
        #: and pools its batch-evaluation scenario tables.
        self.context = ExecutionContext.resolve(context, fpva)

    def _resolve_path_strategy(self) -> str:
        if self.path_strategy != "auto":
            return self.path_strategy
        cells = self.fpva.nr * self.fpva.nc
        return "direct" if cells <= DIRECT_ILP_CELL_LIMIT else "hierarchical"

    def config(self) -> dict:
        """The resolved settings that decide which suite :meth:`generate` returns.

        With the array, the solver and :data:`GENERATOR_VERSION`, this is
        what a stored suite is addressed by
        (:func:`repro.store.digest.suite_digest`).
        """
        return {
            "path_strategy": self._resolve_path_strategy(),
            "cut_strategy": self.cut_strategy,
            "subblock": self.subblock,
            "include_leakage": self.include_leakage,
            "leakage_standalone": self.leakage_standalone,
            "harden_double_faults": self.harden_double_faults,
            "solve_options": (
                None
                if self.solve_options is None
                else dataclasses.asdict(self.solve_options)
            ),
        }

    def _report(self) -> GenerationReport:
        """A report with the array's columns filled in and no counts yet."""
        direct = self._resolve_path_strategy() == "direct"
        return GenerationReport(
            array=f"{self.fpva.nr}x{self.fpva.nc}",
            nv=self.fpva.valve_count,
            hierarchy=(
                "1x1"
                if direct
                else BlockGrid(self.fpva, self.subblock).hierarchy_label()
            ),
        )

    def loaded(self, testset: TestSet) -> GeneratedSuite:
        """``testset``, loaded from the store, as this generator's result.

        Its report carries the loaded counts, no timings and
        ``mode="warm"``.
        """
        report = self._report()
        report.mode = "warm"
        report.np_paths = testset.np_paths
        report.nc_cuts = testset.nc_cuts
        report.nl_leak = testset.nl_leak
        return GeneratedSuite(testset=testset, report=report)

    def generate(self) -> GeneratedSuite:
        report = self._report()
        testset = TestSet(fpva=self.fpva)

        # Flow paths (n_p / t_p).
        strategy = self._resolve_path_strategy()
        t0 = time.perf_counter()
        if strategy == "direct":
            paths = FlowPathGenerator(
                self.fpva, solve_options=self.solve_options, context=self.context
            ).generate()
        elif strategy == "hierarchical":
            paths = HierarchicalPathGenerator(
                self.fpva,
                subblock=self.subblock,
                solve_options=self.solve_options,
                context=self.context,
            ).generate()
        else:
            paths = GreedyPathGenerator(self.fpva, context=self.context).generate()
        report.tp_seconds = time.perf_counter() - t0
        testset.flow_paths = paths.vectors
        report.np_paths = len(paths.vectors)

        # Cut-sets (n_c / t_c).
        t0 = time.perf_counter()
        cuts = CutSetGenerator(
            self.fpva,
            strategy=self.cut_strategy,
            solve_options=self.solve_options,
            context=self.context,
        ).generate()
        report.tc_seconds = time.perf_counter() - t0
        testset.cut_sets = cuts.vectors
        report.nc_cuts = len(cuts.vectors)

        # Control-layer leakage (n_l / t_l).
        if self.include_leakage:
            t0 = time.perf_counter()
            leaks = LeakageGenerator(self.fpva, context=self.context).generate(
                template_vectors=testset.flow_paths,
                standalone=self.leakage_standalone,
            )
            report.tl_seconds = time.perf_counter() - t0
            testset.leakage = leaks.vectors
            report.nl_leak = len(leaks.vectors)

        # Optional mixed-pair hardening (quadratic audit — opt-in).
        if self.harden_double_faults:
            report.hardening = harden_double_faults(
                self.fpva, testset, context=self.context
            )
            report.np_paths = len(testset.flow_paths)
            report.nc_cuts = len(testset.cut_sets)

        return GeneratedSuite(testset=testset, report=report)


def generate_suite(fpva: FPVA, **kwargs) -> TestSet:
    """One-call convenience: the full suite with default settings."""
    return TestGenerator(fpva, **kwargs).generate().testset

"""ExecutionContext: one compiled-kernel session for every layer.

Every layer that simulates — the ``core`` generators, coverage,
validation, hardening, dictionaries and campaigns — takes ``context=``
and asks the session, so one ``generate`` invocation compiles one
:class:`~repro.sim.kernel.ReachabilityKernel`, and warm starts need no
``kernel=`` or ``cache_dir=`` threaded through intermediate signatures.

An :class:`ExecutionContext` (a *session*) owns the tuple

    (array, compiled kernel, artifact store)

and hands out the shared per-array machinery derived from it:

* :attr:`kernel` — compiled **exactly once** per context, on first use.
  Kernels are never stored: a compile costs less than loading and
  checking a stored copy did (README, "Persistence & warm starts"), so
  the store keeps only what is dear to derive, suites and dictionaries.
  A campaign sweep takes its kernel from here but runs its shards on a
  :class:`~repro.sim.kernel.BatchEvaluator` of its own
  (:mod:`repro.engine.parallel`), as the hardening audit does, so the
  session holds no scenario pool.  The generators ask it their
  fault-free questions directly
  (:meth:`~repro.sim.kernel.ReachabilityKernel.meter_readings`);
* :attr:`tester` — the shared :class:`~repro.sim.tester.Tester` that
  applies faulty chips on that kernel;
* :meth:`suite` — the array's generated test suite, warm-loaded from
  the store's :class:`~repro.store.SuiteStore` when one is configured,
  or generated and published there.

Every session simulates through the compiled bitmask kernel, and
batched propagation runs on the ``tile`` tier of
:mod:`repro.sim.backends`.  Only tests and the kernel benchmark put the
``word`` reference tier on a kernel, by assigning
``kernel.backend = WordBackend(kernel)`` on one they compile themselves,
and adopt it through ``kernel=``; the object-graph engine and the serial
loops the batched paths are pinned to live in ``tests/oracle.py``.

Contexts deliberately stay cheap to create: nothing compiles until the
first consumer asks, so a layer given ``context=None`` builds one lazy
session of its own.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Sequence

from repro.fpva.array import FPVA
from repro.sim.kernel import ReachabilityKernel
from repro.sim.tester import Tester

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependencies
    from repro.core.testgen import GeneratedSuite
    from repro.core.vectors import TestVector
    from repro.store import ArtifactStore


class ExecutionContext:
    """One array's compiled-simulation session, shared across layers.

    Parameters
    ----------
    fpva:
        The array every derived object is bound to.
    store:
        An :class:`~repro.store.ArtifactStore`, or a cache-directory path
        (the CLI's ``--cache-dir``), enabling suite and dictionary
        persistence.
    kernel:
        Optional pre-compiled kernel to adopt (it must have been
        compiled for ``fpva``); the context then never compiles, and the
        kernel keeps whatever backend tier it carries.
    """

    #: Always 0, since kernels are compiled and never loaded; kept only
    #: because the repository benchmark's tracer (``perfbench``) reads it.
    kernel_loads = 0

    def __init__(
        self,
        fpva: FPVA,
        *,
        store: "ArtifactStore | str | os.PathLike | None" = None,
        kernel: ReachabilityKernel | None = None,
    ) -> None:
        if kernel is not None and kernel.fpva is not fpva:
            raise ValueError("kernel was compiled for a different array")
        from repro.store import as_store

        self.fpva = fpva
        self.store: ArtifactStore | None = as_store(store)
        self._kernel = kernel
        #: Kernel compiles this context paid (asserted == 1 by test).
        self.kernel_compiles = 0
        self._tester: Tester | None = None

    # -- resolution helpers -------------------------------------------------
    @classmethod
    def resolve(
        cls, context: "ExecutionContext | None", fpva: FPVA
    ) -> "ExecutionContext":
        """``context`` if given (validated against ``fpva``), else a fresh one.

        The standard constructor-argument pattern: every layer accepts
        ``context=None`` and resolves it through here, so omitting the
        argument keeps the old build-your-own behaviour while passing a
        session shares one kernel across the whole stack.
        """
        if context is None:
            return cls(fpva)
        if not isinstance(context, cls):
            raise TypeError(
                f"context must be an ExecutionContext, got {type(context).__name__}"
            )
        if context.fpva is not fpva:
            raise ValueError(
                f"context was created for array {context.fpva.name!r}, "
                f"not {fpva.name!r}"
            )
        return context

    # -- the compiled kernel ------------------------------------------------
    @property
    def kernel(self) -> ReachabilityKernel:
        """The compiled kernel — built exactly once, on first use."""
        if self._kernel is None:
            self._kernel = ReachabilityKernel(self.fpva)
            self.kernel_compiles += 1
        return self._kernel

    # -- shared derived machinery -------------------------------------------
    @property
    def tester(self) -> Tester:
        """The session's one shared tester, on :attr:`kernel`."""
        if self._tester is None:
            self._tester = Tester(self.fpva, self.kernel)
        return self._tester

    def suite(self) -> "GeneratedSuite":
        """The array's default test suite, generated at most once per store.

        With a :attr:`store` configured, a suite stored under the same
        layout, resolved generator settings, solver and generator version
        is loaded instead of re-solving its ILPs; otherwise the suite is
        generated and published, so the *next* session loads it.  The
        report's ``mode`` records which happened (``"warm"`` or
        ``"cold"``).  A damaged stored suite is quarantined and
        regenerated.
        """
        from repro.core.testgen import GENERATOR_VERSION, TestGenerator

        generator = TestGenerator(self.fpva, context=self)
        if self.store is None:
            return generator.generate()
        from repro.ilp.solver import solver_identity
        from repro.store import ArtifactCorruptionError, suite_digest

        digest = suite_digest(
            self.fpva, generator.config(), solver_identity(), GENERATOR_VERSION
        )
        try:
            testset = self.store.suites.load(digest, self.fpva)
        except ArtifactCorruptionError as error:
            self.store.suites.heal(digest, error)
            testset = None
        if testset is not None:
            return generator.loaded(testset)
        generated = generator.generate()
        self.store.suites.save(digest, generated.testset)
        return generated

    def dictionary(
        self,
        vectors: Sequence["TestVector"],
        *,
        max_cardinality: int = 1,
        universe: Sequence[Any] | None = None,
        base_digest: str | None = None,
    ) -> Any:
        """A :class:`~repro.sim.diagnosis.FaultDictionary` on this session.

        ``universe`` names the faults it models; ``None`` is the paper's
        stuck-at/control-leak space (:func:`~repro.sim.faults.fault_universe`).
        The session's kernel and store are shared; when a
        store is configured the dictionary warm-loads, or — failing that —
        delta-builds from the nearest stored ancestor (same layout and
        universe, suite/cardinality subsumed), simulating only the new
        vectors and fault sets.  ``base_digest`` pins the ancestor.  The
        dictionary's ``build_stats["mode"]`` records which of the three
        (``"warm"``, ``"delta"`` or ``"cold"``) it took.
        """
        from repro.sim.diagnosis import FaultDictionary

        return FaultDictionary(
            self.fpva,
            vectors,
            max_cardinality=max_cardinality,
            universe=universe,
            context=self,
            base_digest=base_digest,
        )

    def __repr__(self) -> str:
        kernel = "compiled" if self._kernel is not None else "lazy"
        store = repr(str(self.store.root)) if self.store is not None else None
        return (
            f"ExecutionContext({self.fpva.name!r}, kernel={kernel}, "
            f"store={store})"
        )

"""ExecutionContext: one compiled-kernel session for every layer.

Before this module existed, each layer that needed simulation built its
own :class:`~repro.sim.pressure.PressureSimulator` — nine independent
call sites across the ``core`` generators alone — so a single
``generate`` invocation compiled the same
:class:`~repro.sim.kernel.ReachabilityKernel` many times over, and every
caller that wanted warm starts or the batched engine re-threaded
``kernel=``, ``cache_dir=`` and backend strings by hand through each
intermediate signature.

An :class:`ExecutionContext` (a.k.a. *session*) owns the tuple

    (array, compiled kernel, artifact store, seed)

and hands out the shared per-array machinery derived from it:

* :attr:`kernel` — compiled **exactly once** per context, warm-loaded
  from the :class:`~repro.store.KernelStore` when a cache directory is
  configured (and persisted there after a cold compile);
* :attr:`simulator` / :attr:`tester` — one shared
  :class:`~repro.sim.pressure.PressureSimulator` /
  :class:`~repro.sim.tester.Tester` pair on top of that kernel;
* :meth:`evaluator` — a memoized per-suite
  :class:`~repro.sim.kernel.BatchEvaluator`, so consumers that batch
  over the same vector suite (coverage accounting, double-fault
  hardening, campaign sweeps) share one scenario-dedup pool;
* :meth:`rng` — deterministic per-purpose random streams derived from
  the session seed through the splitmix64 mixer
  (:func:`repro.sim.seeding.mix_seed`).

Every session simulates through the compiled bitmask kernel, and
batched propagation runs on the ``tile`` tier of
:mod:`repro.sim.backends`.  The ``word`` reference tier is attached only
by tests and the kernel benchmark, on a kernel they compile themselves
and adopt through ``kernel=``; the object-graph engine and the serial
loops the batched paths are pinned to live in ``tests/oracle.py``.

Contexts deliberately stay cheap to create: nothing compiles until the
first consumer asks, so passing ``context=None`` everywhere retains the
old build-privately behaviour (now deduplicated behind one lazy session
instead of per-call-site simulators).
"""

from __future__ import annotations

import os
import random
from typing import TYPE_CHECKING, Any, Sequence

from repro.fpva.array import FPVA
from repro.sim.kernel import BatchEvaluator, ReachabilityKernel
from repro.sim.pressure import PressureSimulator
from repro.sim.seeding import mix_seed
from repro.sim.tester import Tester

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependencies
    from repro.core.vectors import TestVector
    from repro.store import ArtifactStore


class ExecutionContext:
    """One array's compiled-simulation session, shared across layers.

    Parameters
    ----------
    fpva:
        The array every derived object is bound to.
    store / cache_dir:
        An :class:`~repro.store.ArtifactStore` (or a cache-directory
        path) enabling kernel warm starts and dictionary persistence.
        ``cache_dir`` is the convenience spelling the CLI uses; passing
        both is an error.
    seed:
        Session seed; :meth:`rng` derives independent deterministic
        streams from it per purpose.
    kernel:
        Optional pre-compiled kernel to adopt (it must have been
        compiled for ``fpva``); the context then never compiles, and the
        kernel keeps whatever backend tier it carries.
    """

    #: Most-recently-used :meth:`evaluator` entries kept per session
    #: (each holds its accumulated scenario-readings pool).
    MAX_CACHED_EVALUATORS = 8

    def __init__(
        self,
        fpva: FPVA,
        *,
        store: "ArtifactStore | str | os.PathLike | None" = None,
        cache_dir: str | os.PathLike | None = None,
        seed: int = 0,
        kernel: ReachabilityKernel | None = None,
    ) -> None:
        if store is not None and cache_dir is not None:
            raise ValueError("pass either store= or cache_dir=, not both")
        if kernel is not None and kernel.fpva is not fpva:
            raise ValueError("kernel was compiled for a different array")
        from repro.store import as_store

        self.fpva = fpva
        self.seed = seed
        self.store: ArtifactStore | None = as_store(
            store if store is not None else cache_dir
        )
        self._kernel = kernel
        #: Cold kernel compiles this context paid (asserted == 1 by test).
        self.kernel_compiles = 0
        #: Kernel warm loads served from :attr:`store`.
        self.kernel_loads = 0
        #: Corrupt stored kernels this context quarantined and rebuilt.
        self.kernel_heals = 0
        #: Dictionary builds by mode (see :meth:`dictionary`): tables
        #: served straight off disk, assembled from a stored ancestor's
        #: rows, and simulated from scratch, respectively.
        self.dictionary_warm_loads = 0
        self.dictionary_delta_builds = 0
        self.dictionary_cold_builds = 0
        self._simulator: PressureSimulator | None = None
        self._tester: Tester | None = None
        self._evaluators: dict[tuple, BatchEvaluator] = {}

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
        """The compiled kernel — built (or warm-loaded) exactly once.

        With a :attr:`store` configured, a stored artifact is loaded
        verbatim (bit-identical readings, no compile); a cold compile is
        persisted so the *next* session warm-starts.  Stored artifacts
        hold only the arc table, so a loaded kernel attaches the ``tile``
        tier on first batched use, exactly like a fresh compile.

        A stored artifact that fails checksum verification is
        quarantined and recompiled from the array — the session
        self-heals instead of crashing (or worse, simulating on corrupt
        arc tables), and :attr:`kernel_heals` counts the event.
        """
        if self._kernel is None:
            from repro.store import ArtifactCorruptionError

            loaded = None
            if self.store is not None:
                try:
                    loaded = self.store.kernels.load(self.fpva)
                except ArtifactCorruptionError as error:
                    self.store.kernels.heal(self.fpva, error)
                    self.kernel_heals += 1
            if loaded is not None:
                self._kernel = loaded
                self.kernel_loads += 1
            else:
                self._kernel = ReachabilityKernel(self.fpva)
                self.kernel_compiles += 1
                if self.store is not None:
                    self.store.kernels.save(self._kernel)
        return self._kernel

    # -- shared derived machinery -------------------------------------------
    @property
    def simulator(self) -> PressureSimulator:
        """The session's one shared simulator, on top of :attr:`kernel`."""
        if self._simulator is None:
            self._simulator = PressureSimulator(self.fpva, kernel=self.kernel)
        return self._simulator

    @property
    def tester(self) -> Tester:
        """The session's one shared tester, on top of :attr:`simulator`."""
        if self._tester is None:
            self._tester = Tester(simulator=self.simulator)
        return self._tester

    def evaluator(self, vectors: Sequence["TestVector"]) -> BatchEvaluator:
        """The shared :class:`BatchEvaluator` for one vector suite.

        Memoized by suite content, so every batched consumer of the same
        suite (coverage, hardening, campaigns) pools its scenario dedup
        table.
        """
        key = tuple(
            (v.name, v.open_valves, tuple(sorted(v.expected.items())))
            for v in vectors
        )
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = self._evaluators[key] = BatchEvaluator(
                self.kernel, vectors
            )
            # Evaluators accumulate their scenario pools; bound the memo
            # so a session that iterates over many distinct suites (e.g.
            # hardening mutating a testset per round) cannot grow without
            # limit.  LRU order: a hit below re-registers the key.
            while len(self._evaluators) > self.MAX_CACHED_EVALUATORS:
                self._evaluators.pop(next(iter(self._evaluators)))
        else:
            self._evaluators[key] = self._evaluators.pop(key)
        return evaluator

    def dictionary(
        self,
        vectors: Sequence["TestVector"],
        *,
        max_cardinality: int = 1,
        universe: Sequence[Any] | None = None,
        include_control_leaks: bool = True,
        base_digest: str | None = None,
        incremental: bool = True,
        chunk_size: int | None = None,
    ) -> Any:
        """A :class:`~repro.sim.diagnosis.FaultDictionary` on this session.

        The session's kernel and store are shared; when a
        store is configured the dictionary warm-loads, or — failing that —
        delta-builds from the nearest stored ancestor (same layout and
        universe, suite/cardinality subsumed), simulating only the new
        vectors and fault sets.  ``base_digest`` pins the ancestor;
        ``incremental=False`` forces the pre-lineage cold path.  The
        session counts each outcome in :attr:`dictionary_warm_loads` /
        :attr:`dictionary_delta_builds` / :attr:`dictionary_cold_builds`.
        """
        from repro.sim.diagnosis import DEFAULT_CHUNK_SIZE, FaultDictionary

        dictionary = FaultDictionary(
            self.fpva,
            vectors,
            include_control_leaks=include_control_leaks,
            max_cardinality=max_cardinality,
            universe=universe,
            chunk_size=chunk_size or DEFAULT_CHUNK_SIZE,
            context=self,
            base_digest=base_digest,
            incremental=incremental,
        )
        mode = dictionary.build_stats.get("mode")
        if mode == "warm":
            self.dictionary_warm_loads += 1
        elif mode == "delta":
            self.dictionary_delta_builds += 1
        else:
            self.dictionary_cold_builds += 1
        return dictionary

    def shipping_spec(self) -> ReachabilityKernel | str:
        """The kernel a shard payload headed to worker processes carries.

        The persisted artifact's *path* when a store is configured (the
        sharded pool and the campaign fabric then ship a string instead
        of pickling a kernel per process), or the compiled kernel itself
        without one.
        """
        # Materialize first: a cold compile persists itself through the
        # session store, so the has() check below only catches a kernel
        # the context adopted pre-compiled (never written anywhere).
        kernel = self.kernel
        if self.store is None:
            return kernel
        if not self.store.kernels.has(self.fpva):
            self.store.kernels.save(kernel)
        return str(self.store.kernels.path_for(self.fpva))

    def rng(self, *stream: int) -> random.Random:
        """A deterministic RNG for one purpose-stream of the session.

        ``stream`` components are mixed into :attr:`seed` through the
        splitmix64 finalizer, so ``rng(1)`` and ``rng(2)`` never collide
        the way naive ``seed + k`` arithmetic does.
        """
        return random.Random(mix_seed(self.seed, *stream) if stream else self.seed)

    def __repr__(self) -> str:
        kernel = "compiled" if self._kernel is not None else "lazy"
        store = repr(str(self.store.root)) if self.store is not None else None
        return (
            f"ExecutionContext({self.fpva.name!r}, kernel={kernel}, "
            f"store={store}, seed={self.seed})"
        )


#: The ISSUE's "a.k.a. session" spelling.
Session = ExecutionContext

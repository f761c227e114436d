"""Spans around calls into each layer's public functions.

Tracing lives entirely in the benchmark: :class:`LayerProbes` swaps
timing wrappers onto a fixed list of public functions and methods for
the traced rounds of a run and restores the originals afterwards, so
the program under test is never edited and an untraced round runs it
unwrapped.  Spans are kept in memory by a :class:`Recorder` and written
out once, as Chrome trace-event JSON (open it in Perfetto or
chrome://tracing).
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    round: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span tree plus counters, one stack (the load is serial)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.round = -1
        #: Off in untraced rounds: span() then records nothing.
        self.enabled = False
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            round=self.round,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.round, name)] += n

    # -- per-round views -------------------------------------------------
    def total_s(self, name: str, round_: int) -> float:
        return sum(s.duration for s in self.spans if s.name == name and s.round == round_)

    def calls(self, name: str, round_: int) -> int:
        return sum(1 for s in self.spans if s.name == name and s.round == round_)

    def counted(self, name: str, round_: int) -> float:
        return self.counts.get((round_, name), 0.0)

    def within(self, outer: str, inner: str, round_: int) -> float:
        """Time ``inner`` spans spent inside ``outer`` spans of a round."""
        by_id = {s.id: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s.name != inner or s.round != round_:
                continue
            parent = by_id.get(s.parent)
            while parent is not None and parent.name != outer:
                parent = by_id.get(parent.parent)
            if parent is not None:
                total += s.duration
        return total

    def write_chrome(self, path, pid: int) -> None:
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - self.origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": max(s.round, 0),
                "args": {"id": s.id, "parent": s.parent, "round": s.round, **s.attrs},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class LayerProbes:
    """Timing wrappers on layer entry points, installed for a traced round."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []
        #: Batch evaluator -> its scenario pool size after its last flush.
        self._pools: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: ``DrainStats`` returned by journaled sweeps, per round.
        self.drains: dict[int, list] = defaultdict(list)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, owner, attr: str, span_name: str, after=None) -> None:
        original = getattr(owner, attr)
        rec = self.rec

        def wrapper(*args, **kwargs):
            with rec.span(span_name) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        import repro.fabric
        import repro.ilp.scipy_backend
        import repro.store
        from repro.context import ExecutionContext
        from repro.ilp import SolveStatus
        from repro.sim.backends import TileBackend, WordBackend
        from repro.sim.kernel import BatchEvaluator
        from repro.sim.tester import Tester
        from repro.store.dictionaries import DictionaryStore, DictionaryWriter

        rec = self.rec

        def ilp_status(span, args, solution):
            if solution.status is not SolveStatus.OPTIMAL:
                rec.count("ilp.nonoptimal")

        # repro.ilp.solve imports its HiGHS backend at call time, so the
        # module attribute is the one every solve goes through.
        self._timed(repro.ilp.scipy_backend, "solve_with_scipy", "ilp.solve", after=ilp_status)

        def simulated(span, args, result):
            # A flush simulates exactly the scenarios interned since the last one.
            evaluator = args[0]
            pool = evaluator.distinct_scenarios
            rec.count("kernel.distinct_scenarios", pool - self._pools.get(evaluator, 0))
            self._pools[evaluator] = pool

        self._timed(BatchEvaluator, "flush", "kernel.flush", after=simulated)
        for backend in (TileBackend, WordBackend):
            self._timed(backend, "reach_words", "backend.reach_words")
        self._timed(DictionaryWriter, "commit", "store.publish")
        self._timed(DictionaryStore, "load", "store.load")
        # FaultDictionary imports resolve_ancestor from repro.store at call time.
        self._timed(repro.store, "resolve_ancestor", "lineage.resolve")
        self._timed(Tester, "apply", "tester.apply")

        def drained(span, args, result):
            self.drains[rec.round].append(result[1])

        # repro.engine routes journal_dir= sweeps through this attribute.
        self._timed(repro.fabric, "run_journaled_sweep", "fabric.drain", after=drained)

        kernel_property = ExecutionContext.__dict__["kernel"]

        def kernel_getter(ctx):
            compiles, loads = ctx.kernel_compiles, ctx.kernel_loads
            start = time.perf_counter()
            kernel = kernel_property.fget(ctx)
            if ctx.kernel_compiles != compiles:
                rec.count("context.kernel_compiles", ctx.kernel_compiles - compiles)
                rec.count("kernel.compile_s", time.perf_counter() - start)
            rec.count("context.kernel_loads", ctx.kernel_loads - loads)
            return kernel

        self._patch(ExecutionContext, "kernel", property(kernel_getter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

"""The four workloads, run in a fresh child process by ``run.py``.

Usage (normally only through run.py)::

    python3 perfbench/workloads.py REQUEST_JSON

``REQUEST_JSON`` names the workload, seed, run length, trace flag, scale
and a work directory; the child writes its raw samples to
``<work>/result.json``.  Load is a closed loop from this one process:
each call starts when the previous one returns, campaigns use
``workers=1`` and CLI invocations run one subprocess at a time.

A run is the workload's set-up, repeated ``setup_reps`` times, then a
sequence of rounds.  A round performs every operation of the workload
once, and rounds repeat (at least ``MIN_ROUNDS`` times) until the next
one's timed work, in reference seconds, would overrun the run length.
The host-speed probe (``hostspeed.py``) samples the worker's core all
through the run, so every set-up repetition and every timed operation
has a time in reference seconds beside its wall time.  The seed picks
the inputs.  They are the same every round, except that ``screen`` draws
fresh chips each round, so its pooled diagnosis times are distinct
sessions.  In a traced run, rounds alternate untraced and traced, so the
traced run also measures its own overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from functools import cached_property
from pathlib import Path
from statistics import median

from hostspeed import HostSpeed
from tracing import LayerProbes, Recorder

#: Workload sizes.  "smoke" only exercises the plumbing.
SCALES = {
    "full": {
        "gen_layouts": [("table1", 5, "direct"), ("full", 8, "auto"), ("table1", 10, "hierarchical")],
        "dict_suite": "full-10x10",
        "screen_suite": "full-8x8",
        "sweep_trials": 500,
        "chips": 50,
        "cli_size": 8,
        "cli_cardinality": 2,
        "cli_diagnose_trials": 20,
        "cli_campaign_trials": 2000,
    },
    "smoke": {
        "gen_layouts": [("full", 4, "auto")],
        "dict_suite": "full-5x5",
        "screen_suite": "full-5x5",
        "sweep_trials": 100,
        "chips": 6,
        "cli_size": 4,
        "cli_cardinality": 1,
        "cli_diagnose_trials": 2,
        "cli_campaign_trials": 50,
    },
}

FAULT_COUNTS = (1, 2, 3, 4, 5)
#: Rounds per run at the least: work_ref_s takes medians over rounds.
#: A round takes about 9 reference seconds in gen, 6.5-7 in dict and cli
#: and 3.2 in screen, so the benchmark's 24 s give them 2, 3, 3 and 7
#: rounds, whatever the host speed.
MIN_ROUNDS = 2


def derive(seed: int, *parts) -> int:
    """A 32-bit program seed derived from the workload seed."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "big")


class Ops:
    """Operations attempted and the correctness checks they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)


class Timer:
    """Times each operation of a round; work_s and work_ref_s are their sums.

    Times are net of the host-speed probes that ran inside them.
    ``kind`` (default: the span name) groups operations whose round
    totals, in reference seconds, are compared across rounds.
    """

    def __init__(self, rec: Recorder, speed: HostSpeed) -> None:
        self.rec, self.speed = rec, speed
        self.work_s = self.work_ref_s = 0.0
        self.kinds: dict[str, float] = {}

    def op(self, name: str, fn, kind: str | None = None, **attrs):
        with self.rec.span(name, **attrs):
            start = time.perf_counter()
            result = fn()
            end = time.perf_counter()
        elapsed, ref = self.speed.convert(start, end)
        self.work_s += elapsed
        self.work_ref_s += ref
        kind = kind or name
        self.kinds[kind] = self.kinds.get(kind, 0.0) + ref
        return result, elapsed


class Workload:
    """Set-up that can be repeated from scratch, then rounds of timed operations."""

    #: Set-up repetitions per run; setup_s is their median.
    setup_reps = 3

    def peak_rss_mb(self) -> float:
        """Largest resident set of the process that did the measured work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fresh_import(statement: str) -> None:
    """Run an import ``statement`` in a fresh interpreter.

    In-process imports are cached after the first set-up repetition; a
    fresh interpreter pays their full cost on every one.
    """
    probe = subprocess.run([sys.executable, "-c", statement], capture_output=True, text=True)
    if probe.returncode != 0:
        raise RuntimeError(f"{statement!r} failed: {probe.stderr[-2000:]}")


# -- gen -------------------------------------------------------------------
#: What ``gen`` imports.  ``repro.ilp`` loads its HiGHS backend on the
#: first solve; naming it here keeps that import out of gen_s.
GEN_IMPORTS = "import repro.core, repro.fpva, repro.ilp.scipy_backend"


class Gen(Workload):
    """Cold ``TestGenerator(...).generate()`` with no cache, three layouts."""

    def __init__(self, req: dict, ops: Ops) -> None:
        self.seed, self.ops = req["seed"], ops
        self.layouts = list(SCALES[req["scale"]]["gen_layouts"])
        random.Random(f"{self.seed}:gen").shuffle(self.layouts)
        self.facts: dict = {"layouts": {}}

    def setup(self) -> None:
        # Gen's only set-up is importing the generation stack; the fresh
        # interpreter times it, the in-process import keeps it out of round 0.
        fresh_import(GEN_IMPORTS)
        import repro.core, repro.fpva, repro.ilp.scipy_backend  # noqa: E401, F401

    def round(self, i: int, timer: Timer, rec: Recorder) -> dict:
        import repro.ilp.scipy_backend  # noqa: F401 -- see GEN_IMPORTS
        from repro.core import TestGenerator, validate_suite
        from repro.fpva import full_layout, table1_layout

        build = {"table1": table1_layout, "full": lambda n: full_layout(n, n)}
        gen_s = vectors = 0
        for kind, n, strategy in self.layouts:
            fpva = build[kind](n)
            out, elapsed = timer.op(
                "gen.generate",
                lambda: TestGenerator(fpva, path_strategy=strategy).generate(),
                kind=f"gen.generate:{fpva.name}",
                layout=fpva.name,
            )
            report = out.report
            gen_s += elapsed
            vectors += report.total_vectors
            rec.count("core.paths_s", report.tp_seconds)
            rec.count("core.cuts_s", report.tc_seconds)
            rec.count("core.leakage_s", report.tl_seconds)
            rec.count("core.paths_n", report.np_paths)
            rec.count("core.cuts_n", report.nc_cuts)
            rec.count("core.leakage_n", report.nl_leak)
            validation = validate_suite(fpva, out.testset.all_vectors())
            self.ops.attempt(
                f"gen {fpva.name} {strategy}",
                validation.ok,
                "; ".join(map(repr, validation.issues[:3])),
            )
            self.facts["layouts"][f"{fpva.name}/{strategy}"] = {
                "suite_sha256": hashlib.sha256(out.testset.to_json(indent=None).encode()).hexdigest(),
                "N": report.total_vectors,
                "np": report.np_paths,
                "nc": report.nc_cuts,
                "nl": report.nl_leak,
            }
        return {"gen_s": [gen_s], "gen_vectors": [vectors]}


# -- dict ------------------------------------------------------------------
class Dict(Workload):
    """Dictionary lifecycle: cold build, append-one-vector delta, warm reload."""

    def __init__(self, req: dict, ops: Ops) -> None:
        self.seed, self.ops, self.work = req["seed"], ops, Path(req["work"])
        self.suite_name = SCALES[req["scale"]]["dict_suite"]
        self.facts: dict = {"suite": self.suite_name}

    def setup(self) -> None:
        fresh_import("import repro.context, repro.sim.diagnosis, repro.sim.faults, repro.store")
        from repro.context import ExecutionContext
        from repro.sim.diagnosis import iter_fault_sets
        from repro.sim.faults import stuck_at_faults
        from repro.store import ArtifactStore
        from suites import load_suite

        suite = load_suite(self.suite_name)
        self.fpva = suite.fpva
        vectors = suite.all_vectors()
        # The seed picks the vector that is held out and then appended.
        held = self.seed % len(vectors)
        self.vectors = vectors[:held] + vectors[held + 1 :] + [vectors[held]]
        self.universe = stuck_at_faults(self.fpva)
        self.fault_sets = sum(1 for _ in iter_fault_sets(self.universe, 2))
        self.Context, self.Store = ExecutionContext, ArtifactStore
        self.facts.update(
            held_out=self.vectors[-1].name,
            fault_sets=self.fault_sets,
            universe=len(self.universe),
            vectors=len(self.vectors),
        )

    @cached_property
    def reference(self):
        """The oracle: a cold build of the whole suite without a store.

        It checks the rounds' results, so it is built once, outside set-up
        and outside every timed operation.
        """
        return self.Context(self.fpva).dictionary(
            self.vectors, universe=self.universe, max_cardinality=2
        ).syndrome_classes()

    def _build(self, store, vectors):
        return self.Context(self.fpva, store=store).dictionary(
            vectors, universe=self.universe, max_cardinality=2
        )

    def round(self, i: int, timer: Timer, rec: Recorder) -> dict:
        reference = self.reference
        root = self.work / f"dict-r{i}"
        store = self.Store(root)
        try:
            cold, cold_s = timer.op(
                "dict.build", lambda: self._build(store, self.vectors[:-1]), kind="dict.cold", step="cold"
            )
            self.ops.attempt("dict cold", cold.build_stats.get("mode") == "cold", str(cold.build_stats))
            delta, delta_s = timer.op(
                "dict.build", lambda: self._build(store, self.vectors), kind="dict.delta", step="delta"
            )
            stats = delta.build_stats
            self.ops.attempt(
                "dict delta",
                stats.get("mode") == "delta" and delta.syndrome_classes() == reference,
                f"mode={stats.get('mode')}; delta table differs from a cold build",
            )
            warm, warm_s = timer.op("dict.warm", lambda: self._build(store, self.vectors))
            self.ops.attempt(
                "dict warm",
                warm.build_stats.get("mode") == "warm" and warm.syndrome_classes() == reference,
                f"mode={warm.build_stats.get('mode')}; warm table differs",
            )
            rec.count("dict.fault_sets", self.fault_sets)
            rec.count("dict.simulated_scenarios", cold.build_stats.get("simulated_scenarios", 0))
            # Cold: every set on every vector but the last; delta: the last only.
            rec.count("kernel.requested", self.fault_sets * len(self.vectors))
            rec.count("dict.delta_reused_sets", stats.get("reused_sets", 0))
            rec.count("dict.delta_scenarios", stats.get("simulated_scenarios", 0))
            artifact = store.dictionaries.path_for(delta.digest)
            rec.count("store.artifact_kb", sum(f.stat().st_size for f in artifact.rglob("*") if f.is_file()) / 1024)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {"dict_cold_s": [cold_s], "dict_delta_s": [delta_s], "dict_warm_s": [warm_s]}


# -- screen ----------------------------------------------------------------
class Screen(Workload):
    """Screening session: campaign sweeps plus per-chip diagnosis."""

    def __init__(self, req: dict, ops: Ops) -> None:
        scale = SCALES[req["scale"]]
        self.seed, self.ops, self.work = req["seed"], ops, Path(req["work"])
        self.suite_name = scale["screen_suite"]
        self.trials, self.chips = scale["sweep_trials"], scale["chips"]
        self.facts: dict = {"suite": self.suite_name, "trials_per_k": self.trials, "chips_per_round": self.chips}

    def setup(self) -> None:
        from repro.context import ExecutionContext
        from repro.engine import AdaptiveDiagnoser, get_scenario, run_sweep
        from repro.sim import ChipUnderTest
        from repro.sim.faults import stuck_at_faults
        from suites import load_suite

        suite = load_suite(self.suite_name)
        self.fpva, self.vectors = suite.fpva, suite.all_vectors()
        self.scenario = get_scenario("stuck-at")
        # Chips carry stuck-at faults only; the campaigns keep the
        # scenario's default universe (control leaks included).
        self.universe = stuck_at_faults(self.fpva)
        self.ctx = ExecutionContext(self.fpva)
        self.dictionary = self.ctx.dictionary(self.vectors, universe=self.universe, max_cardinality=2)
        self.Diagnoser, self.run_sweep, self.Chip = AdaptiveDiagnoser, run_sweep, ChipUnderTest
        self.facts.update(universe=len(self.universe), syndromes=self.dictionary.distinct_syndromes)

    def round(self, i: int, timer: Timer, rec: Recorder) -> dict:
        campaign_seed = derive(self.seed, "campaign")
        sweep = {}
        memory_rates = []
        for k in FAULT_COUNTS:
            result, elapsed = timer.op(
                f"campaign.sweep_k{k}",
                lambda: self.run_sweep(
                    self.fpva, self.vectors, fault_counts=(k,), trials=self.trials,
                    seed=campaign_seed, workers=1, context=self.ctx,
                ),
            )
            sweep[k] = result[k]
            memory_rates.append(self.trials / elapsed)
            self.ops.attempt(f"sweep k={k}", result[k].trials == self.trials, "short sweep")
        journal = self.work / f"journal-r{i}"
        try:
            merged, journal_s = timer.op(
                "fabric.sweep",
                lambda: self.run_sweep(
                    self.fpva, self.vectors, fault_counts=FAULT_COUNTS, trials=self.trials,
                    seed=campaign_seed, workers=1, context=self.ctx, journal_dir=journal,
                ),
            )
        finally:
            shutil.rmtree(journal, ignore_errors=True)
        self.ops.attempt(
            "journaled sweep",
            all(merged[k].as_dict() == sweep[k].as_dict() for k in FAULT_COUNTS),
            "journaled merge differs from the in-memory sweep",
        )
        # Both sweeps simulate every chip: in memory and through the journal.
        chips = 2 * self.trials * len(FAULT_COUNTS)
        rec.count("campaign.chips", chips)
        rec.count("kernel.requested", chips * len(self.vectors))

        diagnoser, _ = timer.op("adaptive.init", lambda: self.Diagnoser(self.dictionary, context=self.ctx))
        # Fresh chips every round: samples pooled over rounds are distinct sessions.
        rng = random.Random(f"{self.seed}:chips:{i}")
        session_ms, applied = [], []
        for c in range(self.chips):
            faults = self.scenario.sample(self.universe, rng, 1 + c % 2)
            chip = self.Chip(self.fpva, faults)
            session, elapsed = timer.op("adaptive.session", lambda: diagnoser.diagnose(chip))
            session_ms.append(elapsed * 1e3)
            applied.append(session.num_applied)
            full, _ = timer.op("diagnose.full_suite", lambda: self.dictionary.diagnose_chip(chip))
            candidates = session.report.candidates
            self.ops.attempt(
                f"diagnose round {i} chip {c}",
                any(set(s) == set(faults) for s in candidates) and candidates == full.candidates,
                f"{list(faults)}: adaptive {len(candidates)} vs full {len(full.candidates)} candidates",
            )
        return {
            "campaign_chips_per_s": memory_rates,
            "campaign_journal_chips_per_s": [self.trials * len(FAULT_COUNTS) / journal_s],
            "diagnose_ms": session_ms,
            "diagnose_vectors": applied,
        }


# -- cli -------------------------------------------------------------------
class Cli(Workload):
    """``python -m repro diagnose`` / ``campaign`` against a prewarmed cache."""

    #: One ``repro warm`` takes about 12 s; two keep the run within its time budget.
    setup_reps = 2

    def __init__(self, req: dict, ops: Ops) -> None:
        scale = SCALES[req["scale"]]
        self.seed, self.ops, self.work = req["seed"], ops, Path(req["work"])
        self.size, self.cardinality = str(scale["cli_size"]), str(scale["cli_cardinality"])
        self.diagnose_trials = scale["cli_diagnose_trials"]
        self.campaign_trials = str(scale["cli_campaign_trials"])
        self.cache = self.work / "cli-cache"
        self.rss_mb = 0.0
        self.facts: dict = {"size": scale["cli_size"], "cardinality": scale["cli_cardinality"]}

    @staticmethod
    def _python(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=150)

    def _measured(self, *argv: str) -> subprocess.CompletedProcess:
        """``python -m repro ARGV``, keeping the largest child's own peak RSS.

        ``os.wait4`` reports this one child's ``ru_maxrss``, whereas
        ``RUSAGE_CHILDREN`` would also count the set-up ``repro warm`` and
        the import probes.  run.py's timeout kills the whole process group.
        """
        with open(self.work / "stdout.txt", "w+") as out, open(self.work / "stderr.txt", "w+") as err:
            proc = subprocess.Popen([sys.executable, "-m", "repro", *argv], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            done = subprocess.CompletedProcess(proc.args, proc.returncode, out.read(), err.read())
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024)
        return done

    def setup(self) -> None:
        # Every repetition warms an empty cache.
        shutil.rmtree(self.cache, ignore_errors=True)
        out = self._python(
            "-m", "repro", "warm", "--size", self.size, "--cardinality", self.cardinality,
            "--cache-dir", str(self.cache),
        )
        if out.returncode != 0:
            raise RuntimeError(f"repro warm exited {out.returncode}: {out.stderr[-2000:]}")
        self.facts["warm"] = out.stdout.strip().splitlines()[-1]

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def round(self, i: int, timer: Timer, rec: Recorder) -> dict:
        trials = self.diagnose_trials
        diagnose, diagnose_s = timer.op(
            "cli.diagnose",
            lambda: self._measured(
                "diagnose", "--size", self.size, "--cardinality", self.cardinality,
                "--adaptive", "--faults", "2", "--trials", str(trials),
                "--cache-dir", str(self.cache), "--seed", str(derive(self.seed, "diagnose")),
            ),
        )
        warm = "dictionary warm-loaded" in diagnose.stdout
        rec.count("cli.warm_hits", warm)
        self.ops.attempt(
            "cli diagnose",
            diagnose.returncode == 0 and f"{trials}/{trials} localized" in diagnose.stdout and warm,
            f"exit {diagnose.returncode}: {(diagnose.stdout + diagnose.stderr)[-500:]}",
        )
        campaign, campaign_s = timer.op(
            "cli.campaign",
            lambda: self._measured(
                "campaign", "--size", self.size, "--trials", self.campaign_trials,
                "--cache-dir", str(self.cache), "--seed", str(derive(self.seed, "campaign")),
            ),
        )
        self.ops.attempt(
            "cli campaign",
            campaign.returncode == 0,
            f"exit {campaign.returncode}: {(campaign.stdout + campaign.stderr)[-500:]}",
        )
        if rec.enabled:
            for name, argv in (("cli.interp_s", ("-c", "pass")), ("cli.import_s", ("-c", "import repro.cli"))):
                times = []
                for _ in range(3):
                    start = time.perf_counter()
                    self._python(*argv)
                    times.append(time.perf_counter() - start)
                rec.count(name, median(times))
        return {"cli_diagnose_s": [diagnose_s], "cli_campaign_s": [campaign_s]}


WORKLOADS = {"gen": Gen, "dict": Dict, "screen": Screen, "cli": Cli}


def layer_metrics(rec: Recorder, probes: LayerProbes, r: int) -> dict:
    """Per-layer numbers of traced round ``r``."""
    drains = probes.drains[r]
    distinct = rec.counted("kernel.distinct_scenarios", r)
    requested = rec.counted("kernel.requested", r)
    full_suite = [s for s in rec.spans if s.round == r and s.name == "diagnose.full_suite"]
    out = {
        name: rec.counted(name, r)
        for name in (
            "core.paths_s", "core.cuts_s", "core.leakage_s",
            "core.paths_n", "core.cuts_n", "core.leakage_n",
            "ilp.nonoptimal", "kernel.compile_s",
            "context.kernel_compiles", "context.kernel_loads",
            "dict.fault_sets", "dict.simulated_scenarios",
            "store.artifact_kb", "dict.delta_reused_sets", "dict.delta_scenarios",
            "campaign.chips", "cli.import_s", "cli.interp_s", "cli.warm_hits",
        )
    }
    out.update({
        "ilp.solve_calls": rec.calls("ilp.solve", r),
        "ilp.solve_s": rec.total_s("ilp.solve", r),
        "kernel.flush_calls": rec.calls("kernel.flush", r),
        "kernel.flush_s": rec.total_s("kernel.flush", r),
        "backend.reach_words_s": rec.total_s("backend.reach_words", r),
        "kernel.distinct_scenarios": distinct,
        "kernel.dedup_ratio": distinct / requested if requested else 0.0,
        "dict.self_s": rec.total_s("dict.build", r) - rec.within("dict.build", "kernel.flush", r),
        "store.publish_s": rec.total_s("store.publish", r),
        "store.load_s": rec.total_s("store.load", r),
        "lineage.resolve_s": rec.total_s("lineage.resolve", r),
        "campaign.shards": sum(d.total for d in drains),
        "fabric.sweep_s": rec.total_s("fabric.sweep", r),
        "fabric.published": sum(d.executed for d in drains),
        "fabric.retried": sum(d.retried for d in drains),
        "fabric.healed": sum(d.healed for d in drains),
        "adaptive.init_s": rec.total_s("adaptive.init", r),
        "tester.apply_calls": rec.calls("tester.apply", r),
        "tester.apply_s": rec.total_s("tester.apply", r),
        "adaptive.schedule_s": rec.total_s("adaptive.session", r)
        - rec.within("adaptive.session", "tester.apply", r),
        "diagnose.full_suite_ms_p50": median(s.duration * 1e3 for s in full_suite) if full_suite else 0.0,
    })
    for k in FAULT_COUNTS:
        out[f"campaign.sweep_s_k{k}"] = rec.total_s(f"campaign.sweep_k{k}", r)
    return out


def profile(hash_seed: str) -> dict:
    """Machine profile, so numbers stay comparable across changes."""
    import platform

    import numpy
    import scipy

    from repro.sim.backends import availability, default_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": default_backend(),
        "backends_available": sorted(name for name, why in availability().items() if why is None),
        "hash_seed": hash_seed,
    }


def run(req: dict) -> dict:
    """Set up, then run rounds until the run length is spent."""
    ops = Ops()
    rec = Recorder()
    probes = LayerProbes(rec)
    workload = WORKLOADS[req["workload"]](req, ops)
    # One core for the worker and its children: the probe samples the core
    # the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = HostSpeed()
    result = {"rounds": [], "layers": [], "setup_s": [], "setup_ref_s": [], "error": None}
    try:
        with speed.sampling():
            for _ in range(workload.setup_reps):
                start = time.perf_counter()
                workload.setup()
                wall, ref = speed.convert(start, time.perf_counter())
                result["setup_s"].append(wall)
                result["setup_ref_s"].append(ref)
            measured_ref = 0.0
            while True:
                i = len(result["rounds"])
                traced = bool(req["trace"]) and i % 2 == 1
                rec.round, rec.enabled = i, traced
                timer = Timer(rec, speed)
                start = time.perf_counter()
                if traced:
                    with probes.installed():
                        samples = workload.round(i, timer, rec)
                    result["layers"].append(layer_metrics(rec, probes, i))
                else:
                    samples = workload.round(i, timer, rec)
                result["rounds"].append({
                    "traced": traced,
                    "work_s": timer.work_s,
                    "work_ref_s": timer.work_ref_s,
                    "kinds": timer.kinds,
                    "speed": speed.factor(start, time.perf_counter()),
                    "samples": samples,
                })
                measured_ref += timer.work_ref_s
                # The run length bounds timed work in reference seconds, so the
                # round count does not follow the host's speed, and untimed
                # checks (such as dict's oracle build) do not cost rounds.
                if i + 1 >= MIN_ROUNDS and measured_ref * (i + 2) / (i + 1) > req["seconds"]:
                    break
    except Exception:  # the run boundary: record the failure and report it
        traceback.print_exc()
        result["error"] = traceback.format_exc(limit=5)
        ops.attempt("run", False, "exception, see error")
    result.update(
        peak_rss_mb=workload.peak_rss_mb(),
        attempted=ops.attempted,
        failed=ops.failed,
        failures=ops.failures[:20],
        facts=workload.facts,
        profile=profile(os.environ.get("PYTHONHASHSEED", "")),
    )
    if req["trace"] and rec.spans:
        rec.write_chrome(req["trace_file"], os.getpid())
    return result


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    with open(Path(request["work"]) / "result.json", "w") as fh:
        json.dump(run(request), fh)

"""Command-line interface: ``python -m repro <command>``.

Every command builds one :class:`~repro.context.ExecutionContext` per
array — the session owning the compiled kernel, the artifact store and
the shared tester — and threads it through generation, campaigns and
diagnosis, so nothing compiles twice.  The commands that consume a suite
(``campaign``, ``diagnose``, ``warm``) take ``--cache-dir`` and get the
suite through :meth:`~repro.context.ExecutionContext.suite`, which loads
the stored suite instead of re-solving its ILPs, and print a line saying
whether it was warm-loaded or generated.  ``generate`` and ``table1``
always run the generator, since timing it is their job; they take no
store.

Commands
--------
``generate``  Generate a test suite for a benchmark or full array and print
              (or save as JSON) the vectors.
``table1``    Regenerate the paper's Table I rows.
``show``      Render an array (optionally with its flow paths) as ASCII.
``campaign``  Run a random fault-injection campaign against a generated
              suite and report detection rates.  ``--workers N`` shards the
              trials over a process pool (same results, less wall-clock);
              ``--scenario NAME`` swaps the fault workload; ``--cache-dir``
              loads the suite from the store.
              ``--journal-dir`` reroutes the identical shard structure
              through the campaign fabric: completed shards publish
              durably, a killed run resumes from the last published shard
              (``--resume`` insists a journal exists), ``--json`` saves
              the merged sweep — bit-identical to the in-memory path
              either way.
``diagnose``  Inject random faults and localize them with the dictionary —
              ``--adaptive`` schedules vectors one at a time by information
              gain instead of applying the whole suite; ``--cache-dir``
              warm-starts the dictionary from the artifact store.
``warm``      Prebuild the cached artifacts (generated suite and fault
              dictionary) for an array into ``--cache-dir``, so later runs
              skip suite generation and the dictionary build.
``store``     Artifact-store maintenance.  ``store gc`` lists (default:
              dry run) or removes dictionary artifacts that are
              superseded by a lineage descendant — every delta build
              records its parent, so ancestors a newer artifact fully
              subsumes can be reclaimed without losing any warm start;
              ``--apply`` deletes, ``--apply --quarantine`` moves the
              bytes into the store's ``quarantine/`` directory instead
              (never delete evidence).
``lint``      Run the repo's own static-analysis pass
              (:mod:`repro.analysis`): determinism, atomic-publish and
              session invariants, checked mechanically.  All flags are
              forwarded (``--strict``, ``--format json``, ...).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.context import ExecutionContext
from repro.core import TestGenerator, measure_coverage, render_array, render_paths
from repro.engine import (
    AdaptiveDiagnoser,
    get_scenario,
    run_sweep as run_sweep_sharded,
    scenario_names,
)
from repro.fpva import TABLE1_SIZES, full_layout, table1_layout
from repro.sim import ChipUnderTest
from repro.sim.campaign import campaign_universe
from repro.sim.faults import max_compatible_faults


def _layout(args):
    if args.full:
        return full_layout(args.size, args.size)
    if args.size in TABLE1_SIZES:
        return table1_layout(args.size)
    return full_layout(args.size, args.size)


def _context(args) -> ExecutionContext:
    """The command's session: one kernel, one store, one tester."""
    return ExecutionContext(_layout(args), store=getattr(args, "cache_dir", None))


def _suite(ctx: ExecutionContext):
    """The session's suite; prints it and whether it was warm-loaded."""
    t0 = time.perf_counter()
    generated = ctx.suite()
    status = "warm-loaded" if generated.report.mode == "warm" else "generated"
    print(generated.testset.summary())
    print(f"suite {status} in {time.perf_counter() - t0:.2f}s")
    return generated.testset


def _too_many_faults(count: int, universe, flag: str) -> bool:
    """True, after saying why, if no chip can carry ``count`` faults of
    ``universe``."""
    limit = max_compatible_faults(universe)
    if count <= limit:
        return False
    print(
        f"{flag} {count} exceeds {limit}, the largest compatible fault set "
        "of this array",
        file=sys.stderr,
    )
    return True


def _at_least(minimum: int):
    """An argparse ``type=`` accepting integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, not {value}"
            )
        return value

    return parse


def _add_array_args(p):
    # A full 1x1 array has no valve, so every array command needs n >= 2.
    p.add_argument("--size", type=_at_least(2), default=5,
                   help="array dimension n (n x n), at least 2")
    p.add_argument(
        "--full",
        action="store_true",
        help="use a plain full array instead of the Table I layout",
    )


def cmd_generate(args) -> int:
    ctx = _context(args)
    generated = TestGenerator(
        ctx.fpva, path_strategy=args.strategy, context=ctx
    ).generate()
    print(generated.report.row())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(generated.testset.to_json())
        print(f"wrote {generated.testset.total} vectors to {args.out}")
    if args.coverage:
        report = measure_coverage(
            ctx.fpva, generated.testset.all_vectors(), context=ctx
        )
        print("coverage:", report.summary())
    return 0


def cmd_table1(args) -> int:
    sizes = [args.size] if args.size else list(TABLE1_SIZES)
    for n in sizes:
        strategy = "direct" if n == 5 else "hierarchical"
        generated = TestGenerator(
            table1_layout(n), path_strategy=strategy
        ).generate()
        print(generated.report.row())
    return 0


def cmd_show(args) -> int:
    fpva = _layout(args)
    print(fpva.describe())
    if args.paths:
        generated = TestGenerator(fpva, include_leakage=False).generate()
        print(render_paths(fpva, generated.testset.flow_paths))
    else:
        print(render_array(fpva))
    return 0


def cmd_campaign(args) -> int:
    for flag, value in (("--resume", args.resume),
                        ("--max-attempts", args.max_attempts)):
        if value and not args.journal_dir:
            print(f"{flag} requires --journal-dir", file=sys.stderr)
            return 2
    if args.resume:
        from repro.fabric import CampaignJournal

        journal = CampaignJournal(args.journal_dir)
        if journal.manifest() is None:
            print(f"--resume: no campaign journal at {journal.root}",
                  file=sys.stderr)
            return 2
    ctx = _context(args)
    fpva = ctx.fpva
    scenario = get_scenario(args.scenario) if args.scenario else None
    universe = campaign_universe(fpva, scenario)
    if _too_many_faults(args.max_faults, universe, "--max-faults"):
        return 2
    suite = _suite(ctx)
    fault_counts = tuple(range(1, args.max_faults + 1))
    print(f"scenario={scenario.name if scenario else 'stuck-at'} "
          f"workers={args.workers}"
          + (f" journal={args.journal_dir}" if args.journal_dir else ""))
    if args.journal_dir:
        # The campaign fabric: shards publish durably as they complete, a
        # killed run resumes from the last published shard, and the merge
        # is bit-identical to the in-memory path below.
        from repro.fabric import (
            DEFAULT_MAX_ATTEMPTS,
            CampaignSpec,
            JournalMismatch,
            RetryPolicy,
            run_journaled_sweep,
        )

        spec = CampaignSpec(
            fpva=fpva,
            vectors=tuple(suite.all_vectors()),
            fault_counts=fault_counts,
            trials=args.trials,
            seed=args.seed,
            scenario=scenario,
        )
        try:
            sweep, stats = run_journaled_sweep(
                spec,
                args.journal_dir,
                workers=args.workers,
                resume=args.resume,
                kernel=ctx.kernel,
                retry=RetryPolicy(
                    max_attempts=args.max_attempts or DEFAULT_MAX_ATTEMPTS
                ),
            )
        except JournalMismatch as error:
            # The directory holds another campaign: a usage error, not
            # the exit 1 of a chip that escaped detection.
            print(error, file=sys.stderr)
            return 2
        print(f"journal: {stats.summary()}")
    else:
        stats = None
        # In-memory fast case: the sharded runner's workers<=1 branch runs
        # the identical shard structure serially, so --workers only
        # changes wall-clock.
        sweep = run_sweep_sharded(
            fpva,
            suite.all_vectors(),
            fault_counts=fault_counts,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            scenario=scenario,
            context=ctx,
        )
    degraded = stats is not None and stats.degraded
    if args.json:
        payload = {str(k): sweep[k].as_dict() for k in sorted(sweep)}
        if degraded:
            # Only a degraded sweep grows this key, so the healthy-case
            # payload stays byte-identical to pre-supervision outputs
            # (CI diffs resumed runs against a serial reference).
            payload["quarantined"] = list(stats.quarantined)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote sweep results to {args.json}")
    failures = 0
    for k, result in sorted(sweep.items()):
        print(
            f"  k={k}: {result.detected}/{result.trials} detected "
            f"({result.detection_rate:.2%})"
        )
        failures += result.trials - result.detected
    if degraded:
        # Exit 3: the merge is *incomplete* (quarantined shards withheld
        # trials) — distinct from exit 1, where every trial ran but some
        # faults escaped detection.
        for record in stats.quarantined:
            print(
                f"  QUARANTINED k={record.get('num_faults')} "
                f"shard={record.get('shard')}: {record.get('reason')}",
                file=sys.stderr,
            )
        return 3
    return 0 if failures == 0 else 1


def _build_status(dictionary) -> str:
    """One human line on how the dictionary table was obtained."""
    stats = dictionary.build_stats
    mode = stats.get("mode")
    if mode == "warm":
        return "warm-loaded"
    if mode == "delta":
        return (
            f"delta-built from {stats['parent'][:12]} "
            f"({stats['new_vectors']} new vectors, "
            f"{stats['reused_sets']} reused sets, "
            f"{stats['promoted_sets']} promoted)"
        )
    return "cold-built"


def cmd_diagnose(args) -> int:
    if args.base_digest and not args.cache_dir:
        print("--base-digest requires --cache-dir", file=sys.stderr)
        return 2
    ctx = _context(args)
    fpva = ctx.fpva
    scenario = get_scenario(args.scenario)
    universe = scenario.universe(fpva)
    if _too_many_faults(args.faults, universe, "--faults"):
        return 2
    suite = _suite(ctx)
    t0 = time.perf_counter()
    dictionary = ctx.dictionary(
        suite.all_vectors(),
        universe=universe,
        max_cardinality=args.cardinality,
        base_digest=args.base_digest,
    )
    print(
        f"dictionary {_build_status(dictionary)} "
        f"in {time.perf_counter() - t0:.2f}s "
        f"({dictionary.distinct_syndromes} syndromes)"
    )
    engine = AdaptiveDiagnoser(dictionary, context=ctx) if args.adaptive else None
    rng = random.Random(args.seed)

    localized = unique = 0
    applied_total = 0
    t0 = time.perf_counter()
    for trial in range(args.trials):
        faults = scenario.sample(universe, rng, args.faults)
        chip = ChipUnderTest(fpva, faults)
        if engine is not None:
            session = engine.diagnose(chip)
            report, applied = session.report, session.num_applied
        else:
            report, applied = dictionary.diagnose_chip(chip), suite.total
        applied_total += applied
        localized += report.localized
        unique += report.is_unique
        hit = any(set(c) == set(faults) for c in report.candidates)
        print(
            f"  chip{trial}: injected {list(faults)} -> "
            f"{len(report.candidates)} candidate(s) in {applied} vectors"
            f"{' [exact]' if hit else ''}"
        )
    elapsed = time.perf_counter() - t0
    mode = "adaptive" if engine is not None else "full-suite"
    print(
        f"{mode}: {localized}/{args.trials} localized, {unique} unique, "
        f"mean {applied_total / max(args.trials, 1):.1f}/{suite.total} vectors "
        f"applied, {elapsed:.2f}s"
    )
    return 0 if localized == args.trials else 1


def cmd_warm(args) -> int:
    """Prebuild the cached artifacts for one array configuration."""
    ctx = _context(args)
    fpva = ctx.fpva
    suite = _suite(ctx)

    scenario = get_scenario(args.scenario)
    universe = scenario.universe(fpva)
    t0 = time.perf_counter()
    dictionary = ctx.dictionary(
        suite.all_vectors(),
        universe=universe,
        max_cardinality=args.cardinality,
        base_digest=args.base_digest,
    )
    print(
        f"dictionary  {dictionary.digest}: "
        f"{dictionary.total_fault_sets} detectable fault sets, "
        f"{dictionary.distinct_syndromes} syndromes "
        f"({_build_status(dictionary)}, "
        f"{time.perf_counter() - t0:.2f}s)"
    )
    return 0


def cmd_store(args) -> int:
    """Artifact-store maintenance (currently: lineage-aware gc)."""
    if args.quarantine and not args.apply:
        print("--quarantine requires --apply", file=sys.stderr)
        return 2
    from repro.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    report = store.dictionaries.gc(
        apply=args.apply, quarantine_evidence=args.quarantine
    )
    for entry in report["superseded"]:
        print(
            f"  superseded {entry['digest']}: cardinality {entry['cardinality']}, "
            f"{entry['fault_sets']} fault sets, {entry['vectors']} vectors, "
            f"{entry['bytes']} bytes (subsumed by "
            f"{', '.join(entry['superseded_by'])})"
        )
    verb = {
        "dry-run": "reclaimable",
        "removed": "reclaimed",
        "quarantined": "moved to quarantine",
    }[report["action"]]
    print(
        f"{len(report['superseded'])} superseded, "
        f"{len(report['kept'])} kept; "
        f"{report['reclaimable_bytes']} bytes {verb}"
    )
    if report["action"] == "dry-run" and report["superseded"]:
        print(
            "(dry run; pass --apply to delete, or --apply --quarantine "
            "to keep the bytes as evidence)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FPVA test generation (Liu et al., DATE 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a full test suite")
    _add_array_args(p)
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "direct", "hierarchical", "greedy"])
    p.add_argument("--out", help="write the suite as JSON to this path")
    p.add_argument("--coverage", action="store_true",
                   help="also measure observability-based fault coverage")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("table1", help="regenerate the paper's Table I")
    p.add_argument("--size", type=int, choices=TABLE1_SIZES,
                   help="only this array (default: all five)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("show", help="render an array as ASCII")
    _add_array_args(p)
    p.add_argument("--paths", action="store_true",
                   help="also generate and render the flow paths")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("campaign", help="random fault-injection campaign")
    _add_array_args(p)
    p.add_argument("--trials", type=_at_least(0), default=200)
    p.add_argument("--max-faults", type=_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="process-pool size; results are worker-count independent")
    p.add_argument("--scenario", choices=scenario_names(), default=None,
                   help="fault workload (default: the paper's stuck-at space)")
    p.add_argument("--cache-dir", default=None,
                   help="artifact store; the suite loads from here instead "
                        "of being regenerated")
    p.add_argument("--journal-dir", default=None,
                   help="run through the campaign fabric: shards publish "
                        "durably here as they complete, a killed run "
                        "resumes from the last published shard, and "
                        "re-running a finished campaign simulates nothing")
    p.add_argument("--resume", action="store_true",
                   help="insist the journal already exists (guards a "
                        "mistyped --journal-dir from silently starting "
                        "a fresh campaign); requires --journal-dir")
    # The default stays None so parsing never imports the fabric; the
    # journaled branch substitutes DEFAULT_MAX_ATTEMPTS.
    p.add_argument("--max-attempts", type=_at_least(1), default=None,
                   metavar="N",
                   help="journaled runs: attempts before a repeatedly "
                        "failing shard is quarantined as poison instead of "
                        "retried (default 3); the sweep then completes "
                        "degraded with exit code 3; requires --journal-dir")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the merged sweep results as JSON "
                        "(a degraded sweep adds a 'quarantined' key "
                        "listing the withheld shards)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("diagnose", help="inject faults and localize them")
    _add_array_args(p)
    p.add_argument("--adaptive", action="store_true",
                   help="schedule vectors by information gain, one at a time")
    p.add_argument("--scenario", choices=scenario_names(), default="stuck-at")
    p.add_argument("--faults", type=_at_least(1), default=1,
                   help="faults injected per chip (the dictionary models up "
                        "to --cardinality faults per chip)")
    p.add_argument("--trials", type=_at_least(0), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cardinality", type=int, choices=(1, 2, 3), default=1,
                   help="max faults per dictionary entry (match the `warm` "
                        "invocation to hit its cached artifact)")
    p.add_argument("--cache-dir", default=None,
                   help="artifact store; loads the suite and warm-starts "
                        "the fault dictionary when a matching artifact "
                        "exists, or delta-builds it from the nearest stored "
                        "ancestor (see `warm`)")
    p.add_argument("--base-digest", default=None, metavar="DIGEST",
                   help="pin the incremental build to this stored ancestor "
                        "artifact instead of auto-resolving the nearest one "
                        "(still validated; falls back to a cold build when "
                        "incompatible); requires --cache-dir")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "warm", help="prebuild cached artifacts (suite, dictionary)"
    )
    _add_array_args(p)
    p.add_argument("--cache-dir", required=True,
                   help="artifact store directory to populate")
    p.add_argument("--scenario", choices=scenario_names(), default="stuck-at",
                   help="fault universe the dictionary is built over "
                        "(must match the later `diagnose` invocation)")
    p.add_argument("--cardinality", type=int, choices=(1, 2, 3), default=1,
                   help="max faults per dictionary entry (2 streams the "
                        "quadratic double-fault universe to disk; 3 the "
                        "cubic triple-fault one — prefer promoting an "
                        "existing cardinality-2 artifact incrementally)")
    p.add_argument("--base-digest", default=None, metavar="DIGEST",
                   help="pin the incremental dictionary build to this "
                        "stored ancestor artifact instead of auto-resolving "
                        "the nearest one (still validated; falls back to a "
                        "cold build when incompatible)")
    p.set_defaults(func=cmd_warm)

    p = sub.add_parser("store", help="artifact-store maintenance")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    g = store_sub.add_parser(
        "gc",
        help="collect dictionary artifacts superseded by lineage "
             "descendants (dry run by default)",
    )
    g.add_argument("--cache-dir", required=True,
                   help="artifact store directory to collect in")
    g.add_argument("--apply", action="store_true",
                   help="actually remove the superseded artifacts "
                        "(default: dry-run report only)")
    g.add_argument("--quarantine", action="store_true",
                   help="with --apply: move superseded artifacts into the "
                        "store's quarantine/ directory instead of deleting "
                        "them (never delete evidence)")
    g.set_defaults(func=cmd_store)

    p = sub.add_parser(
        "lint",
        help="static analysis of the repo's own invariant conventions",
        add_help=False,  # every flag (including -h) belongs to repro.analysis
    )
    p.set_defaults(func=cmd_lint)
    return parser


def cmd_lint(args) -> int:
    from repro.analysis.cli import main as analysis_main

    return analysis_main(args.rest)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.func is not cmd_lint and rest:
        # Everything except `lint` keeps strict argparse behaviour.
        parser.parse_args(argv)
    args.rest = rest
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload gen --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --smoke                      # tiny sizes, checks metric names

Workloads (``BENCHMARK.json`` says why each was chosen):

``gen``     cold ``TestGenerator(...).generate()`` on Table I 5x5 (direct),
            full 8x8 (auto) and Table I 10x10 (hierarchical);
``dict``    full 10x10 cardinality-2 stuck-at dictionary: cold build of
            the suite minus one vector, append-one-vector delta, warm reload;
``screen``  full 8x8 with a card-2 dictionary built in set-up: sweeps over
            k=1..5 in memory and through the journal, then adaptive and
            full-suite diagnosis of seeded single/double-fault chips;
``cli``     ``python -m repro diagnose`` and ``campaign`` subprocesses
            against a cache prewarmed by ``repro warm``.

Each workload runs in a fresh child process (``workloads.py``) whose
``PYTHONHASHSEED`` is derived from ``--seed``; the seed also drives
fault sampling, chip order and the other inputs.  With ``--trace 0``
the last output line carries the end-to-end metrics, with ``--trace 1``
the per-layer ones plus the tracing overhead, and a Chrome trace is
written under ``perfbench/_out/``.  Every earlier line is a readable
report that names each workload's own metrics (``gen_s``,
``dict_cold_s``, ``diagnose_ms_p95`` ...) with unit and sample count.

``setup_s`` and ``work_ref_s`` are in reference seconds: wall times
converted by the host-speed probe that samples the worker's core all
through the run (``hostspeed.py``).  ``setup_s`` is the median over
set-up repetitions; ``work_ref_s`` sums, over the kinds of operation,
the median over untraced rounds of each kind's round total.  The wall
times are reported beside them as ``setup_wall_s`` and ``work_s``, with
the host's slowness against the reference host as ``host_speed``; the
workloads' own named metrics are wall times.  All wall times are net of
the probe's own time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gen", "dict", "screen", "cli")
#: The whole run, set-up included, must end well inside three minutes.
CHILD_TIMEOUT_S = 170

#: Each workload's own metrics: name -> (unit, samples key, statistic).
NAMED = {
    "gen": {
        "gen_s": ("s", "gen_s", "median"),
        "gen_vectors": ("count", "gen_vectors", "median"),
    },
    "dict": {
        "dict_cold_s": ("s", "dict_cold_s", "median"),
        "dict_delta_s": ("s", "dict_delta_s", "median"),
        "dict_warm_s": ("s", "dict_warm_s", "median"),
    },
    "screen": {
        "campaign_chips_per_s": ("chips/s", "campaign_chips_per_s", "median"),
        "campaign_journal_chips_per_s": ("chips/s", "campaign_journal_chips_per_s", "median"),
        "diagnose_ms_p50": ("ms", "diagnose_ms", "median"),
        "diagnose_ms_p95": ("ms", "diagnose_ms", "p95"),
        "diagnose_vectors_mean": ("count", "diagnose_vectors", "mean"),
    },
    "cli": {
        "cli_diagnose_s": ("s", "cli_diagnose_s", "median"),
        "cli_campaign_s": ("s", "cli_campaign_s", "median"),
    },
}


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p:g}", percentile(values, p)
    return None


def describe(values: list[float], unit: str, stat: str = "median") -> dict:
    if stat == "p95":
        value = percentile(values, 95)
    elif stat == "mean":
        value = sum(values) / len(values)
    else:
        value = median(values)
    out = {"value": value, "unit": unit, "n": len(values)}
    found = tail(values)
    if found and stat == "median":
        out["tail"] = {found[0]: found[1]}
    return out


def work_ref(rounds: list[dict]) -> float:
    """Sum over operation kinds of the median round total, in reference seconds."""
    kinds = {kind for r in rounds for kind in r["kinds"]}
    return sum(median(r["kinds"].get(kind, 0.0) for r in rounds) for kind in sorted(kinds))


def benchmark_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, seconds: int, trace: int, scale: str) -> dict:
    """Run one workload in a fresh process; return its raw result."""
    hash_seed = str(seed % 2**32)
    work = HERE / "_work" / f"{workload}-s{seed}-{os.getpid()}"
    out_dir = HERE / "_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    request = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "work": str(work),
        "trace_file": str(out_dir / f"trace-{workload}-s{seed}.json"),
    }
    src = str(Path.cwd() / "src")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(request)],
        env=env,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"{workload} worker exited {code}")
        with open(work / "result.json") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} worker exceeded {CHILD_TIMEOUT_S}s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=workload, seed=seed, hash_seed=hash_seed, trace=trace)
    if trace:
        result["trace_file"] = request["trace_file"]
    return result


def summarize(result: dict) -> dict:
    """Named end-to-end metrics plus the contract's end-to-end/per-layer sets."""
    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    samples: dict[str, list] = {}
    for r in plain:
        for key, values in r["samples"].items():
            samples.setdefault(key, []).extend(values)
    attempted, failed = result["attempted"], result["failed"]
    named = {}
    if result["setup_s"]:
        named["setup_s"] = describe(result["setup_ref_s"], "s")
        named["setup_wall_s"] = describe(result["setup_s"], "s")
    if plain:
        named["work_ref_s"] = {"value": work_ref(plain), "unit": "s", "n": len(plain)}
        named["work_s"] = describe([r["work_s"] for r in plain], "s")
        named["host_speed"] = describe([r["speed"] for r in result["rounds"]], "x")
    for name, (unit, key, stat) in NAMED[result["workload"]].items():
        if samples.get(key):
            named[name] = describe(samples[key], unit, stat)
    named["peak_rss_mb"] = describe([result["peak_rss_mb"]], "MB")
    named["ops_failed_frac"] = {"value": failed / max(attempted, 1), "unit": "fraction", "n": attempted}

    layers, pairs = {}, []
    if result["layers"]:
        for name in result["layers"][0]:
            layers[name] = median(layer[name] for layer in result["layers"])
        # Traced minus untraced work of adjacent rounds, in reference seconds.
        pairs = [
            b["work_ref_s"] - a["work_ref_s"]
            for a, b in zip(rounds, rounds[1:])
            if not a["traced"] and b["traced"]
        ]
        layers["trace.overhead_s"] = median(pairs) if pairs else 0.0
    return {"named": named, "layers": layers, "overhead_pairs": len(pairs)}


def report(result: dict, summary: dict) -> None:
    """The readable part of the output (every line before the last)."""
    prof = result.get("profile", {})
    print(
        f"== {result['workload']}  seed={result['seed']}  hash_seed={result['hash_seed']}  "
        f"rounds={len(result['rounds'])} ({sum(r['traced'] for r in result['rounds'])} traced)"
    )
    print("   profile: " + json.dumps(prof, sort_keys=True))
    for name, m in summary["named"].items():
        extra = "  ".join(f"{k}={v:.6g}" for k, v in m.get("tail", {}).items())
        print(f"   {name:<30} {m['value']:>14.6g} {m['unit']:<9} n={m['n']:<5} {extra}")
    for name, value in summary["layers"].items():
        extra = f" n={summary['overhead_pairs']} round pair(s)" if name == "trace.overhead_s" else ""
        print(f"   layer {name:<28} {value:>14.6g}{extra}")
    print("   facts: " + json.dumps(result.get("facts", {}), sort_keys=True))
    for failure in result.get("failures", []):
        print(f"   FAILED {failure}")
    if result.get("error"):
        print("   error: " + result["error"].strip().splitlines()[-1])
    if result.get("trace_file"):
        print(f"   trace: {result['trace_file']}")


def contract_line(results: list[dict], summaries: list[dict], spec: dict, trace: int) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json lists.

    With several workloads (``--workload all``) each name gets a
    ``<workload>/`` prefix.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for result, summary in zip(results, summaries):
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for m in wanted:
            if trace:
                value = summary["layers"].get(m["name"], 0.0)
            else:
                value = summary["named"].get(m["name"], {}).get("value", 0.0)
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_workloads(names, seed: int, seconds: int, trace: int, scale: str):
    results, summaries = [], []
    for name in names:
        result = run_child(name, seed, seconds, trace, scale)
        summary = summarize(result)
        report(result, summary)
        results.append(result)
        summaries.append(summary)
        out = HERE / "_out" / f"result-{name}-s{seed}-t{trace}.json"
        with open(out, "w") as fh:
            json.dump({"result": result, "summary": summary}, fh, indent=1, sort_keys=True)
    return results, summaries


def smoke(spec: dict) -> int:
    """Each workload at a tiny size, traced and untraced: names must match."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            results, summaries = run_workloads([name], 1, 1, trace, "smoke")
            line = contract_line(results, summaries, spec, trace)
            expected = {m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])}
            if set(line["metrics"]) != expected:
                problems.append(f"{name} trace={trace}: metric names {sorted(set(line['metrics']) ^ expected)}")
            named = set(summaries[0]["named"])
            missing = set(NAMED[name]) - named
            if missing:
                problems.append(f"{name}: named metrics not reported: {sorted(missing)}")
            if trace and not summaries[0]["layers"]:
                problems.append(f"{name}: traced run produced no per-layer metrics")
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: {results[0]['failures']}")
            for metric, entry in line["metrics"].items():
                if not isinstance(entry["value"], (int, float)):
                    problems.append(f"{name}: {metric} is not a number")
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check metric names")
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.smoke:
        return smoke(spec)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    results, summaries = run_workloads(names, args.seed, args.seconds, args.trace, "full")
    print(f"== total {time.perf_counter() - started:.1f}s")
    print(json.dumps(contract_line(results, summaries, spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

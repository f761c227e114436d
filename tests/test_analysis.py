"""The static-analysis pass: every rule, the suppression/baseline
machinery, and the end-to-end guarantee that the repo itself lints clean.

Each rule gets positive (violating), negative (conforming), suppressed,
and baselined fixtures, so deleting any single rule module fails its
dedicated tests here.  The hypothesis round-trip pins the baseline file
format; the e2e test is the CI gate's local twin.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import all_rules, analyze_source, rules_by_id
from repro.analysis.baseline import (
    BaselineEntry,
    BaselineError,
    entries_from_findings,
    load_baseline,
    parse_baseline,
    render_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.core import (
    SUPPRESS_RULE_ID,
    FileContext,
    fingerprint,
    parse_suppressions,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

RULES = rules_by_id()


def run(path: str, source: str):
    """All unsuppressed findings of every registered rule on a snippet."""
    return analyze_source(path, source, all_rules()).findings


def codes(path: str, source: str) -> list[str]:
    return [f.rule for f in run(path, source)]


# -- registry -----------------------------------------------------------------
# One test per rule id: deleting a rule module fails exactly these.

@pytest.mark.parametrize(
    "rule_id", ["R1", "R2", "R3", "R5", "R6", "R7", "R8"]
)
def test_rule_is_registered(rule_id):
    assert rule_id in RULES, f"rule {rule_id} missing from the registry"
    rule = RULES[rule_id]
    assert rule.rationale, f"{rule_id} must state the invariant it protects"
    assert rule.severity in ("warning", "error")


def test_registry_is_discovered_not_hardcoded():
    # Auto-discovery: every rules/r*.py module contributes at least one
    # rule, so a deleted module genuinely disappears.
    import pkgutil

    import repro.analysis.rules as pkg

    modules = [
        m.name for m in pkgutil.iter_modules(pkg.__path__)
        if m.name.startswith("r")
    ]
    assert len(modules) >= 7
    assert len(RULES) >= len(modules)


# -- R1: determinism ----------------------------------------------------------

def test_r1_flags_wall_clock_and_unseeded_rng():
    source = (
        "import time, random, uuid\n"
        "import numpy as np\n"
        "def f():\n"
        "    t = time.time()\n"
        "    r = random.random()\n"
        "    u = uuid.uuid4()\n"
        "    x = np.random.rand(4)\n"
    )
    found = codes("src/repro/sim/bad.py", source)
    assert found.count("R1") == 4


def test_r1_allows_seeded_rng_and_injected_clock():
    source = (
        "import time, random\n"
        "import numpy as np\n"
        "def f(clock=time.time):\n"  # reference, not a call
        "    rng = random.Random(7)\n"
        "    gen = np.random.default_rng(7)\n"
        "    return rng.random(), gen.random()\n"
    )
    assert codes("src/repro/fabric/good.py", source) == []


def test_r1_scope_excludes_non_deterministic_layers():
    source = "import time\nx = time.time()\n"
    assert codes("src/repro/cli.py", source) == []
    assert "R1" in codes("src/repro/store/x.py", source)


def test_r1_resolves_import_aliases():
    source = "import numpy.random as nr\nv = nr.rand(3)\n"
    assert "R1" in codes("src/repro/engine/x.py", source)


def test_r1_suppressed_with_reason():
    source = (
        "import time\n"
        "t = time.time()  # repro: ignore[R1] -- forensic timestamp only\n"
    )
    report = analyze_source("src/repro/store/x.py", source, all_rules())
    assert [f.rule for f in report.findings] == []
    assert [f.rule for f in report.suppressed] == ["R1"]


# -- R2: atomic publish -------------------------------------------------------

def test_r2_flags_raw_write_in_store_layer():
    source = "def f(path):\n    path.write_bytes(b'x')\n"
    assert "R2" in codes("src/repro/store/x.py", source)
    source = "def f(path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n"
    assert "R2" in codes("src/repro/fabric/x.py", source)


def test_r2_allows_tmp_staging_and_atomic_rename():
    source = (
        "import os\n"
        "def publish(path, tmp):\n"
        "    tmp.write_bytes(b'x')\n"        # tmp target
        "    os.replace(tmp, path)\n"
    )
    assert codes("src/repro/store/x.py", source) == []


def test_r2_class_scope_ties_two_phase_writers_together():
    # Stage in one method, rename in a sibling: the class scope carries
    # the os.replace, so the staging write is not a finding.
    source = (
        "import os\n"
        "class Writer:\n"
        "    def stage(self, final):\n"
        "        self.scratch = final.with_name('x.part')\n"
        "        self.scratch.write_bytes(b'x')\n"
        "    def commit(self, final):\n"
        "        os.replace(self.scratch, final)\n"
    )
    assert codes("src/repro/store/x.py", source) == []


def test_r2_reads_and_out_of_scope_writes_are_fine():
    assert codes("src/repro/store/x.py", "open('f').read()\n") == []
    assert codes("src/repro/cli.py", "open('f', 'w').write('x')\n") == []


# -- R3: session discipline ---------------------------------------------------

def test_r3_flags_private_construction():
    source = "k = ReachabilityKernel(fpva)\n"
    assert "R3" in codes("src/repro/engine/x.py", source)
    source = "s = PressureSimulator(fpva)\n"
    assert "R3" in codes("examples/x.py", source)


def test_r3_allows_the_session_factories():
    source = "k = ReachabilityKernel(fpva)\ns = PressureSimulator(fpva)\n"
    assert codes("src/repro/context.py", source) == []
    assert codes("src/repro/sim/kernel.py", source) == []
    assert codes("src/repro/store/kernels.py", source) == []


# -- R5: broad except ---------------------------------------------------------

def test_r5_flags_swallowing_handlers():
    source = "try:\n    load()\nexcept Exception:\n    pass\n"
    assert "R5" in codes("src/repro/store/x.py", source)
    source = "try:\n    load()\nexcept:\n    pass\n"
    assert "R5" in codes("src/repro/sim/x.py", source)


def test_r5_allows_narrow_and_reraising_handlers():
    source = "try:\n    load()\nexcept OSError:\n    pass\n"
    assert codes("src/repro/store/x.py", source) == []
    source = (
        "try:\n    load()\nexcept Exception:\n    log()\n    raise\n"
    )
    assert codes("src/repro/store/x.py", source) == []


# -- R6: lease discipline -----------------------------------------------------

def test_r6_reserves_os_link_to_the_journal():
    source = "import os\ndef f(a, b):\n    os.link(a, b)\n"
    assert "R6" in codes("src/repro/fabric/runner.py", source)
    assert "R6" not in codes("src/repro/fabric/journal.py", source)


def test_r6_reserves_lease_files_to_the_claim_helpers():
    source = "def f(lease_path):\n    lease_path.unlink()\n"
    assert "R6" in codes("src/repro/fabric/x.py", source)
    assert "R6" not in codes("src/repro/fabric/supervision.py", source)
    # Non-lease file ops in fabric are R6-clean (R2 has its own opinion).
    assert "R6" not in codes("src/repro/fabric/x.py", "def f(p):\n    p.unlink()\n")
    # A heartbeat's mtime *is* its last beat: touching it elsewhere would
    # make a dead worker look alive.
    touch = "import os\ndef f(heartbeat_path, t):\n    os.utime(heartbeat_path, ns=(t, t))\n"
    assert "R6" in codes("src/repro/fabric/x.py", touch)
    assert "R6" in codes("scripts/x.py", touch)
    assert "R6" not in codes("src/repro/fabric/supervision.py", touch)


# -- R7: fork safety ----------------------------------------------------------

def test_r7_flags_mutable_defaults_and_module_state():
    source = "def f(x, acc=[]):\n    acc.append(x)\n    return acc\n"
    assert "R7" in codes("src/repro/engine/x.py", source)
    source = "CACHE = {}\n"
    assert "R7" in codes("src/repro/sim/x.py", source)


def test_r7_allows_immutable_and_annotated_all():
    source = "__all__ = ['a']\nLIMIT = 5\nNAMES = ('a', 'b')\n"
    assert codes("src/repro/fabric/x.py", source) == []
    source = "def f(x, acc=None):\n    acc = [] if acc is None else acc\n"
    assert codes("src/repro/engine/x.py", source) == []


def test_r7_suppression_carries_reason():
    source = (
        "# repro: ignore[R7] -- per-process memo, never crosses a fork\n"
        "_MEMO = {}\n"
    )
    report = analyze_source("src/repro/engine/x.py", source, all_rules())
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["R7"]


# -- R8: dtype hygiene --------------------------------------------------------

def test_r8_flags_untyped_constructors_on_hot_path():
    source = "import numpy as np\nw = np.zeros(8)\ni = np.arange(4)\n"
    assert codes("src/repro/sim/kernel.py", source).count("R8") == 2


def test_r8_allows_typed_and_dtype_preserving():
    source = (
        "import numpy as np\n"
        "w = np.zeros(8, dtype=np.uint64)\n"
        "v = np.asarray(x)\n"
        "c = np.zeros_like(w)\n"
    )
    assert codes("src/repro/sim/backends/word.py", source) == []


def test_r8_scope_is_the_hot_path_only():
    source = "import numpy as np\nw = np.zeros(8)\n"
    assert codes("src/repro/engine/x.py", source) == []


# -- suppression machinery ----------------------------------------------------

def test_ignore_without_reason_is_itself_an_error():
    source = "import time\nt = time.time()  # repro: ignore[R1]\n"
    found = run("src/repro/store/x.py", source)
    assert {f.rule for f in found} == {SUPPRESS_RULE_ID, "R1"}


def test_ignore_of_unknown_rule_is_an_error():
    source = "x = 1  # repro: ignore[R99] -- no such rule\n"
    found = run("src/repro/store/x.py", source)
    assert [f.rule for f in found] == [SUPPRESS_RULE_ID]


def test_ignore_in_docstring_is_inert():
    source = '"""Docs quoting # repro: ignore[R1] -- like this."""\nx = 1\n'
    assert run("src/repro/store/x.py", source) == []


def test_comment_line_suppresses_next_line_only():
    source = (
        "import time\n"
        "# repro: ignore[R1] -- first read is deliberate\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    found = run("src/repro/store/x.py", source)
    assert len(found) == 1 and found[0].line == 4


def test_multi_rule_ignore():
    source, lines = (
        "x = 1  # repro: ignore[R1,R7] -- both deliberate\n"
    ), None
    sups, problems = parse_suppressions(
        source, source.splitlines(), {"R1", "R7"}
    )
    assert problems == []
    assert sups[0].rules == ("R1", "R7")
    assert sups[0].reason == "both deliberate"


def test_syntax_error_reports_parse_finding():
    found = run("src/repro/store/x.py", "def broken(:\n")
    assert [f.rule for f in found] == ["PARSE"]


# -- baseline format ----------------------------------------------------------

def entry_strategy():
    text = st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\x00"
        ),
        min_size=0,
        max_size=40,
    )
    return st.builds(
        BaselineEntry,
        rule=st.sampled_from(["R1", "R2", "R5", "R7"]),
        path=st.sampled_from(
            ["src/repro/store/a.py", "src/repro/fabric/b.py", "scripts/c.py"]
        ),
        fingerprint=st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
        line=st.integers(min_value=0, max_value=100000),
        message=text,
        justification=text.filter(lambda s: s.strip()),
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(entry_strategy(), max_size=8))
def test_baseline_roundtrip(entries):
    document = render_baseline(entries)
    recovered = parse_baseline(json.loads(document))
    assert sorted(recovered, key=lambda e: (e.path, e.rule, e.fingerprint)) == (
        sorted(entries, key=lambda e: (e.path, e.rule, e.fingerprint))
    )
    # Canonical form is a fixed point: render(parse(render(x))) == render(x).
    assert render_baseline(recovered) == document


def test_baseline_rejects_empty_justification(tmp_path):
    payload = {
        "version": 1,
        "entries": [{
            "rule": "R1", "path": "a.py", "fingerprint": "ab" * 8,
            "line": 1, "message": "m", "justification": "   ",
        }],
    }
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BaselineError, match="justification"):
        load_baseline(path)


def test_baseline_rejects_wrong_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(BaselineError, match="version"):
        load_baseline(path)


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == []


def test_split_by_baseline_partitions_and_reports_stale():
    source = "import time\na = time.time()\n"
    findings = run("src/repro/store/x.py", source)
    entries = entries_from_findings(findings)
    # Force a justification (the placeholder is still a valid string).
    stale_entry = BaselineEntry(
        rule="R1", path="src/repro/store/gone.py",
        fingerprint="00" * 8, line=1, message="old", justification="was real",
    )
    new, matched, stale = split_by_baseline(findings, entries + [stale_entry])
    assert new == [] and len(matched) == len(findings)
    assert stale == [stale_entry]


def test_split_by_baseline_scopes_staleness_to_analyzed_paths():
    """A partial lint must not read out-of-scope baseline entries as stale."""
    source = "import time\na = time.time()\n"
    findings = run("src/repro/store/x.py", source)
    entries = entries_from_findings(findings)
    unjudged = BaselineEntry(
        rule="R1", path="src/repro/fabric/elsewhere.py",
        fingerprint="00" * 8, line=1, message="old", justification="was real",
    )
    new, matched, stale = split_by_baseline(
        findings, entries + [unjudged], analyzed_paths=["src/repro/store/x.py"]
    )
    assert new == [] and len(matched) == len(findings)
    assert stale == []  # elsewhere.py was not analyzed, so it is unjudged
    # ... but an entry for an analyzed file with no matching finding IS stale.
    gone = BaselineEntry(
        rule="R1", path="src/repro/store/x.py",
        fingerprint="11" * 8, line=9, message="old", justification="was real",
    )
    _, _, stale = split_by_baseline(
        findings, entries + [gone], analyzed_paths=["src/repro/store/x.py"]
    )
    assert stale == [gone]


def test_fingerprint_is_line_number_independent():
    base = "import time\nt = time.time()\n"
    shifted = "import time\n\n\n# moved down\nt = time.time()\n"
    f1 = run("src/repro/store/x.py", base)
    f2 = run("src/repro/store/x.py", shifted)
    assert f1[0].fingerprint == f2[0].fingerprint
    assert f1[0].line != f2[0].line


def test_fingerprint_occurrence_disambiguates_identical_lines():
    source = "import time\na = time.time()\nb = 1\na = time.time()\n"
    found = run("src/repro/store/x.py", source)
    assert len(found) == 2
    assert found[0].fingerprint != found[1].fingerprint


# -- CLI ----------------------------------------------------------------------

def make_repo(tmp_path: Path, body: str) -> Path:
    root = tmp_path / "repo"
    (root / "src" / "repro" / "store").mkdir(parents=True)
    (root / "src" / "repro" / "store" / "mod.py").write_text(body)
    return root


def test_cli_exit_codes_and_json_report(tmp_path, capsys):
    root = make_repo(tmp_path, "import time\nt = time.time()\n")
    out = tmp_path / "report.json"
    code = lint_main([
        "--root", str(root), "--format", "json", "--output", str(out),
        "src/repro",
    ])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["counts"]["new_errors"] == 1
    assert report["new"][0]["rule"] == "R1"
    capsys.readouterr()


def test_cli_write_baseline_then_strict_clean(tmp_path, capsys):
    root = make_repo(tmp_path, "import time\nt = time.time()\n")
    assert lint_main(["--root", str(root), "--write-baseline", "src/repro"]) == 0
    # The placeholder justification must be filled in by a human; do it.
    baseline = root / "analysis-baseline.json"
    entries = load_baseline(baseline)
    write_baseline(baseline, [
        BaselineEntry(**{**e.as_dict(), "justification": "known, tracked"})
        for e in entries
    ])
    assert lint_main(["--root", str(root), "--strict", "src/repro"]) == 0
    capsys.readouterr()


def test_cli_strict_fails_on_stale_baseline(tmp_path, capsys):
    root = make_repo(tmp_path, "x = 1\n")
    stale = BaselineEntry(
        rule="R1", path="src/repro/store/mod.py",
        fingerprint="00" * 8, line=1, message="gone", justification="was real",
    )
    write_baseline(root / "analysis-baseline.json", [stale])
    assert lint_main(["--root", str(root), "src/repro"]) == 0     # default: ok
    assert lint_main(["--root", str(root), "--strict", "src/repro"]) == 1
    capsys.readouterr()


def test_cli_warning_severity_gates_only_strict(tmp_path, capsys):
    root = make_repo(tmp_path, "CACHE = {}\n")  # R7 is a warning
    assert lint_main(["--root", str(root), "src/repro"]) == 0
    assert lint_main(["--root", str(root), "--strict", "src/repro"]) == 1
    capsys.readouterr()


def test_repro_lint_subcommand_forwards():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        capture_output=True, text=True,
        cwd=REPO_ROOT, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "R1" in proc.stdout and "R8" in proc.stdout


# -- end to end ---------------------------------------------------------------

def test_repo_lints_clean_against_committed_baseline():
    """The CI gate's local twin: the real tree, the real baseline."""
    code = lint_main(["--root", str(REPO_ROOT), "--strict"])
    assert code == 0, "repo must lint clean under --strict (see output)"


def test_committed_baseline_is_small_and_justified():
    entries = load_baseline(REPO_ROOT / "analysis-baseline.json")
    assert len(entries) <= 10
    for entry in entries:
        assert len(entry.justification) >= 20, (
            f"{entry.rule} at {entry.path}: justification too thin"
        )

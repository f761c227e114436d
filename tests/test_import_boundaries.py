"""Import boundaries: what ``src/`` may import, and what the CLI loads.

Reference implementations (``oracle.py``, ``branch_bound.py``) live
under ``tests/`` and production code must never reach them; the CLI
imports the campaign fabric only inside its journaled branch, so every
other command starts without it; and scipy loads only when an ILP is
solved, so a command that loads its suite from the store never imports
it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
SRC = PACKAGE.parent

#: Top-level names of the modules under ``tests/``, plus the old home of
#: the branch-and-bound oracle.
TEST_ONLY_ROOTS = {"tests", "oracle", "branch_bound"}
TEST_ONLY_MODULES = {"repro.ilp.branch_bound"}


def _imported_modules(path: Path):
    """Every module an ``import`` statement in ``path`` names, resolved to
    an absolute dotted name (``from x import y`` yields ``x`` and ``x.y``)."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_src_imports_no_test_code():
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for module in _imported_modules(path)
        if module.split(".")[0] in TEST_ONLY_ROOTS or module in TEST_ONLY_MODULES
    ]
    assert offenders == []


def _python(*argv: str) -> str:
    """Stdout of a fresh interpreter that imports ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout


@pytest.mark.parametrize("package", ["repro.fabric", "scipy"])
def test_cli_import_leaves_the_fabric_unloaded(package):
    """A fresh ``import repro.cli`` must not pay for ``repro.fabric`` or scipy."""
    loaded = _python(
        "-c",
        "import sys, repro.cli; print(sorted(m for m in sys.modules "
        f"if m == {package!r} or m.startswith({package + '.'!r})))",
    ).strip()
    assert loaded == "[]"


#: Runs one CLI command, then prints the scipy modules it loaded.
CLI_THEN_SCIPY = """
import sys
from repro.cli import main

code = main(sys.argv[1:])
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(code)
"""


def test_warm_commands_load_the_suite_and_no_scipy(tmp_path):
    """After ``repro warm``, ``diagnose`` and ``campaign`` load the stored
    suite, and with it every artifact they need, without importing scipy."""
    cache = str(tmp_path / "cache")
    array = ("--size", "3", "--full", "--cache-dir", cache)
    assert "suite generated" in _python("-m", "repro", "warm", *array)
    for command in (
        ("diagnose", "--trials", "2", "--adaptive"),
        ("campaign", "--trials", "10", "--max-faults", "2"),
    ):
        out = _python("-c", CLI_THEN_SCIPY, *command, *array)
        assert "suite warm-loaded" in out, out
        assert "scipy modules: []" in out, out


def test_one_canonicalizer():
    """``FaultFold`` is the one fault model: it is constructed only by
    ``BatchEvaluator`` (``sim/kernel.py``) and ``Tester``
    (``sim/tester.py``), so every other layer turns fault sets into
    scenarios through ``BatchEvaluator.slot_rows`` or a tester, and the
    per-set model the fold replaced is gone from ``src/``."""
    owners = {PACKAGE / "sim" / "kernel.py", PACKAGE / "sim" / "tester.py"}
    callers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path not in owners
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "FaultFold"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert callers == []
    retired = ("CompiledFaultSet", "compile_faults", "effective_masks")
    mentions = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in retired
        if name in path.read_text()
    ]
    assert mentions == []

"""Import boundaries: what ``src/`` may import, and what the CLI loads.

Reference implementations (``oracle.py``, ``branch_bound.py``) live
under ``tests/`` and production code must never reach them; the CLI
imports the campaign fabric only inside its journaled branch, so every
other command starts without it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_the_fabric_unloaded():
    """A fresh ``import repro.cli`` must not pay for ``repro.fabric``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.fabric')))",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"

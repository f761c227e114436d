"""The rule engine: findings, suppressions, and the per-file driver.

One :class:`FileContext` is built per analyzed file — the parsed AST,
the raw source lines, an import-alias resolver (``np.random.rand`` →
``numpy.random.rand`` whatever the file imported numpy as), and a
function/class scope index — and every registered rule runs over it.
Rules never re-parse and never re-walk imports; all shared work lives
here.

**Suppressions.**  A finding whose line (or whose line's immediately
preceding comment-only line) carries ``# repro: ignore[RULE] -- reason``
is suppressed.  The reason string is *required*: an ignore without one —
or one naming a rule id that does not exist — is itself reported as a
:data:`SUPPRESS_RULE_ID` error, so suppressions stay auditable instead
of rotting into cargo cult.

**Fingerprints.**  Findings are identified for baselining by a BLAKE2b
fingerprint of ``(rule, path, normalized source line, occurrence
index)`` — deliberately *not* the line number, so unrelated edits above
a grandfathered finding do not invalidate the baseline entry.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Severity levels, in increasing order of strictness of enforcement:
#: ``error`` fails a default run, ``warning`` only fails ``--strict``.
SEVERITIES = ("warning", "error")

#: Pseudo-rule id used for findings about the suppression mechanism
#: itself (missing reason, unknown rule id in an ignore).
SUPPRESS_RULE_ID = "SUP"

#: ``# repro: ignore[R1]`` / ``ignore[R2,R7]`` with a required reason
#: after ``--`` or ``:``.
_IGNORE_RE = re.compile(
    r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s-]*)\]\s*(?:(?:--|:)\s*(\S.*?))?\s*$"
)

# -- path predicates ---------------------------------------------------------
# Module scoping is by repo-relative posix path; rules share these so the
# notion of "deterministic module" / "store layer" stays in one place.

#: Packages whose results must be a pure function of (inputs, seed):
#: unseeded randomness or wall-clock reads here break reproducibility.
DETERMINISTIC_PACKAGES = (
    "src/repro/sim/",
    "src/repro/fabric/",
    "src/repro/engine/",
    "src/repro/store/",
)

#: Layers that write under store/journal roots: every publish must flow
#: through the atomic temp + rename(+fsync) discipline.
STORE_LAYERS = ("src/repro/store/", "src/repro/fabric/", "scripts/")

#: Modules imported by process-pool workers (fork/spawn safety).
WORKER_IMPORTED = DETERMINISTIC_PACKAGES

#: The bit-parallel hot path, where an untyped literal silently promotes
#: ``uint64`` intermediates to ``int64``/``float64``.
HOT_PATH = ("src/repro/sim/kernel.py", "src/repro/sim/backends/")

#: The only modules allowed to construct testers/kernels privately:
#: the session layer itself and the package that defines them.
SESSION_FACTORIES = (
    "src/repro/context.py",
    "src/repro/sim/",
)


def in_any(path: str, prefixes: Iterable[str]) -> bool:
    """Whether a repo-relative posix path sits under any of ``prefixes``."""
    return any(path == p or path.startswith(p) for p in prefixes)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str
    fingerprint: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule} {self.severity}: {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: ignore[...]`` comment."""

    line: int           #: line the comment sits on (1-based)
    target_line: int    #: line whose findings it suppresses
    rules: tuple[str, ...]
    reason: str


class Rule:
    """Base class every analysis rule derives from.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies_to` scopes the rule to path prefixes (``scope=()``
    means repo-wide).  Rules are stateless — one instance serves every
    file — and yield plain ``(node, message)`` pairs through
    :meth:`FileContext.finding`.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    #: One-line statement of the invariant the rule protects.
    rationale: str = ""
    #: Path prefixes the rule applies to; empty means everywhere.
    scope: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        return not self.scope or in_any(path, self.scope)

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError


_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "deque"}


def is_mutable_literal(node: ast.expr) -> bool:
    """Whether an expression is a mutable container display/constructor."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_tail(node.func)
        return name in _MUTABLE_CALLS
    return False


def dotted_tail(node: ast.expr) -> str:
    """The last attribute/name component of an expression, or ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _dotted_chain(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class FileContext:
    """Everything rules need about one file, computed exactly once."""

    def __init__(self, path: str, source: str, tree: ast.Module | None = None):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree if tree is not None else ast.parse(source, filename=path)
        self.imports = self._collect_imports()
        self._scopes: list[tuple[ast.AST, set[str]]] | None = None
        self._fingerprint_counts: dict[tuple[str, str], int] = {}

    # -- imports -------------------------------------------------------------
    def _collect_imports(self) -> dict[str, str]:
        """Local alias → fully dotted origin (``np`` → ``numpy``,
        ``now`` → ``datetime.datetime.now`` for ``from datetime import
        datetime`` + attribute access resolved in :meth:`resolve`)."""
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    full = alias.name if alias.asname else alias.name.split(".")[0]
                    table[local] = full
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
        return table

    def resolve(self, node: ast.expr) -> str:
        """Fully-qualified dotted name of an expression, alias-resolved.

        ``np.random.rand`` resolves to ``numpy.random.rand`` when the
        file did ``import numpy as np``; unresolvable expressions (calls
        on call results, subscripts…) resolve to ``""``.
        """
        chain = _dotted_chain(node)
        if not chain:
            return ""
        head, rest = chain[0], chain[1:]
        origin = self.imports.get(head, head)
        return ".".join([origin, *rest])

    # -- scopes --------------------------------------------------------------
    def _scope_index(self) -> list[tuple[ast.AST, set[str]]]:
        """(function-or-class node, resolved call names inside it) pairs.

        Used by scope-sensitive rules ("a write is fine if the same
        function/class also performs the atomic rename").
        """
        if self._scopes is None:
            index = []
            for node in ast.walk(self.tree):
                if isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    calls = {
                        self.resolve(sub.func)
                        for sub in ast.walk(node)
                        if isinstance(sub, ast.Call)
                    }
                    calls |= {
                        dotted_tail(sub.func)
                        for sub in ast.walk(node)
                        if isinstance(sub, ast.Call)
                    }
                    index.append((node, calls))
            self._scopes = index
        return self._scopes

    def enclosing_calls(self, node: ast.AST) -> set[str]:
        """Union of call names across every function/class scope whose
        source span contains ``node`` (falls back to the whole module for
        top-level statements).

        The union is deliberate: a two-phase writer may stage bytes in
        one method and ``os.replace`` in a sibling method of the same
        class — the class scope ties them together.
        """
        union: set[str] = set()
        contained = False
        for scope, calls in self._scope_index():
            start = scope.lineno
            end = getattr(scope, "end_lineno", start)
            if start <= node.lineno <= end:
                union |= calls
                contained = True
        if contained:
            return union
        # Module scope: every call in the file.
        all_calls = {
            self.resolve(sub.func)
            for sub in ast.walk(self.tree)
            if isinstance(sub, ast.Call)
        }
        all_calls |= {
            dotted_tail(sub.func)
            for sub in ast.walk(self.tree)
            if isinstance(sub, ast.Call)
        }
        return all_calls

    # -- findings ------------------------------------------------------------
    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.snippet(line)
        key = (rule.id, snippet)
        occurrence = self._fingerprint_counts.get(key, 0)
        self._fingerprint_counts[key] = occurrence + 1
        return Finding(
            rule=rule.id,
            severity=rule.severity,
            path=self.path,
            line=line,
            col=col + 1,
            message=message,
            snippet=snippet,
            fingerprint=fingerprint(rule.id, self.path, snippet, occurrence),
        )


def fingerprint(rule: str, path: str, snippet: str, occurrence: int = 0) -> str:
    """Stable identity of one finding (line-number independent)."""
    payload = "\0".join((rule, path, " ".join(snippet.split()), str(occurrence)))
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _comment_lines(source: str) -> dict[int, str]:
    """Line → comment text, for *real* comment tokens only (a docstring
    that quotes the ignore syntax must not suppress anything)."""
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def parse_suppressions(
    source: str, lines: list[str], known_rules: Iterable[str]
) -> tuple[list[Suppression], list[tuple[int, str]]]:
    """All ``# repro: ignore`` comments in a file, plus malformed ones.

    A comment-only line suppresses the next non-blank source line; an
    end-of-line comment suppresses its own line.  Returns
    ``(suppressions, problems)`` where each problem is ``(line,
    message)`` — a missing reason or an unknown rule id.
    """
    known = set(known_rules)
    suppressions: list[Suppression] = []
    problems: list[tuple[int, str]] = []
    for i, comment in sorted(_comment_lines(source).items()):
        text = lines[i - 1] if i <= len(lines) else comment
        match = _IGNORE_RE.search(comment)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        reason = (match.group(2) or "").strip()
        target = i
        if text.strip().startswith("#"):
            # Comment-only line: applies to the next non-blank line.
            j = i
            while j < len(lines) and not lines[j].strip():
                j += 1
            target = j + 1 if j < len(lines) else i
        if not rules:
            problems.append((i, "ignore[] names no rule"))
            continue
        unknown = [r for r in rules if r not in known]
        if unknown:
            problems.append(
                (i, f"ignore[] names unknown rule(s): {', '.join(unknown)}")
            )
        if not reason:
            problems.append(
                (i, f"ignore[{','.join(rules)}] has no reason — append "
                    f"'-- why this is deliberately kept'")
            )
            continue
        suppressions.append(
            Suppression(line=i, target_line=target, rules=rules, reason=reason)
        )
    return suppressions, problems


@dataclass
class FileReport:
    """Outcome of analyzing one file."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)


class _SuppressMeta(Rule):
    """Internal pseudo-rule for malformed suppression comments."""

    id = SUPPRESS_RULE_ID
    name = "suppression-hygiene"
    severity = "error"
    rationale = (
        "every ignore must name a real rule and carry a reason string, "
        "so suppressions stay auditable"
    )


SUPPRESS_META = _SuppressMeta()


class _ParseMeta(Rule):
    """Internal pseudo-rule for unparseable files."""

    id = "PARSE"
    name = "syntax"
    severity = "error"
    rationale = "analyzed files must parse"


PARSE_META = _ParseMeta()


def analyze_source(
    path: str,
    source: str,
    rules: Iterable[Rule],
) -> FileReport:
    """Run every applicable rule over one file's source."""
    report = FileReport(path=path)
    all_ids = {r.id for r in rules}
    rules = [r for r in rules if r.applies_to(path)]
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        line = exc.lineno or 1
        report.findings.append(
            Finding(
                rule=PARSE_META.id,
                severity=PARSE_META.severity,
                path=path,
                line=line,
                col=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
                snippet="",
                fingerprint=fingerprint(PARSE_META.id, path, str(exc.msg)),
            )
        )
        return report

    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(ctx))

    known_ids = all_ids | {SUPPRESS_RULE_ID, PARSE_META.id}
    suppressions, problems = parse_suppressions(ctx.source, ctx.lines, known_ids)
    for line, message in problems:
        raw.append(
            Finding(
                rule=SUPPRESS_META.id,
                severity=SUPPRESS_META.severity,
                path=path,
                line=line,
                col=1,
                message=message,
                snippet=ctx.snippet(line),
                fingerprint=fingerprint(
                    SUPPRESS_META.id, path, ctx.snippet(line)
                ),
            )
        )

    by_line: dict[int, set[str]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.target_line, set()).update(sup.rules)
    for finding in sorted(raw, key=lambda f: (f.line, f.col, f.rule)):
        if finding.rule in by_line.get(finding.line, ()):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def iter_python_files(
    root: Path,
    targets: Iterable[str],
    exclude: Iterable[str] = ("tests", "benchmarks"),
) -> Iterator[tuple[Path, str]]:
    """Yield ``(absolute path, repo-relative posix path)`` deterministically."""
    excluded = set(exclude)
    for target in targets:
        base = root / target
        if base.is_file() and base.suffix == ".py":
            yield base, base.relative_to(root).as_posix()
            continue
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root)
            parts = rel.parts
            if any(p.startswith(".") or p == "__pycache__" for p in parts):
                continue
            if parts[0] in excluded:
                continue
            yield path, rel.as_posix()


def analyze_files(
    root: Path,
    targets: Iterable[str],
    rules: Iterable[Rule],
    reader: Callable[[Path], str] | None = None,
) -> list[FileReport]:
    """Analyze every python file under ``targets`` (relative to ``root``)."""
    rules = list(rules)
    read = reader if reader is not None else (
        lambda p: p.read_text(encoding="utf-8")
    )
    return [
        analyze_source(rel, read(path), rules)
        for path, rel in iter_python_files(root, targets)
    ]

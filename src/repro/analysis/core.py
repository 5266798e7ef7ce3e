"""Core of the simulation-safety static analyzer.

This module is the small visitor framework the repo-specific rules are
built on: :class:`SourceFile` (a parsed file plus its suppression
comments), :class:`Project` (every file of one analysis run),
:class:`Rule`/:class:`Finding` (the reporting contract), and
:func:`run_analysis` (load, check, filter, sort).

Scope model
-----------
The determinism rules (``DET00x``) only police *simulation hot paths*:
files under ``repro/{network,sim,cpu,control,traffic}``.  Code outside
those packages (the harness, observability, experiments, tests) may
legitimately read wall clocks or iterate dicts freely.  A file outside
the packages can opt in with a pragma comment near the top::

    # repro: analysis-scope=sim

(used by new simulation modules that live elsewhere, and by the test
fixture corpus).

Suppressions
------------
A finding is suppressed when its physical line carries::

    # repro: noqa            (every rule)
    # repro: noqa[DET001]    (listed rules only, comma-separated)

Suppression is per-line and explicit by design: a suppressed violation
stays visible in the diff forever.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import pathlib
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "SIM_PACKAGES",
    "dotted_name",
    "import_aliases",
    "iter_python_files",
    "run_analysis",
]

#: Packages whose files are simulation hot paths (the DET rules' scope).
SIM_PACKAGES: Tuple[str, ...] = (
    "network", "sim", "cpu", "control", "traffic", "chaos", "topology",
)

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")
_SIM_SCOPE_RE = re.compile(r"#\s*repro:\s*analysis-scope\s*=\s*sim\b")
#: The pragma must appear in the first few lines to count (header, not
#: an incidental mention buried in a string or late comment).
_SCOPE_SCAN_LINES = 10


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceFile:
    """A parsed Python file plus the comment pragmas the rules honor."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text, filename=path)

    @property
    def in_sim_scope(self) -> bool:
        """Whether the DET (hot-path) rules apply to this file."""
        parts = pathlib.PurePath(self.path).parts
        for i in range(len(parts) - 1):
            if parts[i] == "repro" and parts[i + 1] in SIM_PACKAGES:
                return True
        return any(
            _SIM_SCOPE_RE.search(line)
            for line in self.lines[:_SCOPE_SCAN_LINES]
        )

    def suppressed(self, finding: Finding) -> bool:
        """Whether a ``# repro: noqa[...]`` on the line silences *finding*."""
        if not 1 <= finding.line <= len(self.lines):
            return False
        match = _NOQA_RE.search(self.lines[finding.line - 1])
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True
        return finding.rule in {part.strip() for part in listed.split(",")}

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at *node*'s source location."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


class Project:
    """Every successfully parsed file of one analysis run."""

    def __init__(self, files: Sequence[SourceFile]):
        self.files: Tuple[SourceFile, ...] = tuple(files)

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def sim_files(self) -> Iterator[SourceFile]:
        for source in self.files:
            if source.in_sim_scope:
                yield source


class Rule:
    """One named check.  Subclasses yield findings over a project."""

    #: Stable identifier, e.g. ``"DET001"``; selectable via --select.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted module/attribute paths.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    Relative imports have no canonical absolute path and are skipped.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                canonical = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(
    node: ast.AST, aliases: Optional[Dict[str, str]] = None
) -> Optional[str]:
    """Canonical dotted path of an attribute chain, or ``None``.

    ``np.random.default_rng`` with ``{"np": "numpy"}`` resolves to
    ``"numpy.random.default_rng"``.  Chains not rooted in a plain name
    (calls, subscripts) resolve to ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases and root in aliases:
        root = aliases[root]
    parts.append(root)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _excluded(path: pathlib.Path, exclude: Sequence[str]) -> bool:
    candidate = path.as_posix()
    return any(fnmatch.fnmatch(candidate, pattern) for pattern in exclude)


def iter_python_files(
    paths: Sequence[str], exclude: Optional[Sequence[str]] = None
) -> Iterator[pathlib.Path]:
    """Every ``.py`` file under *paths*, in a deterministic order.

    *exclude* holds fnmatch glob patterns matched against the posix form
    of each discovered path (e.g. ``tests/analysis_fixtures/*``); a file
    named explicitly as a path argument is exempt from exclusion, so the
    deliberately-violating fixture corpus can still be analyzed head-on.
    """
    seen = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            candidates: Iterable[pathlib.Path] = (
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not (exclude and _excluded(candidate, exclude))
            )
        else:
            candidates = [path]
        for candidate in candidates:
            key = str(candidate)
            if key not in seen:
                seen.add(key)
                yield candidate


def load_project(
    paths: Sequence[str],
    exclude: Optional[Sequence[str]] = None,
) -> Tuple[Project, List[Finding]]:
    """Parse every file under *paths*.

    Unreadable or syntactically invalid files become ``PARSE000``
    findings instead of aborting the run — the analyzer must keep
    working on a tree that is mid-edit.
    """
    sources: List[SourceFile] = []
    errors: List[Finding] = []
    for path in iter_python_files(paths, exclude=exclude):
        name = str(path)
        try:
            sources.append(SourceFile(name, path.read_text(encoding="utf-8")))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            errors.append(
                Finding(
                    path=name,
                    line=int(line),
                    col=1,
                    rule="PARSE000",
                    message=f"could not analyze file: {exc}",
                )
            )
    return Project(sources), errors


def run_analysis(
    paths: Sequence[str],
    rules: Sequence[Rule],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    exclude: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run *rules* over *paths* and return the surviving findings.

    ``select`` keeps only the listed rule ids; ``ignore`` removes the
    listed ids afterwards.  ``# repro: noqa`` suppressions are applied
    before returning; findings come back sorted by location then rule.
    """
    chosen = sorted(rules, key=lambda rule: rule.id)
    if select is not None:
        wanted = set(select)
        chosen = [rule for rule in chosen if rule.id in wanted]
    if ignore is not None:
        dropped = set(ignore)
        chosen = [rule for rule in chosen if rule.id not in dropped]

    project, findings = load_project(paths, exclude=exclude)
    by_path = {source.path: source for source in project}
    for rule in chosen:
        for finding in rule.check(project):
            source = by_path.get(finding.path)
            if source is not None and source.suppressed(finding):
                continue
            findings.append(finding)
    return sorted(findings)

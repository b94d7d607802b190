"""repro-lint: AST-based checks for this repo's correctness invariants.

PR 1 split every hot path into two kernels that must stay bit-identical
(batched vs reference) and a scheduler that must stay deterministic at any
worker count.  Those invariants are conventions — a centered-FFT grid
layout, seeded RNG plumbing, float32-free band math, one distance
reduction — that ordinary linters cannot see.  Each rule in
:mod:`repro.analysis.rules` encodes one of them as an AST check, so a
future perf PR that quietly breaks a convention fails the gate instead of
producing plausible-but-wrong orientations.

Two rule families run here:

* **per-module rules** (RL001–RL012) check one file at a time;
* **whole-program rules** (RL013–RL015, subclassing ``ProgramRule``)
  check the symbol-table/call-graph :class:`~repro.analysis.callgraph.Project`
  built over *all* the linted files — worker-path safety, exception-flow
  classification, and static contract propagation live on call edges no
  single file can see.

Usage (also via ``python -m repro.analysis``)::

    from repro.analysis.lint import lint_paths
    findings = lint_paths(["src/repro"])    # [] when clean

A finding can be waived *in place* with a justification comment on the
offending line (``allow[RL002]`` names the rule; ``allow[*]`` waives every
rule on the line; several ids may share one bracket, comma-separated)::

    local = np.fft.fft2(slab)  # repro-lint waiver comment naming the rule

Waivers are per-line and per-rule, and only real comments count — the
scanner tokenizes the source, so an ``allow[...]`` inside a string or
docstring is inert.  A standalone comment line waives the next code line
(so long justifications can sit above the code).  Each waiver is tracked:
one that suppresses nothing is *stale* and is reported by
:func:`lint_collect` (the gate warns by default and fails under
``--strict-waivers``).  Rule scoping (which paths a rule patrols) lives on
each rule class.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.rules import Rule

__all__ = [
    "Finding",
    "LintReport",
    "ModuleUnderLint",
    "STALE_WAIVER_RULE",
    "Waiver",
    "lint_collect",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_module",
    "relative_module_path",
]

_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow\[([A-Za-z0-9*,\s]+)\]")
_VALID_WAIVER_ID = re.compile(r"RL\d+\Z|\*\Z")

#: rule id under which stale waivers are reported (``--strict-waivers``).
STALE_WAIVER_RULE = "RLW01"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping (the ``--format json`` gate output)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Waiver:
    """One ``allow[...]`` comment: where it sits and which lines it covers.

    ``line`` is the comment's own line; ``covers`` the set of lines whose
    findings it may suppress (the comment line itself, plus the next code
    line for a standalone comment).
    """

    line: int
    ids: frozenset[str]
    covers: frozenset[int]

    def suppresses(self, finding: Finding) -> bool:
        return finding.line in self.covers and ("*" in self.ids or finding.rule in self.ids)


@dataclass(frozen=True)
class ModuleUnderLint:
    """A parsed module plus the metadata rules need.

    ``rel`` is the package-relative posix path (``repro/align/fused.py``)
    that rule scoping matches against; ``path`` is the display path.
    """

    path: str
    rel: str
    source: str
    tree: ast.Module
    allow: dict[int, frozenset[str]]
    waivers: tuple[Waiver, ...] = ()

    def allows(self, line: int, rule_id: str) -> bool:
        waived = self.allow.get(line)
        return waived is not None and ("*" in waived or rule_id in waived)


def relative_module_path(path: Path) -> str:
    """Map a filesystem path to its ``repro/...`` package-relative form.

    Files outside any ``repro`` directory (ad-hoc fixtures) are treated as
    top-level ``repro/<name>`` modules so unscoped rules still apply.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return f"repro/{path.name}"


def _comment_lines(source: str) -> dict[int, tuple[int, str]] | None:
    """Real comment tokens by line: ``{line: (col, text)}``.

    Tokenizing (rather than regex-scanning every line) keeps waiver
    markers inside strings and docstrings inert.  Returns ``None`` when
    the source cannot be tokenized (the caller falls back to treating
    every line as a potential comment, the historical behavior).
    """
    comments: dict[int, tuple[int, str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = (tok.start[1], tok.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return None
    return comments


def _scan_waivers(source: str) -> tuple[Waiver, ...]:
    """Every ``allow[...]`` waiver comment with the lines it covers.

    An inline comment waives its own line; a standalone comment line
    waives the next code line (so long justifications can sit above the
    code).  Stacked standalone waiver comments all attach to the same
    next code line.  Ids that are not ``RL<digits>`` or ``*`` are dropped
    (prose like ``allow[RLxxx]`` in documentation never becomes a waiver).
    """
    comments = _comment_lines(source)
    waivers: list[Waiver] = []
    pending: list[tuple[int, frozenset[str]]] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        if comments is None:
            candidate: tuple[int, str] | None = (0, line)
        else:
            candidate = comments.get(lineno)
        match = _ALLOW_RE.search(candidate[1]) if candidate is not None else None
        stripped = line.strip()
        if match:
            ids = frozenset(
                tok.strip()
                for tok in match.group(1).split(",")
                if _VALID_WAIVER_ID.match(tok.strip())
            )
            if not ids:
                continue
            if stripped.startswith("#"):
                pending.append((lineno, ids))
            else:
                waivers.append(Waiver(line=lineno, ids=ids, covers=frozenset({lineno})))
            continue
        if pending and stripped and not stripped.startswith("#"):
            for comment_line, ids in pending:
                waivers.append(
                    Waiver(line=comment_line, ids=ids, covers=frozenset({comment_line, lineno}))
                )
            pending = []
    for comment_line, ids in pending:  # trailing comment with no code after it
        waivers.append(Waiver(line=comment_line, ids=ids, covers=frozenset({comment_line})))
    return tuple(waivers)


def _allow_map(waivers: Sequence[Waiver]) -> dict[int, frozenset[str]]:
    """Waived rule ids per line, derived from the waiver list."""
    allow: dict[int, frozenset[str]] = {}
    for waiver in waivers:
        for line in waiver.covers:
            allow[line] = allow.get(line, frozenset()) | waiver.ids
    return allow


def _module_from_source(source: str, rel: str, path: str) -> ModuleUnderLint:
    waivers = _scan_waivers(source)
    return ModuleUnderLint(
        path=path,
        rel=rel,
        source=source,
        tree=ast.parse(source, filename=path),
        allow=_allow_map(waivers),
        waivers=waivers,
    )


def parse_module(path: Path, rel: str | None = None) -> ModuleUnderLint:
    """Read and parse one file into a :class:`ModuleUnderLint`."""
    source = path.read_text(encoding="utf-8")
    return _module_from_source(
        source, rel if rel is not None else relative_module_path(path), str(path)
    )


@dataclass(frozen=True)
class LintReport:
    """Everything one lint run learned: live findings, waived ones, stale waivers.

    ``findings`` are the violations that survive waivers; ``suppressed``
    the ones a waiver absorbed (the evidence stale-waiver detection works
    from); ``stale_waivers`` one :data:`STALE_WAIVER_RULE` finding per
    ``allow[...]`` comment that suppressed nothing — relative to the rules
    that actually ran.
    """

    findings: tuple[Finding, ...] = ()
    suppressed: tuple[Finding, ...] = ()
    stale_waivers: tuple[Finding, ...] = ()


def _default_rules() -> Sequence["Rule"]:
    from repro.analysis.rules import all_rules

    return all_rules()


def _sorted(findings: Iterable[Finding]) -> tuple[Finding, ...]:
    return tuple(sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule)))


def _collect(mods: Sequence[ModuleUnderLint], rules: Sequence["Rule"]) -> LintReport:
    from repro.analysis.rules._base import ProgramRule

    module_rules = [r for r in rules if not isinstance(r, ProgramRule)]
    program_rules = [r for r in rules if isinstance(r, ProgramRule)]
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for mod in mods:
        for rule in module_rules:
            if not rule.applies(mod):
                continue
            for finding in rule.check(mod):
                if mod.allows(finding.line, rule.rule_id):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
    if program_rules:
        from repro.analysis.callgraph import build_project

        project = build_project(mods)
        by_path = {mod.path: mod for mod in mods}
        for rule in program_rules:
            for finding in rule.check_program(project):
                mod = by_path.get(finding.path)
                if mod is not None and mod.allows(finding.line, rule.rule_id):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
    stale: list[Finding] = []
    for mod in mods:
        for waiver in mod.waivers:
            if not any(f.path == mod.path and waiver.suppresses(f) for f in suppressed):
                ids = ",".join(sorted(waiver.ids))
                stale.append(
                    Finding(
                        rule=STALE_WAIVER_RULE,
                        path=mod.path,
                        line=waiver.line,
                        col=0,
                        message=f"stale waiver allow[{ids}]: it suppresses no finding "
                        "— remove it or restore the violation it justified",
                    )
                )
    return LintReport(
        findings=_sorted(findings),
        suppressed=_sorted(suppressed),
        stale_waivers=_sorted(stale),
    )


def lint_source(
    source: str,
    rel: str,
    path: str = "<string>",
    rules: Sequence["Rule"] | None = None,
) -> list[Finding]:
    """Lint an in-memory snippet as if it lived at ``rel`` (test entry point)."""
    mod = _module_from_source(source, rel, path)
    return list(_collect([mod], _default_rules() if rules is None else rules).findings)


def lint_file(path: Path, rules: Sequence["Rule"] | None = None) -> list[Finding]:
    """Lint one file."""
    return list(
        _collect([parse_module(path)], _default_rules() if rules is None else rules).findings
    )


def _iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_collect(
    paths: Iterable[str | Path],
    rules: Sequence["Rule"] | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` into a full :class:`LintReport`.

    The whole-program rules see one :class:`~repro.analysis.callgraph.Project`
    spanning every collected file, so cross-module edges resolve exactly
    when the files are linted together (the gate always lints the whole
    ``src/repro`` tree).
    """
    resolved_rules = _default_rules() if rules is None else rules
    mods = [parse_module(file) for file in _iter_python_files(Path(p) for p in paths)]
    return _collect(mods, resolved_rules)


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence["Rule"] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    return list(lint_collect(paths, rules).findings)

"""RL012 — candidate-window evaluation under ``refine/`` must be boundable.

The pruned search path (DESIGN.md §11) exists so that candidate windows
are scored under a k-th-best early-termination bound instead of
exhaustively.  A window-evaluation call sitting in a Python loop inside
the refinement drivers — a sliding-window re-scan, a per-seed fan-out, an
inner center/angle alternation — multiplies whatever that call costs, so
each such call must either thread a ``prune`` handle through to the
bounded engine or carry an explicit waiver naming why it is exhaustive on
purpose (the ``reference`` oracle branch that pruned results are
verified against is the canonical waiver).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleUnderLint
from repro.analysis.rules._base import Rule

__all__ = ["NoUnboundedCandidateEval"]

_LOOPS = (ast.For, ast.AsyncFor, ast.While)

#: The window-evaluation entry points: each scores a whole candidate
#: window (or triggers a chain of window scans) per invocation.
_WINDOW_EVALS = frozenset(
    {
        "sliding_window_search",
        "match_view",
        "match_view_window",
        "match_window",
    }
)


class NoUnboundedCandidateEval(Rule):
    rule_id = "RL012"
    name = "no-unbounded-candidate-eval"
    rationale = (
        "A window-evaluation call looping inside the refinement drivers "
        "multiplies an exhaustive scan; it must pass a `prune` handle so "
        "the bounded engine can abandon hopeless candidates, or carry a "
        "waiver naming why exhaustive evaluation is intended (equivalence "
        "oracles)."
    )
    include = ("repro/refine/",)

    def check(self, mod: ModuleUnderLint) -> Iterator[Finding]:
        yield from self._visit(mod, mod.tree, in_loop=False)

    def _visit(self, mod: ModuleUnderLint, node: ast.AST, in_loop: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop or isinstance(child, _LOOPS)
            # a nested def starts a fresh lexical scope: its body only runs
            # per-iteration if *it* contains the loop, not its surroundings
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                child_in_loop = False
            if child_in_loop and isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if name in _WINDOW_EVALS and not any(
                    kw.arg == "prune" for kw in child.keywords
                ):
                    yield self.finding(
                        mod,
                        child,
                        f"`{name}` called inside a loop without a `prune` "
                        "bound; thread PruneParams/PruneSearch through (or "
                        "waive the oracle branch explicitly)",
                    )
            yield from self._visit(mod, child, child_in_loop)

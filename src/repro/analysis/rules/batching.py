"""RL010 — no per-candidate ``cut_band`` loops in the matching packages.

The batched window engine exists so that a whole candidate window is
gathered and scored in one vectorized call (``MatchPlan.match_window``);
calling ``cut_band`` once per candidate inside a Python ``for``/``while``
loop reintroduces the per-candidate interpreter overhead the engine was
built to remove — typically a multiple-× slowdown that no test catches
because the results stay bit-identical.  Single straight-line calls (for
example the center pass, which scores exactly one cut) are fine; it is the
*loop* that marks a regression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleUnderLint
from repro.analysis.rules._base import Rule

__all__ = ["NoPerCandidateCutLoop"]

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


class NoPerCandidateCutLoop(Rule):
    rule_id = "RL010"
    name = "no-per-candidate-cut-loop"
    rationale = (
        "A `cut_band` call inside a Python loop scores candidates one at a "
        "time; window evaluation must go through the batched engine "
        "(`MatchPlan.match_window` / `cut_bands`), which gathers "
        "the whole candidate stack in one vectorized call."
    )
    include = ("repro/align/", "repro/refine/")

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
                if name == "cut_band":
                    yield self.finding(
                        mod,
                        child,
                        "`cut_band` called inside a loop (per-candidate "
                        "scoring); batch the window through "
                        "`MatchPlan.match_window` instead",
                    )
            yield from self._visit(mod, child, child_in_loop)

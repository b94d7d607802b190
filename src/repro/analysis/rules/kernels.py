"""RL006/RL007 — the two-kernels-one-truth invariants.

RL006: any function that accepts a ``kernel=`` parameter is a fork point
between the kernel implementations.  Fork points may select and delegate,
but they may not *compute*: every distance must bottom out in the single
:meth:`DistanceComputer.distance_band` reduction (directly or through the
matching API), the only kernel names are ``"batched"`` and
``"reference"``, and the choice must be validated or forwarded so a typo'd
kernel name fails loudly instead of silently picking a default.

RL007: the kernel boundaries named in ``REQUIRED_CONTRACTS`` must carry an
``@array_contract`` declaration, so the runtime-contract layer cannot be
dropped from a hot function during a refactor without the gate noticing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleUnderLint
from repro.analysis.rules._base import Rule, attribute_chain, walk_functions

__all__ = ["KernelBoundaryContract", "TwoKernelsOneTruth", "REQUIRED_CONTRACTS"]

_KERNEL_NAMES = {"batched", "reference"}

#: Calls that are known to bottom out in DistanceComputer.distance_band.
_APPROVED_CALLS = {
    "distance_band",
    "distance",
    "distance_batch",
    "distance_many_to_one",
    "match_view",
    "match_view_window",
    "match_window",
    "refine_center",
    "refine_view_at_level",
    "sliding_window_search",
    "refine_level_serial",
    "run_level",
    "cut_band",
    "cut_bands",
    "_box_search",
}

#: Kernel-boundary functions that must declare runtime array contracts.
REQUIRED_CONTRACTS: dict[str, frozenset[str]] = {
    "repro/align/distance.py": frozenset(
        {"DistanceComputer.gather", "DistanceComputer.distance_band"}
    ),
    "repro/align/fused.py": frozenset(
        {
            "MatchPlan.cut_bands",
            "MatchPlan.match_window",
            "MatchPlan.match_window_pruned",
        }
    ),
    "repro/fourier/slicing.py": frozenset({"extract_slice", "extract_slices"}),
    "repro/parallel/viewsched.py": frozenset({"_attach_volume"}),
}


def _has_kernel_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True for a *selector* ``kernel`` param (str-typed or str-defaulted).

    A ``kernel`` annotated with another type (e.g. the Kaiser-Bessel
    gridding window) is a different concept and is not a fork point.
    """
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    defaults: list[ast.expr | None] = [None] * (len(positional) - len(args.defaults))
    defaults += list(args.defaults)
    candidates = list(zip(positional, defaults)) + list(zip(args.kwonlyargs, args.kw_defaults))
    for arg, default in candidates:
        if arg.arg != "kernel":
            continue
        if isinstance(arg.annotation, ast.Name) and arg.annotation.id == "str":
            return True
        if isinstance(default, ast.Constant) and isinstance(default.value, str):
            return True
        if arg.annotation is None and default is None:
            return True
    return False


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


class TwoKernelsOneTruth(Rule):
    rule_id = "RL006"
    name = "two-kernels-one-truth"
    rationale = (
        "Functions taking kernel= are fork points between the kernels: they "
        "must compare only against 'batched'/'reference', validate or "
        "forward the choice, delegate all distance math to the distance_band "
        "family, and never open-code sqrt/norm reductions that could diverge "
        "between the kernels."
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[Finding]:
        for qualname, fn in walk_functions(mod.tree):
            if not _has_kernel_param(fn):
                continue
            yield from self._check_function(mod, qualname, fn)

    def _check_function(
        self, mod: ModuleUnderLint, qualname: str, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        validates = False
        forwards = False
        approved_call = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise):
                validates = True
            elif isinstance(node, ast.Call):
                if any(kw.arg == "kernel" for kw in node.keywords):
                    forwards = True
                if _call_name(node) in _APPROVED_CALLS:
                    approved_call = True
                chain = attribute_chain(node.func)
                if chain and (
                    (chain[0] in ("np", "numpy") and chain[-1] in ("sqrt", "norm"))
                ):
                    yield self.finding(mod,
                        node,
                        f"{qualname}: open-coded `{'.'.join(chain)}` reduction in a "
                        "kernel fork point; distances must come from the "
                        "distance_band family so both kernels share one truth",
                    )
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and key.value == "kernel":
                        forwards = True
            elif isinstance(node, ast.Assign):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "kernel"
                    and any(isinstance(t, ast.Attribute) for t in node.targets)
                ):
                    forwards = True
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(mod, qualname, node)
        if not (validates or forwards):
            yield self.finding(mod,
                fn,
                f"{qualname}: accepts kernel= but neither validates it (raise on "
                "unknown names) nor forwards it to a function that does",
            )
        if not (approved_call or forwards):
            yield self.finding(mod,
                fn,
                f"{qualname}: accepts kernel= but never routes through the "
                "distance_band / matching API (both kernel branches must share "
                "one distance reduction)",
            )

    def _check_compare(
        self, mod: ModuleUnderLint, qualname: str, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        if not any(isinstance(op, ast.Name) and op.id == "kernel" for op in operands):
            return
        literals: list[str] = []
        for op in operands:
            if isinstance(op, ast.Constant) and isinstance(op.value, str):
                literals.append(op.value)
            elif isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                literals.extend(
                    el.value
                    for el in op.elts
                    if isinstance(el, ast.Constant) and isinstance(el.value, str)
                )
        for lit in literals:
            if lit not in _KERNEL_NAMES:
                yield self.finding(mod,
                    node,
                    f"{qualname}: kernel compared against unknown name {lit!r} "
                    "(only 'batched' and 'reference' exist)",
                )


class KernelBoundaryContract(Rule):
    rule_id = "RL007"
    name = "kernel-boundary-contract"
    rationale = (
        "The kernel boundaries (band gathers, in-band cut sampling, slice "
        "extraction, shared-memory attach) must declare @array_contract "
        "specs so CI's contracts-on test run checks every shape/dtype "
        "convention the batched/reference equivalence depends on."
    )
    include = tuple(REQUIRED_CONTRACTS)

    def check(self, mod: ModuleUnderLint) -> Iterator[Finding]:
        required = REQUIRED_CONTRACTS.get(mod.rel)
        if not required:
            return
        seen: set[str] = set()
        for qualname, fn in walk_functions(mod.tree):
            if qualname not in required:
                continue
            seen.add(qualname)
            if not any(self._is_contract_decorator(d) for d in fn.decorator_list):
                yield self.finding(mod,
                    fn,
                    f"kernel boundary {qualname} is missing its @array_contract "
                    "declaration",
                )
        for missing in sorted(required - seen):
            yield self.finding(mod,
                1,
                f"expected kernel boundary {missing} in this module (update "
                "REQUIRED_CONTRACTS if it moved)",
            )

    @staticmethod
    def _is_contract_decorator(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            return node.id == "array_contract"
        if isinstance(node, ast.Attribute):
            return node.attr == "array_contract"
        return False

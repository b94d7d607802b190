"""RL001 — no nondeterminism in kernel/scheduler modules.

The scheduler promises bit-identical results at any worker count and the
batched/reference kernel pair promises bit-identical distances; both break
silently if a kernel module consults the wall clock or an unseeded RNG.
All randomness must flow through :func:`repro.utils.rng.default_rng` with
an explicit seed (or a caller-provided generator), and wall-clock time is
reserved for the timing utilities outside the kernel packages.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleUnderLint
from repro.analysis.rules._base import Rule, attribute_chain

__all__ = ["NoNondeterminism"]

_TIME_CALLS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "process_time"}


def _is_none_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _seedless(call: ast.Call) -> bool:
    """True when a default_rng-style call pins no seed (empty or literal None)."""
    if not call.args and not call.keywords:
        return True
    if call.args and _is_none_literal(call.args[0]):
        return True
    return any(kw.arg == "seed" and _is_none_literal(kw.value) for kw in call.keywords)


class NoNondeterminism(Rule):
    rule_id = "RL001"
    name = "no-nondeterminism"
    rationale = (
        "Kernel and scheduler modules must be bit-reproducible: no wall-clock "
        "reads, no stdlib random, and no RNG construction without an explicit "
        "seed — otherwise batched/reference equivalence and worker-count "
        "invariance cannot be tested."
    )
    include = (
        "repro/align/",
        "repro/fourier/",
        "repro/refine/",
        "repro/geometry/",
        "repro/parallel/",
    )

    def check(self, mod: ModuleUnderLint) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(mod,
                            node, "stdlib `random` is banned in kernel modules; "
                            "use repro.utils.default_rng(seed)"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(mod,
                        node, "stdlib `random` is banned in kernel modules; "
                        "use repro.utils.default_rng(seed)"
                    )
            elif isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if chain is None:
                    continue
                if chain[0] == "time" and len(chain) == 2 and chain[1] in _TIME_CALLS:
                    yield self.finding(mod,
                        node, f"wall-clock read `{'.'.join(chain)}()` in a kernel module "
                        "(timing belongs in repro.utils.timing / the pipeline layer)"
                    )
                elif len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
                    if chain[2] == "default_rng":
                        if _seedless(node):
                            yield self.finding(mod,
                                node, "np.random.default_rng() without an explicit seed"
                            )
                    elif chain[2] != "Generator":
                        yield self.finding(mod,
                            node, f"legacy/global RNG call `{'.'.join(chain)}(...)`; "
                            "route randomness through repro.utils.default_rng(seed)"
                        )
                elif chain == ["default_rng"] and _seedless(node):
                    yield self.finding(mod, node, "default_rng() without an explicit seed")

"""RL003 — no silent dtype churn in the band-math hot paths.

``align/`` and ``fourier/`` process band vectors sized ``π·r_map²`` per
candidate orientation; an ``astype`` that defaults to ``copy=True``
duplicates every one of those gathers, and a stray ``np.float64(...)``
scalar constructor hides an upcast the batched kernel never performs.  The
rule forces every ``astype`` in the hot packages to say ``copy=False``
(copy only when the dtype actually changes) and bans raw float64/complex128
scalar constructors.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import Finding, ModuleUnderLint
from repro.analysis.rules._base import Rule, attribute_chain

__all__ = ["NoSilentUpcast"]

_SCALAR_CTORS = {"float64", "float32", "complex128", "complex64"}


class NoSilentUpcast(Rule):
    rule_id = "RL003"
    name = "no-silent-upcast"
    rationale = (
        "astype defaults to copy=True, duplicating every band gather in the "
        "hot loops; explicit copy=False makes each conversion copy only when "
        "the dtype really changes, and raw np.float64()/np.complex128() "
        "constructors hide upcasts the batched/reference pair must agree on."
    )
    include = ("repro/align/", "repro/fourier/")

    def check(self, mod: ModuleUnderLint) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                has_copy_false = any(
                    kw.arg == "copy"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                )
                if not has_copy_false:
                    yield self.finding(mod,
                        node,
                        "astype without copy=False in a hot path (silently copies "
                        "even when the dtype already matches)",
                    )
            else:
                chain = attribute_chain(node.func)
                if (
                    chain
                    and len(chain) == 2
                    and chain[0] in ("np", "numpy")
                    and chain[1] in _SCALAR_CTORS
                ):
                    yield self.finding(mod,
                        node,
                        f"raw `np.{chain[1]}(...)` constructor in a hot path; use "
                        "float()/complex() or keep the incoming dtype",
                    )

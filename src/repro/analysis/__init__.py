"""Static analysis for the reproduction: repro-lint, typing gate, contracts.

Three layers keep the batched/reference kernel pair and the deterministic
scheduler honest (see DESIGN.md, "Machine-checked invariants"):

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` — AST rules
  encoding repo-specific invariants (``python -m repro.analysis``);
* the strict-typing configuration in ``pyproject.toml`` over the annotated
  core packages (``py.typed`` ships with the wheel);
* :mod:`repro.analysis.contracts` — runtime array contracts at the kernel
  boundaries, enabled by ``REPRO_CHECK_CONTRACTS=1`` and free otherwise.

Only the contracts API is re-exported here: kernel modules import it at
startup, so this ``__init__`` stays dependency-light (the lint machinery
loads lazily via ``repro.analysis.lint`` / ``python -m repro.analysis``).
"""

from repro.analysis.contracts import (
    ArraySpec,
    ContractViolation,
    array_contract,
    contracts_enabled,
    spec,
)

__all__ = [
    "ArraySpec",
    "ContractViolation",
    "array_contract",
    "contracts_enabled",
    "spec",
]

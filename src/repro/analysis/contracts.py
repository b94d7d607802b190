"""Runtime array contracts for the kernel boundaries.

The batched/reference kernel pair and the process-parallel scheduler only
stay bit-identical if every boundary keeps its shape/dtype conventions:
band vectors stay ``(n,)`` or ``(m, n)`` with a shared ``n``, volume DFTs
stay cubic, the shared-memory D̂ replica attaches C-contiguous.  The
:func:`array_contract` decorator states those conventions next to the code
and enforces them at call time **only** when ``REPRO_CHECK_CONTRACTS=1``
is set in the environment.

Zero cost when disabled: the decorator is evaluated at import time and
returns the original function object unchanged, so the default
configuration carries no wrapper, no signature binding, and no branch per
call.  CI runs the test suite once with the flag set (see
``tools/check.py``) so every contract is exercised without taxing
production runs.

Shape specs are tuples whose entries are ``int`` (exact), ``None``
(wildcard), or ``str`` symbols that must bind consistently across all
arguments of one call (``("l", "l")`` means square; a shared ``"n"``
across two specs ties their lengths).  A list of tuples means the value
may match any one alternative.  Dtype specs name a kind group
(``"float"``, ``"complex"``, ``"int"``, ``"bool"``, ``"inexact"``,
``"number"``) or an exact dtype name (``"float64"``).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np

from repro.engine.env import CONTRACTS_ENV
from repro.engine.env import contracts_enabled as _env_contracts_enabled

__all__ = [
    "ArraySpec",
    "ContractViolation",
    "array_contract",
    "contracts_enabled",
    "spec",
]

#: Environment flag that switches contract enforcement on.  Kept as a
#: module attribute for existing importers; the read itself is
#: centralized in :mod:`repro.engine.env` (repro-lint RL011).
ENV_FLAG = CONTRACTS_ENV

_DTYPE_KINDS = {
    "float": "f",
    "complex": "c",
    "int": "iu",
    "bool": "b",
    "inexact": "fc",
    "number": "fciu",
}

_F = TypeVar("_F", bound=Callable[..., Any])


class ContractViolation(TypeError, ValueError):
    """An argument or return value broke a declared array contract.

    Subclasses both ``TypeError`` and ``ValueError``: a violated contract
    is usually the same malformed input the undecorated function would
    reject with ``ValueError``, so enabling enforcement must not change
    which ``except``/``pytest.raises`` clauses match.
    """


@dataclass(frozen=True)
class ArraySpec:
    """Declarative constraints on one array-valued argument.

    Attributes
    ----------
    shape:
        One shape tuple, or a list of alternative tuples (see module
        docstring for the entry grammar); ``None`` skips the shape check.
    dtype:
        Kind-group name or exact dtype name; ``None`` skips the check.
    contiguous:
        Require C-contiguity (only meaningful for actual ndarrays).
    allow_none:
        Accept ``None`` (optional arguments) without checking.
    """

    shape: tuple[Any, ...] | list[tuple[Any, ...]] | None = None
    dtype: str | None = None
    contiguous: bool = False
    allow_none: bool = True


def spec(
    shape: tuple[Any, ...] | list[tuple[Any, ...]] | None = None,
    dtype: str | None = None,
    contiguous: bool = False,
    allow_none: bool = True,
) -> ArraySpec:
    """Shorthand constructor for :class:`ArraySpec`."""
    return ArraySpec(shape=shape, dtype=dtype, contiguous=contiguous, allow_none=allow_none)


def contracts_enabled() -> bool:
    """True when ``REPRO_CHECK_CONTRACTS`` requests runtime enforcement."""
    return _env_contracts_enabled()


def _format_shape(shape: tuple[Any, ...]) -> str:
    return "(" + ", ".join("*" if d is None else str(d) for d in shape) + ")"


def _try_bind_shape(
    got: tuple[int, ...], want: tuple[Any, ...], dims: dict[str, int]
) -> dict[str, int] | None:
    """Bind symbolic dims of ``want`` against ``got``; None on mismatch."""
    if len(got) != len(want):
        return None
    trial = dict(dims)
    for actual, expected in zip(got, want):
        if expected is None:
            continue
        if isinstance(expected, str):
            bound = trial.get(expected)
            if bound is None:
                trial[expected] = actual
            elif bound != actual:
                return None
        elif actual != int(expected):
            return None
    return trial


def _check_value(where: str, name: str, value: Any, sp: ArraySpec, dims: dict[str, int]) -> None:
    if isinstance(sp, dict):  # tolerate plain-dict specs
        sp = ArraySpec(**sp)
    if value is None:
        if sp.allow_none:
            return
        raise ContractViolation(f"{where}({name}): got None but the contract requires an array")
    arr = value if isinstance(value, np.ndarray) else np.asarray(value)
    if sp.shape is not None:
        alternatives = sp.shape if isinstance(sp.shape, list) else [sp.shape]
        bound = None
        for alt in alternatives:
            bound = _try_bind_shape(arr.shape, alt, dims)
            if bound is not None:
                break
        if bound is None:
            expected = " or ".join(_format_shape(a) for a in alternatives)
            context = (
                " with " + ", ".join(f"{k}={v}" for k, v in sorted(dims.items())) if dims else ""
            )
            raise ContractViolation(
                f"{where}({name}): expected shape {expected}{context}, got {arr.shape}"
            )
        dims.update(bound)
    if sp.dtype is not None:
        kinds = _DTYPE_KINDS.get(sp.dtype)
        if kinds is not None:
            ok = arr.dtype.kind in kinds
        else:
            ok = arr.dtype == np.dtype(sp.dtype)
        if not ok:
            raise ContractViolation(
                f"{where}({name}): expected dtype {sp.dtype}, got {arr.dtype}"
            )
    if sp.contiguous and isinstance(value, np.ndarray) and not value.flags["C_CONTIGUOUS"]:
        raise ContractViolation(f"{where}({name}): expected a C-contiguous array")


def array_contract(
    *,
    ret: ArraySpec | None = None,
    enabled: bool | None = None,
    **param_specs: ArraySpec,
) -> Callable[[_F], _F]:
    """Declare array contracts on named parameters (and optionally ``ret``).

    With ``enabled=None`` (the default) enforcement follows
    :func:`contracts_enabled`, evaluated once at decoration (import) time;
    pass ``enabled=True``/``False`` to force either mode (used by tests).
    When disabled, the decorator returns the function object unchanged.
    """

    def decorate(fn: _F) -> _F:
        on = contracts_enabled() if enabled is None else bool(enabled)
        if not on:
            return fn
        sig = inspect.signature(fn)
        unknown = set(param_specs) - set(sig.parameters)
        if unknown:
            raise TypeError(
                f"array_contract on {fn.__qualname__}: unknown parameters {sorted(unknown)}"
            )
        where = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = sig.bind(*args, **kwargs)
            dims: dict[str, int] = {}
            for pname, sp in param_specs.items():
                if pname in bound.arguments:
                    _check_value(where, pname, bound.arguments[pname], sp, dims)
            result = fn(*args, **kwargs)
            if ret is not None:
                _check_value(where, "return", result, ret, dims)
            return result

        wrapper.__array_contract__ = dict(param_specs)  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate

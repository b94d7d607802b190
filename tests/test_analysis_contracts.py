"""Tests for the runtime array-contract layer (zero-cost-when-off decorator)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.contracts import (
    ENV_FLAG,
    ArraySpec,
    ContractViolation,
    array_contract,
    contracts_enabled,
    spec,
)

REPO = Path(__file__).resolve().parents[1]


# -- zero cost when disabled -------------------------------------------------
def test_disabled_decorator_returns_function_unchanged():
    def fn(a):
        return a

    assert array_contract(a=spec(shape=(3,)), enabled=False)(fn) is fn


def test_env_flag_controls_default(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert not contracts_enabled()
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv(ENV_FLAG, value)
        assert contracts_enabled(), value
    monkeypatch.setenv(ENV_FLAG, "0")
    assert not contracts_enabled()


# -- shape checking ----------------------------------------------------------
def checked(**specs):
    ret = specs.pop("ret", None)

    def fn(a=None, b=None):
        return a

    return array_contract(enabled=True, ret=ret, **specs)(fn)


def test_exact_shape_violation_message_names_everything():
    fn = checked(a=spec(shape=(3, 3), allow_none=False))
    fn(a=np.eye(3))
    with pytest.raises(ContractViolation, match=r"fn\(a\): expected shape \(3, 3\), got \(4, 4\)"):
        fn(a=np.eye(4))


def test_symbol_binds_across_parameters():
    fn = checked(a=spec(shape=("n",)), b=spec(shape=("n",)))
    fn(a=np.zeros(5), b=np.zeros(5))
    with pytest.raises(ContractViolation, match=r"with n=5"):
        fn(a=np.zeros(5), b=np.zeros(6))


def test_symbol_binds_within_one_shape():
    fn = checked(a=spec(shape=("l", "l")))
    fn(a=np.zeros((4, 4)))
    with pytest.raises(ContractViolation):
        fn(a=np.zeros((4, 5)))


def test_shape_alternatives_accept_vector_or_stack():
    fn = checked(a=spec(shape=[("n",), (None, "n")]))
    fn(a=np.zeros(7))
    fn(a=np.zeros((3, 7)))
    with pytest.raises(ContractViolation, match=r"\(\*\) or \(\*, \*\)|\(n\)"):
        fn(a=np.zeros((2, 3, 7)))


def test_wildcard_dimension():
    fn = checked(a=spec(shape=(None, 3, 3)))
    fn(a=np.zeros((11, 3, 3)))
    with pytest.raises(ContractViolation):
        fn(a=np.zeros((11, 3, 4)))


# -- dtype / contiguity / None ----------------------------------------------
def test_dtype_kind_groups():
    fn = checked(a=spec(dtype="inexact"))
    fn(a=np.zeros(3, dtype=np.float32))
    fn(a=np.zeros(3, dtype=np.complex128))
    with pytest.raises(ContractViolation, match="expected dtype inexact, got int64"):
        fn(a=np.zeros(3, dtype=np.int64))


def test_exact_dtype_name():
    fn = checked(a=spec(dtype="float64"))
    fn(a=np.zeros(3))
    with pytest.raises(ContractViolation):
        fn(a=np.zeros(3, dtype=np.float32))


def test_contiguity_check():
    fn = checked(a=spec(contiguous=True))
    fn(a=np.zeros((4, 4)))
    with pytest.raises(ContractViolation, match="C-contiguous"):
        fn(a=np.zeros((4, 4)).T)


def test_allow_none_default_and_opt_out():
    checked(a=spec(shape=(3,)))(a=None)  # allow_none=True by default
    with pytest.raises(ContractViolation, match="got None"):
        checked(a=spec(shape=(3,), allow_none=False))(a=None)


def test_return_contract_shares_dims():
    @array_contract(enabled=True, a=spec(shape=("n",)), ret=ArraySpec(shape=("n",)))
    def roundtrip(a):
        return a[:-1]  # deliberately wrong length

    with pytest.raises(ContractViolation, match=r"roundtrip\(return\)"):
        roundtrip(np.zeros(4))


def test_unknown_parameter_name_fails_at_decoration():
    with pytest.raises(TypeError, match="unknown parameters"):

        @array_contract(enabled=True, nope=spec(shape=(3,)))
        def fn(a):
            return a


def test_violation_is_both_type_and_value_error():
    # Enforcement must not change which except/pytest.raises clauses match.
    assert issubclass(ContractViolation, TypeError)
    assert issubclass(ContractViolation, ValueError)


# -- the real kernel boundaries, enforced ------------------------------------
def test_kernel_contracts_catch_real_misuse_in_subprocess():
    """With REPRO_CHECK_CONTRACTS=1 the shipped decorators reject bad shapes."""
    code = (
        "import numpy as np\n"
        "from repro.align.distance import DistanceComputer\n"
        "from repro.analysis.contracts import ContractViolation\n"
        "from repro.fourier.slicing import extract_slice\n"
        "dc = DistanceComputer(8)\n"
        "dc.gather(np.zeros((8, 8), dtype=complex))\n"  # fine
        "try:\n"
        "    dc.gather(np.zeros((8, 4), dtype=complex))\n"
        "    raise SystemExit('gather accepted a non-square transform')\n"
        "except ContractViolation:\n"
        "    pass\n"
        "try:\n"
        "    extract_slice(np.zeros((8, 8, 8), dtype=complex), np.eye(4))\n"
        "    raise SystemExit('extract_slice accepted a 4x4 rotation')\n"
        "except ContractViolation:\n"
        "    pass\n"
        "print('contracts-enforced')\n"
    )
    env = dict(os.environ)
    env[ENV_FLAG] = "1"
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "contracts-enforced" in proc.stdout


def test_kernel_boundaries_carry_declared_specs_when_enabled():
    """The decoration-time switch: specs are attached only under the flag."""
    code = (
        "from repro.align.distance import DistanceComputer\n"
        "from repro.align.fused import MatchPlan\n"
        "from repro.fourier import slicing\n"
        "from repro.parallel import viewsched\n"
        "targets = [DistanceComputer.gather, DistanceComputer.distance_band,\n"
        "           MatchPlan.cut_bands, MatchPlan.match_window,\n"
        "           slicing.extract_slice, slicing.extract_slices,\n"
        "           viewsched._attach_volume]\n"
        "flags = [hasattr(t, '__array_contract__') for t in targets]\n"
        "print('declared' if all(flags) else 'missing: %r' % flags)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env[ENV_FLAG] = "1"
    on = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert on.returncode == 0 and "declared" in on.stdout, on.stdout + on.stderr
    env[ENV_FLAG] = "0"
    off = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert off.returncode == 0 and "missing" in off.stdout  # bare functions when off

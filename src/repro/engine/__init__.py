"""The configured refinement engine: one typed config, pluggable backends.

This package is the single source of truth for *how a refinement run is
configured*.  Layer map (see DESIGN.md §10)::

    config files / CLI flags / env
            │  resolve_config (provenance per field)
            ▼
       EngineConfig (frozen, validated once, fingerprinted)
            │  make_backend
            ▼
    SerialBackend │ ProcessBackend │ SimBackend   (bit-identical)
            │  run_level / run_refinement
            ▼
       matching kernel (batched; reference = test oracle)

:mod:`repro.engine.env` must be imported before the sibling modules: it
is stdlib-only and is imported *by* the kernel packages at their import
time, while the rest of the engine imports those packages lazily.
"""

from __future__ import annotations

from repro.engine.env import (
    CONTRACTS_ENV,
    GATHER_CHUNK_ENV,
    contracts_enabled,
    environment_overrides,
    gather_chunk_override,
    gather_chunk_samples,
    temporary_env,
)
from repro.engine.config import (
    CheckpointConfig,
    ConfigError,
    EngineConfig,
    FaultConfig,
    IterationConfig,
    KernelConfig,
    MemoConfig,
    ParallelConfig,
    ScheduleConfig,
    load_config,
)
from repro.engine.resolve import ResolvedConfig, describe_environment, resolve_config
from repro.engine.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SimBackend,
    make_backend,
)
from repro.engine.core import EngineRunResult, RefinementEngine
from repro.engine.gate import run_config_gate, validate_example_configs

__all__ = [
    "CONTRACTS_ENV",
    "CheckpointConfig",
    "ConfigError",
    "EngineConfig",
    "EngineRunResult",
    "ExecutionBackend",
    "FaultConfig",
    "GATHER_CHUNK_ENV",
    "IterationConfig",
    "KernelConfig",
    "MemoConfig",
    "ParallelConfig",
    "ProcessBackend",
    "RefinementEngine",
    "ResolvedConfig",
    "ScheduleConfig",
    "SerialBackend",
    "SimBackend",
    "contracts_enabled",
    "describe_environment",
    "environment_overrides",
    "gather_chunk_override",
    "gather_chunk_samples",
    "load_config",
    "make_backend",
    "resolve_config",
    "run_config_gate",
    "temporary_env",
    "validate_example_configs",
]

"""The typed, frozen configuration hierarchy of the refinement engine.

:class:`EngineConfig` is the single source of truth for a refinement run:
everything the stack used to take as scattered per-call kwargs, env vars
and re-parsed CLI flags — kernel choice, schedule, worker fan-out, retry
policy, checkpointing, memoization, matching knobs — lives in one frozen,
serializable record, validated exactly once at construction.  Every layer
(CLI, :class:`~repro.refine.refiner.OrientationRefiner`,
:func:`~repro.parallel.prefine.parallel_refine`, the structure loop, the
benchmarks) consumes the same object instead of re-validating strings.

Configs load from TOML or JSON files (:func:`load_config`), round-trip
through plain dicts (:meth:`EngineConfig.to_dict` /
:meth:`EngineConfig.from_dict`, unknown fields rejected loudly), and
digest into a :meth:`EngineConfig.fingerprint` recorded in checkpoint
headers and benchmark artifacts, so a resumed or compared run can prove it
was configured identically.

Sections
--------
``kernel``      which matching kernel and interpolation, gather chunking
``schedule``    the multi-resolution level list
``parallel``    execution backend (serial / process / sim) and its fan-out
``fault``       retry/timeout/degradation policy for the process backend
``checkpoint``  level-granular checkpoint path and resume flag
``memo``        the per-view orientation memo cache
``prune``       best-first early-termination pruning of candidate windows
``polish``      continuous least-squares polish replacing the finest levels
``symmetry``    point-group handling: none / fixed:<group> / detect
``iteration``   the outer refine→reconstruct loop: FSC stopping + streaming

All ``repro`` imports in this module are lazy (inside methods): the
kernel packages import :mod:`repro.engine.env` at import time, so the
engine package must be importable before any of them is initialized.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - type-only imports, avoids cycles
    from repro.faults.retry import RetryPolicy
    from repro.refine.multires import MultiResolutionSchedule

__all__ = [
    "CheckpointConfig",
    "ConfigError",
    "EngineConfig",
    "FaultConfig",
    "IterationConfig",
    "KernelConfig",
    "MemoConfig",
    "ParallelConfig",
    "PolishConfig",
    "PruneConfig",
    "ScheduleConfig",
    "SymmetryConfig",
    "load_config",
]

KERNELS = ("batched", "reference")
INTERPOLATIONS = ("trilinear", "nearest")
BACKENDS = ("serial", "process", "sim")
WEIGHTINGS = ("none", "radius", "radius2")
CTF_CORRECTIONS = ("phase_flip", "none")
MP_CONTEXTS = ("fork", "spawn", "forkserver")


class ConfigError(ValueError):
    """A configuration field is unknown, mistyped, or out of range."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _coerce_float(name: str, value: Any) -> float:
    # TOML/JSON integers are legal spellings of float fields (r_max = 9)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number, got {value!r}")
    return float(value)


def _coerce_int(name: str, value: Any) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return int(value)


def _coerce_bool(name: str, value: Any) -> bool:
    _require(isinstance(value, bool), f"{name} must be a boolean, got {value!r}")
    return value


def _coerce_str(name: str, value: Any, choices: tuple[str, ...] | None = None) -> str:
    _require(isinstance(value, str), f"{name} must be a string, got {value!r}")
    if choices is not None:
        _require(value in choices, f"{name} must be one of {choices}, got {value!r}")
    return value


def _reject_unknown(section: str, data: Mapping[str, Any], known: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        where = f"{section}." if section else ""
        raise ConfigError(
            f"unknown config field(s) {', '.join(where + u for u in unknown)}; "
            f"known fields: {', '.join(known)}"
        )


@dataclass(frozen=True)
class KernelConfig:
    """Which matching kernel runs and how it chunks its gathers.

    ``batched`` is the production kernel; ``reference`` is the test
    oracle.  The two are bit-identical by construction, so the choice is a
    performance decision, never a numerical one.  ``gather_chunk``
    overrides the samples-per-chunk target of the in-band gather (the
    config-file spelling of ``REPRO_GATHER_CHUNK``); ``None`` keeps the
    measured default.
    """

    kernel: str = "batched"
    interpolation: str = "trilinear"
    gather_chunk: int | None = None

    def __post_init__(self) -> None:
        _require(self.kernel in KERNELS,
                 f"kernel.kernel must be one of {KERNELS}, got {self.kernel!r}")
        _require(self.interpolation in INTERPOLATIONS,
                 f"kernel.interpolation must be one of {INTERPOLATIONS}, "
                 f"got {self.interpolation!r}")
        if self.gather_chunk is not None:
            _require(isinstance(self.gather_chunk, int) and self.gather_chunk >= 1,
                     f"kernel.gather_chunk must be a positive integer, "
                     f"got {self.gather_chunk!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "interpolation": self.interpolation,
            "gather_chunk": self.gather_chunk,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "KernelConfig":
        _reject_unknown("kernel", data, ("kernel", "interpolation", "gather_chunk"))
        chunk = data.get("gather_chunk")
        if chunk is not None:
            chunk = _coerce_int("kernel.gather_chunk", chunk)
        return cls(
            kernel=_coerce_str("kernel.kernel", data.get("kernel", cls.kernel), KERNELS),
            interpolation=_coerce_str(
                "kernel.interpolation", data.get("interpolation", cls.interpolation),
                INTERPOLATIONS,
            ),
            gather_chunk=chunk,
        )


#: The paper's production schedule: 1°, 0.1°, 0.01°, 0.002°, center
#: resolutions tracking the angular ones (§5), ±4-step windows, 3×3 boxes.
DEFAULT_LEVELS: tuple[tuple[float, float, int, int], ...] = (
    (1.0, 1.0, 4, 1),
    (0.1, 0.1, 4, 1),
    (0.01, 0.01, 4, 1),
    (0.002, 0.002, 4, 1),
)


@dataclass(frozen=True)
class ScheduleConfig:
    """The multi-resolution schedule as plain numbers.

    Each level is ``(angular_step_deg, center_step_px, half_steps,
    center_half_steps)``; config files may abbreviate a level to
    ``[step]`` (center step = angular step, default widths) or
    ``[angular, center]``.  Any
    :class:`~repro.refine.multires.MultiResolutionSchedule` is exactly
    representable (:meth:`from_schedule` / :meth:`to_schedule` are
    inverses), so the config fingerprint can always cover the schedule the
    run actually used.
    """

    levels: tuple[tuple[float, float, int, int], ...] = DEFAULT_LEVELS

    def __post_init__(self) -> None:
        _require(len(self.levels) >= 1, "schedule.levels needs at least one level")
        norm = []
        for i, level in enumerate(self.levels):
            _require(len(level) == 4,
                     f"schedule.levels[{i}] must be (angular_step_deg, "
                     f"center_step_px, half_steps, center_half_steps)")
            a, c, h, ch = level
            _require(a > 0 and c > 0, f"schedule.levels[{i}] steps must be positive")
            _require(int(h) >= 0 and int(ch) >= 0,
                     f"schedule.levels[{i}] half-widths must be non-negative")
            norm.append((float(a), float(c), int(h), int(ch)))
        object.__setattr__(self, "levels", tuple(norm))

    def to_schedule(self) -> "MultiResolutionSchedule":
        from repro.refine.multires import MultiResolutionSchedule, RefinementLevel

        return MultiResolutionSchedule(
            tuple(
                RefinementLevel(a, c, half_steps=h, center_half_steps=ch)
                for a, c, h, ch in self.levels
            )
        )

    @classmethod
    def from_schedule(cls, schedule: "MultiResolutionSchedule") -> "ScheduleConfig":
        return cls(
            levels=tuple(
                (lv.angular_step_deg, lv.center_step_px, lv.half_steps,
                 lv.center_half_steps)
                for lv in schedule
            )
        )

    @classmethod
    def from_steps(
        cls, angular_steps: tuple[float, ...], half_steps: int = 4,
        center_half_steps: int = 1,
    ) -> "ScheduleConfig":
        """Levels from angular steps alone (center steps track them, §5)."""
        return cls(
            levels=tuple(
                (float(s), float(s), int(half_steps), int(center_half_steps))
                for s in angular_steps
            )
        )

    def to_dict(self) -> dict[str, Any]:
        return {"levels": [list(level) for level in self.levels]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduleConfig":
        _reject_unknown("schedule", data, ("levels",))
        if "levels" not in data:
            return cls()
        raw = data["levels"]
        _require(isinstance(raw, (list, tuple)) and len(raw) >= 1,
                 "schedule.levels must be a non-empty list of levels")
        levels = []
        for i, entry in enumerate(raw):
            _require(isinstance(entry, (list, tuple)) and len(entry) in (1, 2, 4),
                     f"schedule.levels[{i}] must be [angular], [angular, center] "
                     f"or [angular, center, half_steps, center_half_steps]")
            a = _coerce_float(f"schedule.levels[{i}][0]", entry[0])
            c = _coerce_float(f"schedule.levels[{i}][1]", entry[1]) if len(entry) >= 2 else a
            h = _coerce_int(f"schedule.levels[{i}][2]", entry[2]) if len(entry) == 4 else 4
            ch = _coerce_int(f"schedule.levels[{i}][3]", entry[3]) if len(entry) == 4 else 1
            levels.append((a, c, h, ch))
        return cls(levels=tuple(levels))


@dataclass(frozen=True)
class ParallelConfig:
    """Which execution backend fans the per-view work out, and how wide.

    ``serial`` runs everything inline; ``process`` is the shared-memory
    process pool of :mod:`repro.parallel.viewsched`; ``sim`` is the
    simulated distributed-memory cluster of :mod:`repro.parallel.prefine`
    (``n_ranks`` applies only there).  All backends are bit-identical —
    the choice prices the run, it never steers the numbers.
    """

    backend: str = "serial"
    n_workers: int = 1
    chunks_per_worker: int = 4
    mp_context: str | None = None
    n_ranks: int = 4

    def __post_init__(self) -> None:
        _require(self.backend in BACKENDS,
                 f"parallel.backend must be one of {BACKENDS}, got {self.backend!r}")
        _require(isinstance(self.n_workers, int) and self.n_workers >= 1,
                 f"parallel.n_workers must be >= 1, got {self.n_workers!r}")
        _require(isinstance(self.chunks_per_worker, int) and self.chunks_per_worker >= 1,
                 f"parallel.chunks_per_worker must be >= 1, got {self.chunks_per_worker!r}")
        _require(isinstance(self.n_ranks, int) and self.n_ranks >= 1,
                 f"parallel.n_ranks must be >= 1, got {self.n_ranks!r}")
        if self.mp_context is not None:
            _require(self.mp_context in MP_CONTEXTS,
                     f"parallel.mp_context must be one of {MP_CONTEXTS}, "
                     f"got {self.mp_context!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "chunks_per_worker": self.chunks_per_worker,
            "mp_context": self.mp_context,
            "n_ranks": self.n_ranks,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ParallelConfig":
        _reject_unknown("parallel", data,
                        ("backend", "n_workers", "chunks_per_worker", "mp_context",
                         "n_ranks"))
        ctx = data.get("mp_context")
        if ctx is not None:
            ctx = _coerce_str("parallel.mp_context", ctx, MP_CONTEXTS)
        return cls(
            backend=_coerce_str("parallel.backend", data.get("backend", cls.backend),
                                BACKENDS),
            n_workers=_coerce_int("parallel.n_workers",
                                  data.get("n_workers", cls.n_workers)),
            chunks_per_worker=_coerce_int(
                "parallel.chunks_per_worker",
                data.get("chunks_per_worker", cls.chunks_per_worker)),
            mp_context=ctx,
            n_ranks=_coerce_int("parallel.n_ranks", data.get("n_ranks", cls.n_ranks)),
        )


@dataclass(frozen=True)
class FaultConfig:
    """Retry/timeout/degradation policy for the process backend (DESIGN.md §8)."""

    max_attempts: int = 3
    backoff_s: float = 0.01
    backoff_factor: float = 2.0
    chunk_timeout_s: float | None = None
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        _require(isinstance(self.max_attempts, int) and self.max_attempts >= 1,
                 f"fault.max_attempts must be >= 1, got {self.max_attempts!r}")
        _require(self.backoff_s >= 0, "fault.backoff_s must be non-negative")
        _require(self.backoff_factor >= 1.0, "fault.backoff_factor must be >= 1")
        if self.chunk_timeout_s is not None:
            _require(self.chunk_timeout_s > 0, "fault.chunk_timeout_s must be positive")
        _require(isinstance(self.max_pool_restarts, int) and self.max_pool_restarts >= 0,
                 f"fault.max_pool_restarts must be >= 0, got {self.max_pool_restarts!r}")

    def retry_policy(self) -> "RetryPolicy":
        from repro.faults.retry import RetryPolicy

        return RetryPolicy(
            max_attempts=self.max_attempts,
            backoff_s=self.backoff_s,
            backoff_factor=self.backoff_factor,
            chunk_timeout_s=self.chunk_timeout_s,
            max_pool_restarts=self.max_pool_restarts,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
            "chunk_timeout_s": self.chunk_timeout_s,
            "max_pool_restarts": self.max_pool_restarts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultConfig":
        _reject_unknown("fault", data,
                        ("max_attempts", "backoff_s", "backoff_factor",
                         "chunk_timeout_s", "max_pool_restarts"))
        timeout = data.get("chunk_timeout_s")
        if timeout is not None:
            timeout = _coerce_float("fault.chunk_timeout_s", timeout)
        return cls(
            max_attempts=_coerce_int("fault.max_attempts",
                                     data.get("max_attempts", cls.max_attempts)),
            backoff_s=_coerce_float("fault.backoff_s",
                                    data.get("backoff_s", cls.backoff_s)),
            backoff_factor=_coerce_float("fault.backoff_factor",
                                         data.get("backoff_factor", cls.backoff_factor)),
            chunk_timeout_s=timeout,
            max_pool_restarts=_coerce_int(
                "fault.max_pool_restarts",
                data.get("max_pool_restarts", cls.max_pool_restarts)),
        )


@dataclass(frozen=True)
class CheckpointConfig:
    """Level-granular checkpoint/resume (DESIGN.md §8)."""

    path: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.path is not None:
            _require(isinstance(self.path, str) and self.path != "",
                     "checkpoint.path must be a non-empty string")
        _require(not (self.resume and self.path is None),
                 "checkpoint.resume requires checkpoint.path")

    def to_dict(self) -> dict[str, Any]:
        return {"path": self.path, "resume": self.resume}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckpointConfig":
        _reject_unknown("checkpoint", data, ("path", "resume"))
        path = data.get("path")
        if path is not None:
            path = _coerce_str("checkpoint.path", path)
        return cls(path=path,
                   resume=_coerce_bool("checkpoint.resume", data.get("resume", False)))


#: Default orientation-memo capacity (mirrors repro.align.memo, which the
#: engine must not import at module load time).
DEFAULT_MEMO_CAPACITY = 8192


@dataclass(frozen=True)
class MemoConfig:
    """The per-view orientation memo cache (batched kernel only)."""

    enabled: bool = True
    capacity: int = DEFAULT_MEMO_CAPACITY

    def __post_init__(self) -> None:
        _require(isinstance(self.capacity, int) and self.capacity >= 1,
                 f"memo.capacity must be >= 1, got {self.capacity!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"enabled": self.enabled, "capacity": self.capacity}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MemoConfig":
        _reject_unknown("memo", data, ("enabled", "capacity"))
        return cls(
            enabled=_coerce_bool("memo.enabled", data.get("enabled", cls.enabled)),
            capacity=_coerce_int("memo.capacity", data.get("capacity", cls.capacity)),
        )


@dataclass(frozen=True)
class PruneConfig:
    """Best-first pruning of candidate windows (batched kernel only).

    When enabled, each sliding-window search scores candidates nearest the
    window center first and abandons any candidate whose accumulated
    partial band distance exceeds the running k-th best by more than
    ``margin`` (relative) — the §3 distance is a sum of non-negative
    per-sample terms, so the partial sum is a monotone lower bound and the
    surviving arg-min is bit-identical to exhaustive search (DESIGN.md
    §11).  ``top_k`` additionally carries the k best basin centers into
    the next level as independent seeds; ``None`` (the default) keeps the
    classic single-path behavior.  ``shell_groups`` is how many radial
    shell groups the band is accumulated in; ``seed_chunk`` / ``chunk``
    size the best-first evaluation batches.
    """

    enabled: bool = False
    top_k: int | None = None
    shell_groups: int = 8
    margin: float = 1e-9
    seed_chunk: int = 32
    chunk: int = 128

    def __post_init__(self) -> None:
        if self.top_k is not None:
            _require(isinstance(self.top_k, int) and self.top_k >= 1,
                     f"prune.top_k must be >= 1 or null, got {self.top_k!r}")
        _require(isinstance(self.shell_groups, int) and self.shell_groups >= 1,
                 f"prune.shell_groups must be >= 1, got {self.shell_groups!r}")
        _require(isinstance(self.margin, (int, float)) and self.margin >= 0,
                 f"prune.margin must be non-negative, got {self.margin!r}")
        _require(isinstance(self.seed_chunk, int) and self.seed_chunk >= 1,
                 f"prune.seed_chunk must be >= 1, got {self.seed_chunk!r}")
        _require(isinstance(self.chunk, int) and self.chunk >= 1,
                 f"prune.chunk must be >= 1, got {self.chunk!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "top_k": self.top_k,
            "shell_groups": self.shell_groups,
            "margin": self.margin,
            "seed_chunk": self.seed_chunk,
            "chunk": self.chunk,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PruneConfig":
        _reject_unknown("prune", data,
                        ("enabled", "top_k", "shell_groups", "margin", "seed_chunk",
                         "chunk"))
        top_k = data.get("top_k")
        if top_k is not None:
            top_k = _coerce_int("prune.top_k", top_k)
        return cls(
            enabled=_coerce_bool("prune.enabled", data.get("enabled", cls.enabled)),
            top_k=top_k,
            shell_groups=_coerce_int("prune.shell_groups",
                                     data.get("shell_groups", cls.shell_groups)),
            margin=_coerce_float("prune.margin", data.get("margin", cls.margin)),
            seed_chunk=_coerce_int("prune.seed_chunk",
                                   data.get("seed_chunk", cls.seed_chunk)),
            chunk=_coerce_int("prune.chunk", data.get("chunk", cls.chunk)),
        )


@dataclass(frozen=True)
class PolishConfig:
    """Continuous least-squares polish replacing the finest grid levels.

    When enabled, schedule levels with ``angular_step_deg <
    replace_below_deg`` are dropped and a damped Gauss–Newton descent on
    the continuous in-band objective takes over from the ``n_best``
    surviving basin centers of the last kept level (DESIGN.md §11).  The
    polished result is gated by an accuracy tolerance — the replaced
    tail's final angular step — instead of the bit-identity oracle.
    """

    enabled: bool = False
    n_best: int = 1
    max_iters: int = 30
    tol: float = 1e-8
    replace_below_deg: float = 0.1
    damping: float = 1e-3

    def __post_init__(self) -> None:
        _require(isinstance(self.n_best, int) and self.n_best >= 1,
                 f"polish.n_best must be >= 1, got {self.n_best!r}")
        _require(isinstance(self.max_iters, int) and self.max_iters >= 1,
                 f"polish.max_iters must be >= 1, got {self.max_iters!r}")
        _require(isinstance(self.tol, (int, float)) and self.tol >= 0,
                 f"polish.tol must be non-negative, got {self.tol!r}")
        _require(isinstance(self.replace_below_deg, (int, float))
                 and self.replace_below_deg > 0,
                 f"polish.replace_below_deg must be positive, "
                 f"got {self.replace_below_deg!r}")
        _require(isinstance(self.damping, (int, float)) and self.damping > 0,
                 f"polish.damping must be positive, got {self.damping!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "n_best": self.n_best,
            "max_iters": self.max_iters,
            "tol": self.tol,
            "replace_below_deg": self.replace_below_deg,
            "damping": self.damping,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolishConfig":
        _reject_unknown("polish", data,
                        ("enabled", "n_best", "max_iters", "tol", "replace_below_deg",
                         "damping"))
        return cls(
            enabled=_coerce_bool("polish.enabled", data.get("enabled", cls.enabled)),
            n_best=_coerce_int("polish.n_best", data.get("n_best", cls.n_best)),
            max_iters=_coerce_int("polish.max_iters",
                                  data.get("max_iters", cls.max_iters)),
            tol=_coerce_float("polish.tol", data.get("tol", cls.tol)),
            replace_below_deg=_coerce_float(
                "polish.replace_below_deg",
                data.get("replace_below_deg", cls.replace_below_deg)),
            damping=_coerce_float("polish.damping", data.get("damping", cls.damping)),
        )


#: Point-group names accepted by ``symmetry.mode = "fixed:<group>"``:
#: C_n (n >= 1), D_n (n >= 2), and the polyhedral groups T, O, I.
_GROUP_NAME_RE = r"^(C[1-9][0-9]*|D[2-9][0-9]*|D[1-9][0-9]+|T|O|I)$"


@dataclass(frozen=True)
class SymmetryConfig:
    """Point-group symmetry handling for the orientation search.

    ``mode`` selects how the refinement acquires a symmetry group:

    - ``"none"`` — no symmetry assumption, search the full sphere (the
      paper's baseline, and the default);
    - ``"fixed:<group>"`` — trust a known point group (e.g. ``fixed:I``,
      ``fixed:C5``) and restrict the candidate search to one asymmetric
      unit, a |G|-fold candidate reduction;
    - ``"detect"`` — run :func:`repro.refine.symmetry_detect.detect_symmetry`
      on the current map before refining, then restrict with whatever group
      it finds (C1 means no restriction).

    The ``detect_*`` knobs mirror the detector's signature; they only
    matter in ``detect`` mode but are always part of the fingerprint so a
    resumed run cannot silently detect under different thresholds.
    """

    mode: str = "none"
    detect_max_order: int = 6
    detect_n_axes: int = 48
    detect_accept_factor: float = 0.2
    detect_seed: int = 0

    def __post_init__(self) -> None:
        _require(isinstance(self.mode, str), f"symmetry.mode must be a string, got {self.mode!r}")
        if self.mode not in ("none", "detect"):
            import re

            prefix, _, group = self.mode.partition(":")
            _require(prefix == "fixed" and re.match(_GROUP_NAME_RE, group) is not None,
                     "symmetry.mode must be 'none', 'detect' or 'fixed:<group>' "
                     f"with <group> one of C_n/D_n/T/O/I, got {self.mode!r}")
        _require(isinstance(self.detect_max_order, int) and self.detect_max_order >= 2,
                 f"symmetry.detect_max_order must be >= 2, got {self.detect_max_order!r}")
        _require(isinstance(self.detect_n_axes, int) and self.detect_n_axes >= 4,
                 f"symmetry.detect_n_axes must be >= 4, got {self.detect_n_axes!r}")
        _require(isinstance(self.detect_accept_factor, (int, float))
                 and not isinstance(self.detect_accept_factor, bool)
                 and self.detect_accept_factor > 0,
                 f"symmetry.detect_accept_factor must be positive, "
                 f"got {self.detect_accept_factor!r}")
        _require(isinstance(self.detect_seed, int) and not isinstance(self.detect_seed, bool),
                 f"symmetry.detect_seed must be an integer, got {self.detect_seed!r}")

    @property
    def enabled(self) -> bool:
        """Whether any symmetry handling (fixed or detected) is requested."""
        return self.mode != "none"

    def fixed_group_name(self) -> str | None:
        """The group name of a ``fixed:<group>`` mode, else ``None``."""
        if self.mode.startswith("fixed:"):
            return self.mode.split(":", 1)[1]
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "detect_max_order": self.detect_max_order,
            "detect_n_axes": self.detect_n_axes,
            "detect_accept_factor": self.detect_accept_factor,
            "detect_seed": self.detect_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SymmetryConfig":
        _reject_unknown("symmetry", data,
                        ("mode", "detect_max_order", "detect_n_axes",
                         "detect_accept_factor", "detect_seed"))
        return cls(
            mode=_coerce_str("symmetry.mode", data.get("mode", cls.mode)),
            detect_max_order=_coerce_int(
                "symmetry.detect_max_order",
                data.get("detect_max_order", cls.detect_max_order)),
            detect_n_axes=_coerce_int("symmetry.detect_n_axes",
                                      data.get("detect_n_axes", cls.detect_n_axes)),
            detect_accept_factor=_coerce_float(
                "symmetry.detect_accept_factor",
                data.get("detect_accept_factor", cls.detect_accept_factor)),
            detect_seed=_coerce_int("symmetry.detect_seed",
                                    data.get("detect_seed", cls.detect_seed)),
        )


@dataclass(frozen=True)
class IterationConfig:
    """The outer refine→reconstruct loop (paper §3, Figure 4).

    One iteration refines every orientation against the current map, then
    rebuilds the map from the refined orientations; the odd/even half-set
    FSC curve of the rebuilt map is the quality gate.  The loop stops when
    the FSC crossing at ``fsc_threshold`` stops improving by at least
    ``min_improvement_angstrom`` (checked from the second iteration on) or
    after ``max_iterations`` passes.

    ``r_max_schedule`` is the paper's resolution-increase ladder: iteration
    ``i`` refines with ``r_max_schedule[min(i, len - 1)]`` (the last entry
    repeats), so early iterations can match at low resolution and later
    ones raise it; empty keeps the run-level ``r_max`` throughout.

    ``streaming`` selects the incremental reconstruction path: refined
    views are deposited into the direct-Fourier accumulator as the backend
    emits them instead of barriering per iteration.  The deposit order is
    forced to ascending view index by a reorder buffer, so streaming is
    bit-identical to the barriered rebuild at any worker count — the flag
    is a latency/memory knob, never a numerical one (DESIGN.md §14).  It
    is still fingerprint-covered with the rest of the section so a resumed
    loop can prove it was configured identically end to end.
    """

    max_iterations: int = 3
    fsc_threshold: float = 0.5
    min_improvement_angstrom: float = 0.0
    r_max_schedule: tuple[float, ...] = ()
    streaming: bool = True

    def __post_init__(self) -> None:
        _require(isinstance(self.max_iterations, int)
                 and not isinstance(self.max_iterations, bool)
                 and self.max_iterations >= 1,
                 f"iteration.max_iterations must be >= 1, got {self.max_iterations!r}")
        _require(isinstance(self.fsc_threshold, (int, float))
                 and not isinstance(self.fsc_threshold, bool)
                 and 0.0 < self.fsc_threshold < 1.0,
                 f"iteration.fsc_threshold must be in (0, 1), "
                 f"got {self.fsc_threshold!r}")
        _require(isinstance(self.min_improvement_angstrom, (int, float))
                 and not isinstance(self.min_improvement_angstrom, bool)
                 and self.min_improvement_angstrom >= 0.0,
                 f"iteration.min_improvement_angstrom must be >= 0, "
                 f"got {self.min_improvement_angstrom!r}")
        norm = []
        for i, r in enumerate(self.r_max_schedule):
            _require(isinstance(r, (int, float)) and not isinstance(r, bool) and r > 0,
                     f"iteration.r_max_schedule[{i}] must be positive, got {r!r}")
            norm.append(float(r))
        object.__setattr__(self, "r_max_schedule", tuple(norm))
        _require(isinstance(self.streaming, bool),
                 f"iteration.streaming must be a boolean, got {self.streaming!r}")

    def r_max_for(self, iteration: int, default: float | None) -> float | None:
        """The ``r_max`` iteration ``iteration`` (0-based) refines with."""
        if not self.r_max_schedule:
            return default
        return self.r_max_schedule[min(iteration, len(self.r_max_schedule) - 1)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_iterations": self.max_iterations,
            "fsc_threshold": self.fsc_threshold,
            "min_improvement_angstrom": self.min_improvement_angstrom,
            "r_max_schedule": list(self.r_max_schedule),
            "streaming": self.streaming,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IterationConfig":
        _reject_unknown("iteration", data,
                        ("max_iterations", "fsc_threshold",
                         "min_improvement_angstrom", "r_max_schedule", "streaming"))
        schedule = data.get("r_max_schedule", cls.r_max_schedule)
        _require(isinstance(schedule, (list, tuple)),
                 f"iteration.r_max_schedule must be a list, got {schedule!r}")
        return cls(
            max_iterations=_coerce_int(
                "iteration.max_iterations",
                data.get("max_iterations", cls.max_iterations)),
            fsc_threshold=_coerce_float(
                "iteration.fsc_threshold", data.get("fsc_threshold", cls.fsc_threshold)),
            min_improvement_angstrom=_coerce_float(
                "iteration.min_improvement_angstrom",
                data.get("min_improvement_angstrom", cls.min_improvement_angstrom)),
            r_max_schedule=tuple(
                _coerce_float(f"iteration.r_max_schedule[{i}]", r)
                for i, r in enumerate(schedule)),
            streaming=_coerce_bool("iteration.streaming",
                                   data.get("streaming", cls.streaming)),
        )


_SECTIONS: dict[str, type] = {
    "kernel": KernelConfig,
    "schedule": ScheduleConfig,
    "parallel": ParallelConfig,
    "fault": FaultConfig,
    "checkpoint": CheckpointConfig,
    "memo": MemoConfig,
    "prune": PruneConfig,
    "polish": PolishConfig,
    "symmetry": SymmetryConfig,
    "iteration": IterationConfig,
}

_SCALARS = ("r_max", "max_slides", "refine_centers", "pad_factor", "weighting",
            "ctf_correction", "normalized_distance")


@dataclass(frozen=True)
class EngineConfig:
    """The complete configuration of one refinement run.

    Composes the six sections with the matching knobs every driver shares.
    Frozen and hashable: pass it around freely, derive variants with
    :func:`dataclasses.replace` (validation re-runs on construction).
    """

    kernel: KernelConfig = field(default_factory=KernelConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    memo: MemoConfig = field(default_factory=MemoConfig)
    prune: PruneConfig = field(default_factory=PruneConfig)
    polish: PolishConfig = field(default_factory=PolishConfig)
    symmetry: SymmetryConfig = field(default_factory=SymmetryConfig)
    iteration: IterationConfig = field(default_factory=IterationConfig)
    r_max: float | None = None
    max_slides: int = 8
    refine_centers: bool = True
    pad_factor: int = 2
    weighting: str = "none"
    ctf_correction: str = "phase_flip"
    normalized_distance: bool = False

    def __post_init__(self) -> None:
        if self.r_max is not None:
            _require(self.r_max > 0, f"r_max must be positive, got {self.r_max!r}")
        _require(isinstance(self.max_slides, int) and self.max_slides >= 0,
                 f"max_slides must be >= 0, got {self.max_slides!r}")
        _require(isinstance(self.pad_factor, int) and self.pad_factor >= 1,
                 f"pad_factor must be >= 1, got {self.pad_factor!r}")
        _require(self.weighting in WEIGHTINGS,
                 f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        _require(self.ctf_correction in CTF_CORRECTIONS,
                 f"ctf_correction must be one of {CTF_CORRECTIONS}, "
                 f"got {self.ctf_correction!r}")
        # Cross-section constraints: pruning rides the batched window engine
        # and the plain distance (the incremental shell bound is meaningless
        # after per-row normalization); neither pruning nor polish is wired
        # through the simulated-cluster backend.  Multi-basin state
        # (prune.top_k / polish.n_best) rides checkpoints since the basin
        # set was added to the checkpoint header.
        if self.prune.enabled:
            _require(self.kernel.kernel == "batched",
                     "prune.enabled requires kernel.kernel == 'batched'")
            _require(not self.normalized_distance,
                     "prune.enabled is incompatible with normalized_distance")
            _require(self.parallel.backend != "sim",
                     "prune.enabled is not supported on the sim backend")
        if self.polish.enabled:
            _require(not self.normalized_distance,
                     "polish.enabled is incompatible with normalized_distance")
            _require(self.parallel.backend != "sim",
                     "polish.enabled is not supported on the sim backend")
            if self.polish.n_best > 1:
                _require(self.prune.enabled,
                         "polish.n_best > 1 needs prune.enabled basin tracking "
                         "to supply multiple starts")
        # Symmetry restriction canonicalizes candidates inside the batched
        # window engine's memo path; the reference kernel and the
        # simulated-cluster backend never see the group.
        if self.symmetry.enabled:
            _require(self.kernel.kernel == "batched",
                     "symmetry.mode != 'none' requires kernel.kernel == 'batched'")
            _require(self.parallel.backend != "sim",
                     "symmetry.mode != 'none' is not supported on the sim backend")

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain nested dict; ``from_dict`` of it reconstructs ``self``."""
        out: dict[str, Any] = {name: getattr(self, name).to_dict() for name in _SECTIONS}
        for name in _SCALARS:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """Build from a nested dict, rejecting unknown fields loudly."""
        _require(isinstance(data, Mapping), f"config must be a mapping, got {data!r}")
        _reject_unknown("", data, tuple(_SECTIONS) + _SCALARS)
        kwargs: dict[str, Any] = {}
        for name, section_cls in _SECTIONS.items():
            section = data.get(name)
            if section is not None:
                _require(isinstance(section, Mapping),
                         f"{name} must be a table/object, got {section!r}")
                kwargs[name] = section_cls.from_dict(section)
        if "r_max" in data and data["r_max"] is not None:
            kwargs["r_max"] = _coerce_float("r_max", data["r_max"])
        if "max_slides" in data:
            kwargs["max_slides"] = _coerce_int("max_slides", data["max_slides"])
        if "refine_centers" in data:
            kwargs["refine_centers"] = _coerce_bool("refine_centers", data["refine_centers"])
        if "pad_factor" in data:
            kwargs["pad_factor"] = _coerce_int("pad_factor", data["pad_factor"])
        if "weighting" in data:
            kwargs["weighting"] = _coerce_str("weighting", data["weighting"], WEIGHTINGS)
        if "ctf_correction" in data:
            kwargs["ctf_correction"] = _coerce_str("ctf_correction",
                                                   data["ctf_correction"], CTF_CORRECTIONS)
        if "normalized_distance" in data:
            kwargs["normalized_distance"] = _coerce_bool("normalized_distance",
                                                         data["normalized_distance"])
        return cls(**kwargs)

    # -- identity ------------------------------------------------------------
    def fingerprint(self) -> str:
        """A stable digest of every *result-relevant* setting.

        Covers the schedule, the kernel, memo, prune, polish, symmetry and
        iteration sections, and the matching knobs — the fields a checkpoint must refuse to mix
        across (the old
        schedule-only fingerprint silently accepted a resume under a
        different kernel or memo configuration).  Execution strategy
        (``parallel``, ``fault``, ``checkpoint``) is deliberately excluded:
        every backend and recovery path is bit-identical by construction,
        and a checkpoint from a 2-worker run must resume on an 8-core host.
        ``kernel.gather_chunk`` is likewise excluded — chunking is a pure
        memory-footprint knob that provably cannot change a value.
        """
        kernel = self.kernel.to_dict()
        kernel.pop("gather_chunk")
        payload = {
            "schedule": self.schedule.to_dict(),
            "kernel": kernel,
            "memo": self.memo.to_dict(),
            "prune": self.prune.to_dict(),
            "polish": self.polish.to_dict(),
            "symmetry": self.symmetry.to_dict(),
            "iteration": self.iteration.to_dict(),
            "matching": {name: getattr(self, name) for name in _SCALARS},
        }
        desc = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(desc.encode()).hexdigest()[:16]

    def merged(self, overrides: Mapping[str, Any]) -> "EngineConfig":
        """A copy with a partial nested override dict merged on top.

        ``overrides`` uses the same shape as :meth:`to_dict` but may name
        only the fields it changes: section tables merge field-by-field
        onto the current values, scalars replace.  Unknown fields are
        rejected exactly as in :meth:`from_dict`, and the merged config is
        re-validated from scratch — the scenario matrix's spelling for
        "this scenario runs with pruning on" without restating the rest.
        """
        _require(isinstance(overrides, Mapping),
                 f"overrides must be a mapping, got {overrides!r}")
        _reject_unknown("", overrides, tuple(_SECTIONS) + _SCALARS)
        data = self.to_dict()
        for name, value in overrides.items():
            if name in _SECTIONS:
                _require(isinstance(value, Mapping),
                         f"{name} must be a table/object, got {value!r}")
                data[name] = {**data[name], **value}
            else:
                data[name] = value
        return EngineConfig.from_dict(data)

    def with_schedule(self, schedule: "MultiResolutionSchedule") -> "EngineConfig":
        """A copy whose schedule section mirrors an in-memory schedule object."""
        return replace(self, schedule=ScheduleConfig.from_schedule(schedule))

    def flat_items(self) -> list[tuple[str, Any]]:
        """Dotted ``(path, value)`` pairs in declaration order (for displays)."""
        out: list[tuple[str, Any]] = []
        for name in _SECTIONS:
            section = getattr(self, name)
            for f in fields(section):
                out.append((f"{name}.{f.name}", getattr(section, f.name)))
        for name in _SCALARS:
            out.append((name, getattr(self, name)))
        return out


def load_config(path: str | Path) -> EngineConfig:
    """Load an :class:`EngineConfig` from a ``.toml`` or ``.json`` file.

    The suffix selects the parser; anything else (or a malformed file, or
    an unknown field) raises :class:`ConfigError` with the offending
    detail, so a typo'd config dies before any data is touched.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    if p.suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"{p}: invalid TOML: {exc}") from exc
    elif p.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    else:
        raise ConfigError(f"{p}: config files must be .toml or .json")
    try:
        return EngineConfig.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from exc

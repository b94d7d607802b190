"""Layered config resolution with per-field provenance.

A run's effective :class:`~repro.engine.config.EngineConfig` is built
from four layers, later layers winning::

    dataclass defaults  <  base overlay  <  config file  <  env  <  flags

The *base overlay* is a driver's own defaults (e.g. the CLI ships a
shorter demo schedule than the paper's production one) — still "defaults"
from the user's point of view, so they share that provenance label.  The
environment layer covers the historical ``REPRO_*`` variables (read via
:mod:`repro.engine.env`, nowhere else); the flag layer is whatever the
caller parsed from its command line.

:func:`resolve_config` returns a :class:`ResolvedConfig` carrying the
validated config *and* a dotted-path → source map, so ``refine
--dry-run`` can print every effective value annotated with where it came
from — the difference between "the config I wrote" and "the config that
ran" is exactly the class of silent mismatch this engine exists to kill.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.engine.config import ConfigError, EngineConfig, load_config
from repro.engine.env import GATHER_CHUNK_ENV, gather_chunk_override

__all__ = ["ResolvedConfig", "describe_environment", "resolve_config"]

#: Provenance labels, in layering order.
SOURCES = ("default", "file", "env", "flag")


def _flatten(data: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Nested dict → dotted-leaf dict (lists are leaves, e.g. schedule.levels)."""
    out: dict[str, Any] = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(_flatten(value, f"{path}."))
        else:
            out[path] = value
    return out


def _set_dotted(tree: dict[str, Any], path: str, value: Any) -> None:
    parts = path.split(".")
    node = tree
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            raise ConfigError(f"unknown config field {path!r}")
        node = nxt
    if parts[-1] not in node:
        raise ConfigError(f"unknown config field {path!r}")
    node[parts[-1]] = value


@dataclass(frozen=True)
class ResolvedConfig:
    """A validated config plus where every field's value came from."""

    config: EngineConfig
    #: dotted field path → one of :data:`SOURCES`
    provenance: dict[str, str]
    #: the config file that contributed the ``file`` layer, if any
    config_path: str | None = None

    def describe(self) -> str:
        """The full effective config, one annotated line per field.

        The layout is stable (tests and humans both read it)::

            kernel.kernel                  = 'batched'        [default]
            parallel.n_workers             = 4                [flag]
        """
        lines = [f"engine fingerprint: {self.config.fingerprint()}"]
        if self.config_path is not None:
            lines.append(f"config file: {self.config_path}")
        for path, value in self.config.flat_items():
            source = self.provenance.get(path, "default")
            lines.append(f"{path:<28} = {value!r:<24} [{source}]")
        return "\n".join(lines)


def resolve_config(
    config_path: str | Path | None = None,
    *,
    base: Mapping[str, Any] | None = None,
    flags: Mapping[str, Any] | None = None,
    use_env: bool = True,
) -> ResolvedConfig:
    """Resolve the effective config from all four layers.

    ``base`` and ``flags`` are flat dotted-path mappings (``{"kernel.kernel":
    "reference", "parallel.n_workers": 4}``); ``config_path`` is a ``.toml`` or
    ``.json`` file; ``use_env=False`` ignores the process environment (for
    hermetic tests).  Unknown paths and invalid values raise
    :class:`~repro.engine.config.ConfigError`.
    """
    tree = EngineConfig().to_dict()
    provenance = {path: "default" for path in _flatten(tree)}

    def apply(layer: Mapping[str, Any], source: str) -> None:
        for path, value in layer.items():
            _set_dotted(tree, path, value)
            provenance[path] = source

    if base:
        apply(base, "default")

    resolved_path: str | None = None
    if config_path is not None:
        # load_config validates the file end-to-end first, so a bad file
        # dies with its own path in the message before any merging
        load_config(config_path)
        p = Path(config_path)
        resolved_path = str(p)
        if p.suffix == ".toml":
            import tomllib

            file_data = tomllib.loads(p.read_text(encoding="utf-8"))
        else:
            import json

            file_data = json.loads(p.read_text(encoding="utf-8"))
        apply(_flatten(file_data), "file")

    if use_env:
        chunk = gather_chunk_override()
        if chunk is not None:
            apply({"kernel.gather_chunk": chunk}, "env")
            provenance["kernel.gather_chunk"] = "env"

    if flags:
        apply(flags, "flag")

    try:
        config = EngineConfig.from_dict(tree)
    except ConfigError:
        raise
    except ValueError as exc:  # pragma: no cover - defensive re-wrap
        raise ConfigError(str(exc)) from exc
    return ResolvedConfig(config=config, provenance=provenance, config_path=resolved_path)


def describe_environment() -> str:
    """One line per repro env var currently set (dry-run footer)."""
    from repro.engine.env import environment_overrides

    overrides = environment_overrides()
    if not overrides:
        return "environment: (no REPRO_* overrides set)"
    return "environment: " + ", ".join(
        f"{name}={value}" for name, value in sorted(overrides.items())
    )

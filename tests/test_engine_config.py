"""Tests for the typed engine config: round-trips, validation, fingerprints,
and layered resolution with provenance."""

from __future__ import annotations

import json
import re

import pytest

from repro.engine import (
    ConfigError,
    EngineConfig,
    IterationConfig,
    KernelConfig,
    MemoConfig,
    ParallelConfig,
    ScheduleConfig,
    load_config,
    resolve_config,
)
from repro.refine.multires import default_schedule


# -- round-trips -------------------------------------------------------------
def test_dict_round_trip_is_identity():
    cfg = EngineConfig(
        kernel=KernelConfig(kernel="reference", gather_chunk=4096),
        schedule=ScheduleConfig(levels=((1.0, 1.0, 2, 1), (0.5, 0.25, 3, 2))),
        parallel=ParallelConfig(backend="process", n_workers=3),
        memo=MemoConfig(enabled=False, capacity=17),
        max_slides=3,
        refine_centers=False,
    )
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg


def test_toml_round_trip(tmp_path):
    text = (
        "max_slides = 3\n"
        "[kernel]\n"
        'kernel = "reference"\n'
        "[schedule]\n"
        "levels = [[1.0, 1.0, 2, 1], [0.5, 0.5, 2, 1]]\n"
        "[parallel]\n"
        'backend = "process"\n'
        "n_workers = 2\n"
    )
    path = tmp_path / "run.toml"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.kernel.kernel == "reference"
    assert cfg.parallel.backend == "process"
    assert cfg.parallel.n_workers == 2
    assert cfg.max_slides == 3
    assert cfg.schedule.levels == ((1.0, 1.0, 2, 1), (0.5, 0.5, 2, 1))
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg


def test_json_round_trip(tmp_path):
    data = {
        "kernel": {"kernel": "reference"},
        "schedule": {"levels": [[2.0, 2.0, 1, 1]]},
        "checkpoint": {"path": "run.ckpt", "resume": True},
        "refine_centers": False,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    assert cfg.kernel.kernel == "reference"
    assert cfg.checkpoint.path == "run.ckpt"
    assert cfg.checkpoint.resume is True
    assert cfg.refine_centers is False
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg


def test_example_configs_all_load():
    import pathlib

    examples = pathlib.Path(__file__).resolve().parents[1] / "examples"
    paths = sorted(
        p for p in examples.iterdir() if p.suffix in (".toml", ".json")
    )
    assert len(paths) >= 3
    for path in paths:
        cfg = load_config(path)
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg


def test_default_example_is_the_default_config():
    """engine_default.toml spells out the defaults — it must *be* them."""
    import pathlib

    examples = pathlib.Path(__file__).resolve().parents[1] / "examples"
    cfg = load_config(examples / "engine_default.toml")
    assert cfg.fingerprint() == EngineConfig().fingerprint()


# -- validation --------------------------------------------------------------
def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize(
    "tree, fragment",
    [
        ({"kernel": {"bogus": 1}}, "kernel.bogus"),
        ({"warp_drive": True}, "warp_drive"),
        ({"parallel": {"n_workers": 1, "turbo": 9}}, "parallel.turbo"),
    ],
)
def test_unknown_fields_rejected_with_dotted_path(tree, fragment):
    with pytest.raises(ConfigError, match=fragment):
        EngineConfig.from_dict(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {"kernel": {"kernel": "turbo"}},
        {"kernel": {"interpolation": "spline"}},
        {"parallel": {"backend": "mpi"}},
        {"parallel": {"n_workers": 0}},
        {"schedule": {"levels": []}},
        {"schedule": {"levels": [[-1.0]]}},
        {"checkpoint": {"resume": True}},  # resume requires a path
        {"memo": {"capacity": 0}},
        {"fault": {"max_attempts": 0}},
        {"max_slides": -1},
        {"weighting": "magic"},
        {"ctf_correction": "magic"},
    ],
)
def test_invalid_values_rejected(tree):
    with pytest.raises(ConfigError):
        EngineConfig.from_dict(tree)


def test_retired_fused_kernel_rejected(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text('[kernel]\nkernel = "fused"\n')
    with pytest.raises(ConfigError, match=re.escape("('batched', 'reference')")):
        load_config(path)


def test_load_config_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("kernel: reference\n")
    with pytest.raises(ConfigError):
        load_config(path)


# -- schedule bridge ---------------------------------------------------------
def test_schedule_round_trips_through_multires():
    sched = ScheduleConfig().to_schedule()
    assert ScheduleConfig.from_schedule(sched) == ScheduleConfig()


def test_default_schedule_matches_multires_default():
    assert ScheduleConfig().to_schedule() == default_schedule()


def test_abbreviated_schedule_rows_expand():
    cfg = ScheduleConfig.from_dict({"levels": [[1.0], [0.5, 0.25]]})
    assert cfg.levels == ((1.0, 1.0, 4, 1), (0.5, 0.25, 4, 1))


# -- fingerprints ------------------------------------------------------------
def test_fingerprint_stable_and_execution_invariant():
    """Execution strategy must not enter the digest — a 2-worker
    checkpoint resumes on an 8-core host, a chaos plan does not fork it."""
    base = EngineConfig().fingerprint()
    assert EngineConfig().fingerprint() == base
    variants = [
        EngineConfig(parallel=ParallelConfig(backend="process", n_workers=8)),
        EngineConfig(parallel=ParallelConfig(backend="sim", n_ranks=16)),
        EngineConfig.from_dict({"fault": {"max_attempts": 7}}),
        EngineConfig.from_dict({"checkpoint": {"path": "x.ckpt"}}),
        EngineConfig(kernel=KernelConfig(gather_chunk=1024)),
    ]
    for cfg in variants:
        assert cfg.fingerprint() == base


def test_fingerprint_sensitive_to_result_relevant_fields():
    base = EngineConfig().fingerprint()
    variants = [
        EngineConfig(kernel=KernelConfig(kernel="reference")),
        EngineConfig(schedule=ScheduleConfig(levels=((1.0, 1.0, 2, 1),))),
        EngineConfig(memo=MemoConfig(enabled=False)),
        EngineConfig(max_slides=1),
        EngineConfig(refine_centers=False),
        EngineConfig(r_max=5.0),
    ]
    prints = {cfg.fingerprint() for cfg in variants}
    assert base not in prints
    assert len(prints) == len(variants)


# -- layered resolution ------------------------------------------------------
def test_resolve_defaults_only():
    resolved = resolve_config(use_env=False)
    assert resolved.config == EngineConfig()
    assert set(resolved.provenance.values()) == {"default"}


def test_resolve_layering_and_provenance(tmp_path, monkeypatch):
    path = tmp_path / "run.toml"
    path.write_text('[kernel]\nkernel = "reference"\n[parallel]\nn_workers = 2\n')
    monkeypatch.setenv("REPRO_GATHER_CHUNK", "2048")
    resolved = resolve_config(
        path,
        base={"max_slides": 2},
        flags={"parallel.n_workers": 4, "parallel.backend": "process"},
    )
    cfg = resolved.config
    assert cfg.kernel.kernel == "reference"
    assert cfg.kernel.gather_chunk == 2048
    assert cfg.parallel.n_workers == 4  # flag beats file
    assert cfg.max_slides == 2
    prov = resolved.provenance
    assert prov["kernel.kernel"] == "file"
    assert prov["kernel.gather_chunk"] == "env"
    assert prov["parallel.n_workers"] == "flag"
    assert prov["max_slides"] == "default"  # base overlay keeps the label
    text = resolved.describe()
    assert f"engine fingerprint: {cfg.fingerprint()}" in text
    assert str(path) in text
    assert "[flag]" in text and "[file]" in text and "[env]" in text


def test_resolve_rejects_unknown_flag_path():
    with pytest.raises(ConfigError, match="parallel.warp"):
        resolve_config(use_env=False, flags={"parallel.warp": 1})


def test_resolve_rejects_invalid_file(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text('[kernel]\nkernel = "turbo"\n')
    with pytest.raises(ConfigError):
        resolve_config(path, use_env=False)


# -- merged() ----------------------------------------------------------------


def test_merged_partial_section_override():
    base = EngineConfig()
    out = base.merged({"prune": {"enabled": True}})
    assert out.prune.enabled is True
    # untouched prune fields keep their values; other sections untouched
    assert out.prune.shell_groups == base.prune.shell_groups
    assert out.kernel == base.kernel
    assert base.prune.enabled is False  # original unchanged (frozen)


def test_merged_scalars_replace_and_validate():
    base = EngineConfig(r_max=9.0)
    out = base.merged({"max_slides": 12, "r_max": 6.5})
    assert out.max_slides == 12 and out.r_max == 6.5
    with pytest.raises(ConfigError):
        base.merged({"nope": 1})
    with pytest.raises(ConfigError):
        base.merged({"prune": {"margin": -1.0}})


def test_merged_revalidates_cross_constraints():
    base = EngineConfig(kernel=KernelConfig(kernel="reference"))
    with pytest.raises(ConfigError):
        base.merged({"prune": {"enabled": True}})  # pruning needs batched


def test_merged_equals_from_dict_round_trip():
    base = EngineConfig()
    out = base.merged({"prune": {"enabled": True}, "max_slides": 4})
    rebuilt = EngineConfig.from_dict(out.to_dict())
    assert out == rebuilt and out.fingerprint() == rebuilt.fingerprint()


def test_fingerprint_covers_symmetry():
    """The symmetry section changes the search space, so it must fork the
    digest — a checkpoint written under one mode cannot resume under
    another (the refiner turns the mismatch into CheckpointConfigMismatch)."""
    base = EngineConfig().fingerprint()
    variants = [
        EngineConfig.from_dict({"symmetry": {"mode": "fixed:I"}}),
        EngineConfig.from_dict({"symmetry": {"mode": "fixed:C4"}}),
        EngineConfig.from_dict({"symmetry": {"mode": "detect"}}),
        EngineConfig.from_dict({"symmetry": {"mode": "detect", "detect_max_order": 8}}),
    ]
    prints = {cfg.fingerprint() for cfg in variants}
    assert base not in prints
    assert len(prints) == len(variants)


def test_symmetry_config_validation():
    from repro.engine.config import SymmetryConfig

    assert SymmetryConfig().mode == "none"
    assert not SymmetryConfig().enabled
    assert SymmetryConfig(mode="fixed:D7").fixed_group_name() == "D7"
    with pytest.raises(ConfigError):
        EngineConfig.from_dict({"symmetry": {"mode": "sideways"}})
    # the restriction rides the batched window path and real backends only
    with pytest.raises(ConfigError):
        EngineConfig.from_dict(
            {"symmetry": {"mode": "fixed:I"}, "kernel": {"kernel": "reference"}}
        )
    with pytest.raises(ConfigError):
        EngineConfig.from_dict(
            {"symmetry": {"mode": "detect"}, "parallel": {"backend": "sim"}}
        )


# -- iteration section (the outer determine-structure loop) -------------------
def test_iteration_config_defaults_and_round_trip():
    it = IterationConfig()
    assert (it.max_iterations, it.fsc_threshold) == (3, 0.5)
    assert it.min_improvement_angstrom == 0.0
    assert it.r_max_schedule == () and it.streaming is True

    cfg = EngineConfig.from_dict(
        {
            "iteration": {
                "max_iterations": 5,
                "fsc_threshold": 0.143,
                "min_improvement_angstrom": 0.25,
                "r_max_schedule": [10, 8, 6],
                "streaming": False,
            }
        }
    )
    # integer ladder entries normalize to floats; the round trip is identity
    assert cfg.iteration.r_max_schedule == (10.0, 8.0, 6.0)
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "tree",
    [
        {"iteration": {"max_iterations": 0}},
        {"iteration": {"fsc_threshold": 0.0}},
        {"iteration": {"fsc_threshold": 1.0}},
        {"iteration": {"min_improvement_angstrom": -0.1}},
        {"iteration": {"r_max_schedule": [8.0, -2.0]}},
        {"iteration": {"r_max_schedule": 8.0}},
        {"iteration": {"streaming": "yes"}},
        {"iteration": {"warp": 1}},
    ],
)
def test_iteration_invalid_values_rejected(tree):
    with pytest.raises(ConfigError):
        EngineConfig.from_dict(tree)


def test_iteration_r_max_ladder_semantics():
    """Iteration i refines with schedule[min(i, len-1)]; empty = run r_max."""
    ladder = IterationConfig(r_max_schedule=(10.0, 8.0))
    assert [ladder.r_max_for(i, 6.0) for i in range(4)] == [10.0, 8.0, 8.0, 8.0]
    assert IterationConfig().r_max_for(3, 6.0) == 6.0
    assert IterationConfig().r_max_for(0, None) is None


def test_fingerprint_covers_iteration():
    """Every iteration knob steers the loop's numbers (streaming included —
    it must match across a resume even though it never changes a bit)."""
    base = EngineConfig().fingerprint()
    variants = [
        EngineConfig(iteration=IterationConfig(max_iterations=7)),
        EngineConfig(iteration=IterationConfig(fsc_threshold=0.143)),
        EngineConfig(iteration=IterationConfig(min_improvement_angstrom=1.0)),
        EngineConfig(iteration=IterationConfig(r_max_schedule=(9.0,))),
        EngineConfig(iteration=IterationConfig(streaming=False)),
    ]
    prints = {cfg.fingerprint() for cfg in variants}
    assert base not in prints
    assert len(prints) == len(variants)


def test_multi_basin_config_may_checkpoint():
    """prune.top_k / polish.n_best > 1 plus a checkpoint path now validates:
    the basin set rides the checkpoint header (DESIGN.md §14)."""
    cfg = EngineConfig.from_dict(
        {
            "prune": {"enabled": True, "top_k": 2},
            "polish": {"enabled": True, "n_best": 2},
            "checkpoint": {"path": "run.ckpt"},
        }
    )
    assert cfg.prune.top_k == 2 and cfg.polish.n_best == 2
    assert cfg.checkpoint.path == "run.ckpt"

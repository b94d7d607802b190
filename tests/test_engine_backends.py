"""Tests for the execution backends and the engine front door.

Dispatch, lifetime ownership, and — the refactor's load-bearing claim —
bit-identical equivalence between the engine-routed paths and the legacy
kwarg paths they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    ConfigError,
    EngineConfig,
    KernelConfig,
    ParallelConfig,
    ProcessBackend,
    RefinementEngine,
    ScheduleConfig,
    SerialBackend,
    SimBackend,
    make_backend,
)
from repro.imaging import simulate_views
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import OrientationRefiner

SCHED_LEVELS = ((1.0, 1.0, 2, 1), (0.5, 0.5, 2, 1))


@pytest.fixture(scope="module")
def dataset(phantom16):
    return simulate_views(
        phantom16, 4, initial_angle_error_deg=2.0, center_sigma_px=0.3, seed=3
    )


def small_config(**overrides):
    base = dict(
        schedule=ScheduleConfig(levels=SCHED_LEVELS), r_max=6.0, max_slides=2
    )
    base.update(overrides)
    return EngineConfig(**base)


# -- dispatch ----------------------------------------------------------------
def test_make_backend_dispatch():
    assert isinstance(make_backend(EngineConfig()), SerialBackend)
    sim = make_backend(EngineConfig(parallel=ParallelConfig(backend="sim")))
    assert isinstance(sim, SimBackend)


def test_make_backend_process_owns_scheduler():
    cfg = EngineConfig(parallel=ParallelConfig(backend="process", n_workers=2))
    with make_backend(cfg) as backend:
        assert isinstance(backend, ProcessBackend)
        assert backend.scheduler.n_workers == 2
    # close() ran on __exit__; closing again must be harmless
    backend.close()


def test_make_backend_rejects_serial_multiworker():
    cfg = EngineConfig(parallel=ParallelConfig(backend="serial", n_workers=1))
    bad = {"backend": "serial", "n_workers": 3}
    with pytest.raises(ConfigError, match="n_workers"):
        make_backend(EngineConfig.from_dict({"parallel": bad}))
    assert isinstance(make_backend(cfg), SerialBackend)


def test_injected_scheduler_is_adopted_not_owned():
    from repro.parallel.viewsched import ViewScheduler

    with ViewScheduler(n_workers=2) as scheduler:
        backend = make_backend(EngineConfig(), scheduler=scheduler)
        assert isinstance(backend, ProcessBackend)
        assert backend.scheduler is scheduler
        assert backend._owned is False
        backend.close()  # must NOT shut down the caller's pool


def test_sim_backend_refuses_level_granular_calls():
    backend = SimBackend(EngineConfig(parallel=ParallelConfig(backend="sim")))
    with pytest.raises(ConfigError, match="whole schedule"):
        backend.run_level()


# -- legacy-shim equivalence -------------------------------------------------
def test_refiner_config_matches_kwargs_bitwise(phantom16, dataset):
    """OrientationRefiner(config=...) == the old kwargs path, bit for bit."""
    sched = MultiResolutionSchedule(
        (RefinementLevel(1.0, 1.0, half_steps=2), RefinementLevel(0.5, 0.5, half_steps=2))
    )
    old = OrientationRefiner(
        phantom16, r_max=6.0, max_slides=2, kernel="batched"
    ).refine(dataset, schedule=sched)
    new = OrientationRefiner(phantom16, config=small_config()).refine(
        dataset, schedule=sched
    )
    assert [o.as_tuple() for o in new.orientations] == [
        o.as_tuple() for o in old.orientations
    ]
    assert np.array_equal(new.distances, old.distances)


def test_engine_serial_matches_legacy_refiner_bitwise(phantom16, dataset):
    sched = small_config().schedule.to_schedule()
    legacy = OrientationRefiner(phantom16, r_max=6.0, max_slides=2).refine(
        dataset, schedule=sched
    )
    run = RefinementEngine(small_config()).run(dataset, phantom16)
    assert run.backend == "serial"
    assert run.fingerprint == small_config().fingerprint()
    assert [o.as_tuple() for o in run.orientations] == [
        o.as_tuple() for o in legacy.orientations
    ]
    assert np.array_equal(run.distances, legacy.distances)


def test_engine_process_matches_serial_bitwise(phantom16, dataset):
    serial = RefinementEngine(small_config()).run(dataset, phantom16)
    cfg = small_config(parallel=ParallelConfig(backend="process", n_workers=2))
    pooled = RefinementEngine(cfg).run(dataset, phantom16)
    assert pooled.backend == "process"
    assert [o.as_tuple() for o in pooled.orientations] == [
        o.as_tuple() for o in serial.orientations
    ]
    assert np.array_equal(pooled.distances, serial.distances)
    # execution strategy must not fork the fingerprint
    assert pooled.fingerprint == serial.fingerprint


def test_engine_sim_matches_legacy_parallel_refine_bitwise(phantom16, dataset):
    from repro.parallel import parallel_refine

    # the legacy kwargs have no max_slides: compare at its default
    cfg = small_config(
        parallel=ParallelConfig(backend="sim", n_ranks=2),
        kernel=KernelConfig(kernel="batched"),
        max_slides=EngineConfig().max_slides,
    )
    legacy = parallel_refine(
        dataset, phantom16, n_ranks=2, schedule=cfg.schedule.to_schedule(),
        r_max=6.0, kernel="batched",
    )
    run = RefinementEngine(cfg).run(dataset, phantom16)
    assert run.backend == "sim"
    assert run.report is not None
    assert [o.as_tuple() for o in run.orientations] == [
        o.as_tuple() for o in legacy.orientations
    ]
    assert np.array_equal(run.distances, legacy.distances)


def test_process_backend_honours_memo_capacity(phantom16, dataset, monkeypatch):
    """Pool workers build their memos at ``memo.capacity``, not the default.

    Every per-view state a worker ships back passes through the master
    store's ``import_state``; at capacity 64 none may exceed 64 rows, and
    the pooled run stays bit-identical to the serial one.
    """
    from repro.align.memo import MemoStore
    from repro.engine.config import MemoConfig

    capacity = 64
    shipped: list[int] = []
    real_import = MemoStore.import_state

    def recording_import(self, state):
        shipped.extend(len(values) for _, values in state.values())
        real_import(self, state)

    monkeypatch.setattr(MemoStore, "import_state", recording_import)
    memo = MemoConfig(capacity=capacity)
    serial = RefinementEngine(small_config(memo=memo)).run(dataset, phantom16)
    assert shipped == []  # the serial path never imports
    cfg = small_config(memo=memo, parallel=ParallelConfig(backend="process", n_workers=2))
    pooled = RefinementEngine(cfg).run(dataset, phantom16)
    assert pooled.backend == "process"
    assert shipped and max(shipped) <= capacity
    assert [o.as_tuple() for o in pooled.orientations] == [
        o.as_tuple() for o in serial.orientations
    ]
    assert np.array_equal(pooled.distances, serial.distances)


def test_sim_backend_honours_memo_capacity(phantom16, dataset):
    """The simulated cluster's memo is sized by ``memo.capacity`` too.

    A 64-entry memo holds less than one window's candidates, so it must
    hit less often than the default one — with bit-identical results.
    """
    from repro.engine.config import MemoConfig

    def run(memo: MemoConfig):
        cfg = small_config(parallel=ParallelConfig(backend="sim", n_ranks=2), memo=memo)
        return RefinementEngine(cfg).run(dataset, phantom16)

    small, default = run(MemoConfig(capacity=64)), run(MemoConfig())
    assert small.perf is not None and default.perf is not None
    assert small.perf.candidates == default.perf.candidates
    assert small.perf.memo_hits < default.perf.memo_hits
    assert [o.as_tuple() for o in small.orientations] == [
        o.as_tuple() for o in default.orientations
    ]
    assert np.array_equal(small.distances, default.distances)


@pytest.mark.parametrize(
    "overrides",
    [
        {"max_slides": 0},
        {"memo": {"enabled": False}},
        {"weighting": "radius", "normalized_distance": True},
        {"kernel": {"interpolation": "nearest"}},
    ],
    ids=["no-slides", "memo-off", "weighted-normalized", "nearest"],
)
def test_sim_backend_honours_engine_config(phantom16, dataset, overrides):
    """The simulated cluster runs what its config says, as the serial
    backend does: same bits, same window scans and memo traffic.  (It used
    to slide up to 8 times, memoize with the memo off, and score with an
    unweighted, unnormalized distance and trilinear cuts.)"""
    cfg = small_config().to_dict()
    for key, value in overrides.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    serial = RefinementEngine(EngineConfig.from_dict(cfg)).run(dataset, phantom16)
    sim_cfg = {**cfg, "parallel": {"backend": "sim", "n_ranks": 2}}
    sim = RefinementEngine(EngineConfig.from_dict(sim_cfg)).run(dataset, phantom16)
    assert sim.backend == "sim"
    assert sim.perf is not None and serial.perf is not None
    assert sim.perf.window_calls == serial.perf.window_calls
    assert sim.perf.memo_lookups == serial.perf.memo_lookups
    if overrides.get("max_slides") == 0:
        # one window per inner iteration: views × levels × 2
        assert sim.perf.window_calls == len(dataset) * len(SCHED_LEVELS) * 2
    if overrides.get("memo") == {"enabled": False}:
        assert sim.perf.memo_lookups == 0
    assert [o.as_tuple() for o in sim.orientations] == [
        o.as_tuple() for o in serial.orientations
    ]
    assert np.array_equal(sim.distances, serial.distances)


# -- engine guard rails ------------------------------------------------------
def test_engine_sim_rejects_raw_stacks(phantom16, dataset):
    cfg = small_config(parallel=ParallelConfig(backend="sim", n_ranks=2))
    with pytest.raises(ConfigError, match="SimulatedViews"):
        RefinementEngine(cfg).run(dataset.images, phantom16)


def test_engine_sim_rejects_checkpointing(phantom16, dataset, tmp_path):
    cfg = small_config(parallel=ParallelConfig(backend="sim", n_ranks=2))
    cfg = EngineConfig.from_dict(
        {**cfg.to_dict(), "checkpoint": {"path": str(tmp_path / "x.ckpt")}}
    )
    with pytest.raises(ConfigError, match="checkpoint"):
        RefinementEngine(cfg).run(dataset, phantom16)


def test_refiner_rejects_sim_config():
    from repro.density import asymmetric_phantom

    from repro.geometry import Orientation

    cfg = EngineConfig(parallel=ParallelConfig(backend="sim"))
    density = asymmetric_phantom(16, seed=0).normalized()
    refiner = OrientationRefiner(density, config=cfg)
    with pytest.raises(ConfigError):
        refiner.refine(
            np.zeros((1, 16, 16)), initial_orientations=[Orientation(0, 0, 0)]
        )


def test_engine_writes_orientation_file(phantom16, dataset, tmp_path):
    from repro.refine import read_orientation_file

    out = str(tmp_path / "refined.txt")
    run = RefinementEngine(small_config()).run(
        dataset, phantom16, orientation_file=out
    )
    got, scores = read_orientation_file(out)
    # the text format carries 6 decimals, not full float64 precision
    assert np.allclose(
        [o.as_tuple() for o in got],
        [o.as_tuple() for o in run.orientations],
        atol=1e-6,
    )
    assert np.allclose(scores, run.distances)


def test_engine_gather_chunk_scopes_to_run(phantom16, dataset, monkeypatch):
    """kernel.gather_chunk reaches the kernels via the env for the run's
    scope only — the process env is restored afterwards."""
    import os

    monkeypatch.delenv("REPRO_GATHER_CHUNK", raising=False)
    cfg = small_config(kernel=KernelConfig(gather_chunk=64))
    baseline = RefinementEngine(small_config()).run(dataset, phantom16)
    chunked = RefinementEngine(cfg).run(dataset, phantom16)
    assert "REPRO_GATHER_CHUNK" not in os.environ
    assert [o.as_tuple() for o in chunked.orientations] == [
        o.as_tuple() for o in baseline.orientations
    ]
    assert np.array_equal(chunked.distances, baseline.distances)


def test_sim_backend_refuses_polish_and_tasks():
    cfg = EngineConfig.from_dict({
        "schedule": {"levels": [list(l) for l in SCHED_LEVELS]},
        "parallel": {"backend": "sim", "n_ranks": 2},
    })
    backend = SimBackend(cfg)
    with pytest.raises(ConfigError):
        backend.run_polish(None, None, [], [], None)
    with pytest.raises(ConfigError):
        backend.run_tasks(len, [()])


def test_serial_and_process_run_tasks_agree(phantom16):
    from repro.parallel.viewsched import ViewScheduler

    payloads = ["a", "bb", "ccc"]
    serial = SerialBackend()
    assert serial.run_tasks(len, payloads) == [1, 2, 3]
    with ViewScheduler(n_workers=2) as sched:
        process = ProcessBackend(scheduler=sched)
        assert process.run_tasks(len, payloads) == [1, 2, 3]


def test_engine_symmetry_restriction_threads_through(phantom16, dataset):
    """fixed:<G> symmetry must flow through the backend into the refiner,
    come back out in EngineRunResult, and keep serial/process bitwise."""
    from repro.density.phantom import symmetric_phantom
    from repro.geometry.symmetry import cyclic_group

    density = symmetric_phantom(cyclic_group(4), size=16, seed=1).normalized()
    views = simulate_views(
        density, 3, initial_angle_error_deg=2.0, center_sigma_px=0.0, seed=3
    )
    runs = {}
    for tag, parallel in (
        ("serial", {"backend": "serial", "n_workers": 1}),
        ("process", {"backend": "process", "n_workers": 2}),
    ):
        cfg = EngineConfig.from_dict({
            "schedule": {"levels": [list(l) for l in SCHED_LEVELS]},
            "r_max": 6.0,
            "max_slides": 2,
            "symmetry": {"mode": "fixed:C4"},
            "parallel": parallel,
        })
        runs[tag] = RefinementEngine(cfg).run(views, density)
    for run in runs.values():
        assert run.symmetry_group == "C4"
        assert run.symmetry_order == 4
    a, b = runs["serial"], runs["process"]
    assert [o.as_tuple() for o in a.orientations] == [
        o.as_tuple() for o in b.orientations
    ]
    assert np.array_equal(a.distances, b.distances)


def test_engine_symmetry_off_reports_none(phantom16, dataset):
    run = RefinementEngine(small_config()).run(dataset, phantom16)
    assert run.symmetry_group is None
    assert run.symmetry_order == 1

"""Chaos tests for level-granular checkpoint/resume (DESIGN.md §8).

The killed run is modeled with an ``abort-level`` fault: the scheduler
raises at a level barrier exactly where a SIGKILL would leave a real run —
after the previous level's checkpoint hit the disk, before the next level
touched anything.  Resume must then produce a result bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.faults.checkpoint import (
    RefinementCheckpoint,
    load_checkpoint,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.faults.plan import FaultInjected, FaultPlan, FaultSpec
from repro.parallel.viewsched import ViewScheduler

from tests.chaos.conftest import assert_identical

pytestmark = pytest.mark.chaos


def interrupted_run(chaos_problem, ckpt_path, level_seq=1):
    """Run until an injected abort at ``level:<level_seq>`` kills it."""
    views, refiner, schedule = chaos_problem
    plan = FaultPlan((FaultSpec("abort-level", f"level:{level_seq}"),))
    scheduler = ViewScheduler(n_workers=1, fault_plan=plan)
    try:
        with pytest.raises(FaultInjected):
            refiner.refine(
                views, schedule=schedule, scheduler=scheduler, checkpoint_path=ckpt_path
            )
    finally:
        scheduler.close()


def test_resume_after_abort_is_bit_identical(chaos_problem, baseline, tmp_path):
    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    interrupted_run(chaos_problem, ckpt)
    saved = load_checkpoint(ckpt)
    assert saved.levels_done == 1

    resumed = refiner.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, baseline)
    assert resumed.stats == baseline.stats


def test_resume_of_finished_run_is_a_noop(chaos_problem, baseline, tmp_path):
    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    refiner.refine(views, schedule=schedule, checkpoint_path=ckpt)
    assert load_checkpoint(ckpt).levels_done == len(schedule)

    # all levels done: resume returns the checkpointed state untouched
    resumed = refiner.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, baseline)
    assert resumed.stats == baseline.stats


def test_fingerprint_mismatch_starts_fresh(chaos_problem, baseline, tmp_path):
    from repro.refine.multires import MultiResolutionSchedule, RefinementLevel

    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    other = MultiResolutionSchedule((RefinementLevel(2.0, 2.0, half_steps=1),))
    refiner.refine(views, schedule=other, checkpoint_path=ckpt)

    assert try_load_checkpoint(ckpt, schedule.fingerprint(), len(views)) is None
    resumed = refiner.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, baseline)


def test_engine_fingerprint_mismatch_fails_loudly(chaos_problem, tmp_path):
    """Same schedule, different kernel/memo config: resume must *raise*.

    The old schedule-only fingerprint silently accepted these resumes; the
    engine fingerprint in the checkpoint header turns them into a
    :class:`CheckpointConfigMismatch` instead of a quietly mixed result.
    """
    from repro.faults.checkpoint import CheckpointConfigMismatch
    from repro.refine.refiner import OrientationRefiner

    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    refiner.refine(views, schedule=schedule, checkpoint_path=ckpt)

    density = refiner.density
    for variant in (
        OrientationRefiner(density, max_slides=2, kernel="reference"),
        OrientationRefiner(density, max_slides=2, memo=False),
    ):
        with pytest.raises(CheckpointConfigMismatch):
            variant.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)

    # the matching config still resumes cleanly
    again = OrientationRefiner(density, max_slides=2)
    again.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)


def test_legacy_checkpoint_without_engine_fingerprint_resumes(
    chaos_problem, baseline, tmp_path
):
    """Pre-engine checkpoints (no engine fingerprint header) stay loadable."""
    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    interrupted_run(chaos_problem, ckpt)
    saved = load_checkpoint(ckpt)
    stripped = RefinementCheckpoint(
        schedule_fingerprint=saved.schedule_fingerprint,
        levels_done=saved.levels_done,
        orientations=saved.orientations,
        distances=saved.distances,
        stats=saved.stats,
        memo=saved.memo,
        engine_fingerprint="",
    )
    save_checkpoint(ckpt, stripped)

    resumed = refiner.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, baseline)


def test_engine_routed_abort_and_resume(chaos_problem, baseline, tmp_path):
    """The config'd engine path survives an abort-level fault and resumes
    bit-identically — same contract as the legacy kwargs path."""
    from repro.engine import (
        EngineConfig,
        ParallelConfig,
        RefinementEngine,
        ScheduleConfig,
    )

    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    config = EngineConfig(
        schedule=ScheduleConfig.from_schedule(schedule),
        parallel=ParallelConfig(backend="process", n_workers=1),
        max_slides=2,
    )
    ckpt_config = EngineConfig.from_dict(
        {**config.to_dict(), "checkpoint": {"path": ckpt}}
    )
    plan = FaultPlan((FaultSpec("abort-level", "level:1"),))
    with pytest.raises(FaultInjected):
        RefinementEngine(ckpt_config).run(views, refiner.density, fault_plan=plan)
    assert load_checkpoint(ckpt).levels_done == 1

    resume_config = EngineConfig.from_dict(
        {**config.to_dict(), "checkpoint": {"path": ckpt, "resume": True}}
    )
    run = RefinementEngine(resume_config).run(views, refiner.density)
    assert_identical(run.result, baseline)
    assert run.result.stats == baseline.stats


def test_garbage_checkpoint_is_ignored(chaos_problem, baseline, tmp_path):
    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    with open(ckpt, "w") as fh:
        fh.write("not a checkpoint\n")
    resumed = refiner.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, baseline)


def test_checkpoint_write_is_atomic(tmp_path, baseline, monkeypatch):
    """A crash mid-save leaves the previous checkpoint intact, never a torn file."""
    path = str(tmp_path / "ckpt.orient")
    good = RefinementCheckpoint(
        schedule_fingerprint="f" * 16,
        levels_done=1,
        orientations=baseline.orientations,
        distances=np.asarray(baseline.distances),
        stats=baseline.stats,
    )
    save_checkpoint(path, good)
    before = open(path).read()

    # simulate the crash between temp-file write and publication: the
    # rename never happens, so the prior checkpoint must stay untouched
    def crashed_replace(src, dst):
        raise OSError("injected crash during checkpoint publication")

    monkeypatch.setattr("repro.faults.checkpoint.os.replace", crashed_replace)
    with pytest.raises(OSError, match="injected crash"):
        save_checkpoint(path, good)
    monkeypatch.undo()
    assert open(path).read() == before
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    loaded = load_checkpoint(path)
    for got, want in zip(loaded.orientations, baseline.orientations):
        assert got.as_tuple() == want.as_tuple()
    assert np.array_equal(loaded.distances, baseline.distances)
    assert loaded.stats == baseline.stats


def test_checkpoint_roundtrip_is_exact(tmp_path):
    """17-digit serialization: pathological floats survive the round trip."""
    from repro.geometry.euler import Orientation
    from repro.refine.stats import RefinementStats

    rng = np.random.default_rng(0)
    orients = [
        Orientation(*(float(x) for x in rng.uniform(-180, 180, 3)),
                    cx=float(rng.normal()), cy=float(rng.normal()))
        for _ in range(5)
    ]
    dists = rng.normal(size=5) * 1e-7
    ckpt = RefinementCheckpoint(
        schedule_fingerprint="a" * 16,
        levels_done=2,
        orientations=orients,
        distances=dists,
        stats=RefinementStats(n_views=5),
    )
    path = str(tmp_path / "ckpt.orient")
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    for got, want in zip(loaded.orientations, orients):
        assert got.as_tuple() == want.as_tuple()
    assert np.array_equal(loaded.distances, dists)


# -- warm orientation memo through kill/resume (batched kernel) ---------------
def test_checkpoint_carries_memo_state(chaos_problem, tmp_path):
    """The default (batched) kernel serializes its memo into the checkpoint."""
    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    interrupted_run(chaos_problem, ckpt)
    saved = load_checkpoint(ckpt)
    assert saved.memo is not None and len(saved.memo) == len(views)
    for keys, values in saved.memo.values():
        assert keys.shape[1] == 5 and keys.shape[0] == values.shape[0] > 0


def test_resume_with_warm_memo_is_bit_identical(chaos_problem, baseline, tmp_path):
    """Killed run -> resume with the deserialized (warm) memo == fault-free run.

    The warm memo changes *work* (level-2 candidates already scored in the
    killed run come from the cache) but must not change one bit of output;
    the perf counters prove the cache actually fired.
    """
    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    interrupted_run(chaos_problem, ckpt)

    resumed = refiner.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, baseline)
    assert resumed.stats == baseline.stats
    assert resumed.perf is not None
    assert resumed.perf.memo_hits > 0, "warm memo never consulted on resume"


def test_pruned_resume_replays_same_prune_decisions(chaos_problem, tmp_path):
    """Kill a pruned run at a level barrier, resume it, and the replayed
    level must make the *same pruning decisions* as the uninterrupted
    pruned run — same abandoned/evaluated counts per level, same bits out.

    This holds because the k-th-best tracker lives inside one view's
    sliding-window search (it never crosses the checkpoint boundary) and
    the warm memo restored from the checkpoint is the exact memo state the
    killed run had at that barrier.
    """
    from repro.engine.config import EngineConfig
    from repro.refine.refiner import OrientationRefiner

    views, refiner, schedule = chaos_problem
    config = EngineConfig.from_dict(
        {**refiner.config.to_dict(), "prune": {"enabled": True}}
    )
    pruned_baseline = OrientationRefiner(refiner.density, config=config).refine(
        views, schedule=schedule
    )
    assert pruned_baseline.perf is not None and pruned_baseline.perf.pruned > 0

    ckpt = str(tmp_path / "run.ckpt")
    plan = FaultPlan((FaultSpec("abort-level", "level:1"),))
    scheduler = ViewScheduler(n_workers=1, fault_plan=plan)
    interrupted = OrientationRefiner(refiner.density, config=config)
    try:
        with pytest.raises(FaultInjected):
            interrupted.refine(
                views, schedule=schedule, scheduler=scheduler, checkpoint_path=ckpt
            )
    finally:
        scheduler.close()
    assert load_checkpoint(ckpt).levels_done == 1

    resumed = OrientationRefiner(refiner.density, config=config).refine(
        views, schedule=schedule, checkpoint_path=ckpt, resume=True
    )
    assert_identical(resumed, pruned_baseline)
    assert resumed.stats == pruned_baseline.stats
    # the replayed level 2 pruned/evaluated exactly what the fault-free
    # pruned run pruned/evaluated there
    label = f"{schedule.levels[1].angular_step_deg:g}deg"
    assert resumed.perf is not None
    assert resumed.perf.level_pruned[label] == pruned_baseline.perf.level_pruned[label]
    assert (
        resumed.perf.level_evaluated[label]
        == pruned_baseline.perf.level_evaluated[label]
    )


def test_resume_without_memo_is_also_bit_identical(chaos_problem, baseline, tmp_path):
    """A legacy checkpoint (no memo header) resumes cold to the same bits."""
    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    interrupted_run(chaos_problem, ckpt)
    saved = load_checkpoint(ckpt)
    stripped = RefinementCheckpoint(
        schedule_fingerprint=saved.schedule_fingerprint,
        levels_done=saved.levels_done,
        orientations=saved.orientations,
        distances=saved.distances,
        stats=saved.stats,
        memo=None,
    )
    save_checkpoint(ckpt, stripped)
    assert load_checkpoint(ckpt).memo is None

    resumed = refiner.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, baseline)
    assert resumed.stats == baseline.stats


def test_symmetry_mode_mismatch_fails_loudly(chaos_problem, tmp_path):
    """A checkpoint written without a symmetry restriction must refuse to
    resume under one (and vice versa): the restriction changes the
    candidate space, so mixing levels across modes would silently blend
    two different searches.  The symmetry section is part of the engine
    fingerprint, which the checkpoint header pins."""
    from repro.engine.config import EngineConfig
    from repro.faults.checkpoint import CheckpointConfigMismatch
    from repro.refine.refiner import OrientationRefiner

    views, refiner, schedule = chaos_problem
    ckpt = str(tmp_path / "run.ckpt")
    refiner.refine(views, schedule=schedule, checkpoint_path=ckpt)

    density = refiner.density
    base = refiner.config.to_dict()
    for mode in ("fixed:C4", "detect"):
        cfg = EngineConfig.from_dict({**base, "symmetry": {"mode": mode}})
        variant = OrientationRefiner(density, config=cfg)
        with pytest.raises(CheckpointConfigMismatch):
            variant.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)


def _strip_memo_key_format(path: str) -> None:
    """Rewrite ``path``'s ``memo`` header in the layout used before the
    key-format marker (the bare per-view mapping), with every cached
    distance poisoned to -1 so a resume that imports the memo shows it."""
    import json

    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        if line.startswith("# memo "):
            views = json.loads(line[len("# memo "):])["views"]
            for entry in views.values():
                entry["v"] = [(-1.0).hex()] * len(entry["v"])
            lines[i] = f"# memo {json.dumps(views, sort_keys=True)}\n"
            break
    else:
        raise AssertionError("checkpoint has no memo header")
    with open(path, "w") as fh:
        fh.writelines(lines)


def test_unmarked_memo_is_dropped_on_symmetric_resume(chaos_problem, baseline, tmp_path):
    """A memo header without the key-format marker was written when
    symmetry-restricted runs keyed the memo on canonical, rounded angles.
    A symmetric run resumed from one starts with an empty memo: poisoned
    cached distances change nothing.  A symmetry-off run still imports an
    unmarked memo, whose keys were always exact."""
    from repro.engine.config import EngineConfig
    from repro.faults.checkpoint import MEMO_KEY_FORMAT
    from repro.refine.refiner import OrientationRefiner

    views, refiner, schedule = chaos_problem
    cfg = EngineConfig.from_dict({**refiner.config.to_dict(), "symmetry": {"mode": "fixed:C4"}})
    symmetric = OrientationRefiner(refiner.density, config=cfg)
    fresh = symmetric.refine(views, schedule=schedule)
    ckpt = str(tmp_path / "run.ckpt")
    interrupted_run((views, symmetric, schedule), ckpt)
    marked = load_checkpoint(ckpt)
    assert marked.memo_key_format == MEMO_KEY_FORMAT and marked.memo

    _strip_memo_key_format(ckpt)
    legacy = load_checkpoint(ckpt)
    assert legacy.memo_key_format is None
    assert legacy.memo is not None and legacy.memo.keys() == marked.memo.keys()
    for idx, (keys, _) in marked.memo.items():
        assert np.array_equal(legacy.memo[idx][0], keys)
    resumed = symmetric.refine(views, schedule=schedule, checkpoint_path=ckpt, resume=True)
    assert_identical(resumed, fresh)

    # symmetry off: the unmarked (poisoned) memo is imported, so it shows
    plain = str(tmp_path / "plain.ckpt")
    interrupted_run(chaos_problem, plain)
    _strip_memo_key_format(plain)
    warm = refiner.refine(views, schedule=schedule, checkpoint_path=plain, resume=True)
    assert [o.as_tuple() for o in warm.orientations] != [
        o.as_tuple() for o in baseline.orientations
    ]

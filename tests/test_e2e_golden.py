"""Golden-file end-to-end regression of the full refinement pipeline.

The committed ``tests/golden/refine_tiny.npz`` pins the exact bits a tiny
phantom refines to on the 1° → 0.1° schedule.  Every execution
configuration — the production batched kernel (with its memo) and the
reference oracle, serial and pooled schedulers — must reproduce those
bits, which nails down three properties at once: the kernels agree, the pool is bit-identical to the serial loop, and the
numerics have not drifted since the golden file was generated
(``tools/gen_golden.py`` regenerates it after an intentional change).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.density import asymmetric_phantom
from repro.imaging.simulate import simulate_views
from repro.refine.multires import MultiResolutionSchedule, RefinementLevel
from repro.refine.refiner import OrientationRefiner

pytestmark = pytest.mark.slow

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "refine_tiny.npz")


@pytest.fixture(scope="module")
def golden():
    data = np.load(GOLDEN_PATH)
    return data["orientations"], data["distances"], str(data["schedule_fingerprint"])


@pytest.fixture(scope="module")
def tiny_problem():
    # pinned problem — keep in sync with tools/gen_golden.py
    density = asymmetric_phantom(16, seed=11).normalized()
    views = simulate_views(density, 4, snr=10.0, initial_angle_error_deg=2.0, seed=11)
    schedule = MultiResolutionSchedule(
        (
            RefinementLevel(1.0, 1.0, half_steps=2),
            RefinementLevel(0.1, 0.1, half_steps=2),
        )
    )
    return density, views, schedule


def test_golden_schedule_fingerprint(tiny_problem, golden):
    """The golden file was generated for *this* schedule, not a stale one."""
    _, _, schedule = tiny_problem
    assert schedule.fingerprint() == golden[2]


@pytest.mark.parametrize("backend", ["serial", "process", "sim"])
def test_engine_backends_match_golden(tiny_problem, golden, backend):
    """All three execution backends, driven through the config'd engine,
    reproduce the pre-refactor golden bits."""
    from repro.engine import EngineConfig, ParallelConfig, RefinementEngine, ScheduleConfig

    density, views, schedule = tiny_problem
    parallel = {
        "serial": ParallelConfig(),
        "process": ParallelConfig(backend="process", n_workers=2),
        "sim": ParallelConfig(backend="sim", n_ranks=2),
    }[backend]
    config = EngineConfig(
        schedule=ScheduleConfig.from_schedule(schedule),
        parallel=parallel,
        max_slides=2,
    )
    run = RefinementEngine(config).run(views, density)
    assert run.backend == backend
    assert run.fingerprint == config.fingerprint()
    got = np.array([o.as_tuple() for o in run.orientations])
    want_orient, want_dist, _ = golden
    assert np.array_equal(got, want_orient), (
        f"engine backend={backend} drifted from the golden result; "
        "if the numerics change was intentional, regenerate with tools/gen_golden.py"
    )
    assert np.array_equal(np.asarray(run.distances), want_dist)


def test_pruned_engine_matches_golden(tiny_problem, golden):
    """Best-first pruning (top_k=None) is an exact optimization: the pruned
    batched engine must land on the pre-pruning golden bits while actually
    abandoning candidates (otherwise the bound never fired and this test
    proves nothing)."""
    from repro.engine import EngineConfig, RefinementEngine, ScheduleConfig

    density, views, schedule = tiny_problem
    config = EngineConfig.from_dict(
        {
            **EngineConfig(
                schedule=ScheduleConfig.from_schedule(schedule), max_slides=2
            ).to_dict(),
            "prune": {"enabled": True},
        }
    )
    run = RefinementEngine(config).run(views, density)
    got = np.array([o.as_tuple() for o in run.orientations])
    want_orient, want_dist, _ = golden
    assert np.array_equal(got, want_orient), (
        "pruned engine drifted from the golden result; the early-termination "
        "bound must be exact at top_k=None"
    )
    assert np.array_equal(np.asarray(run.distances), want_dist)
    assert run.perf is not None and run.perf.pruned > 0


@pytest.mark.parametrize("kernel", ["batched", "reference"])
@pytest.mark.parametrize("n_workers", [1, 2])
def test_refinement_matches_golden(tiny_problem, golden, kernel, n_workers):
    density, views, schedule = tiny_problem
    refiner = OrientationRefiner(density, max_slides=2, kernel=kernel, n_workers=n_workers)
    result = refiner.refine(views, schedule=schedule)
    got = np.array([o.as_tuple() for o in result.orientations])
    want_orient, want_dist, _ = golden
    assert np.array_equal(got, want_orient), (
        f"kernel={kernel} n_workers={n_workers} drifted from the golden result; "
        "if the numerics change was intentional, regenerate with tools/gen_golden.py"
    )
    assert np.array_equal(np.asarray(result.distances), want_dist)

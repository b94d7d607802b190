"""The parallel orientation-refinement driver (the full algorithm, steps a–o).

Runs the complete per-iteration pipeline SPMD over the simulated cluster:

* rank 0 (master) "reads" the map, the views and the initial orientations
  and deals them out (steps a.1–a.2, b, c) — charged at file + α–β cost;
* all ranks cooperate in the slab-decomposed 3D FFT and end with a
  replicated (oversampled) D̂ (steps a.3–a.6);
* each rank 2D-transforms and CTF-corrects its own views (steps d–e) and
  refines them through the multi-resolution schedule (steps f–l), with a
  barrier per level (step m);
* refined orientations are gathered and written by the master (step o).

The report carries both *simulated* per-step times (what Tables 1/2 show)
and the measured host wall time of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.align.memo import MemoStore
from repro.ctf.correct import phase_flip
from repro.ctf.model import CTFParams
from repro.density.map import DensityMap
from repro.faults.plan import FaultEvent, FaultLog, FaultPlan
from repro.fourier.transforms import centered_fft2, to_centered_order, to_standard_order
from repro.geometry.euler import Orientation
from repro.imaging.simulate import SimulatedViews
from repro.parallel.comm import SimComm, run_spmd
from repro.parallel.machine import MachineSpec, SP2_LIKE
from repro.parallel.master_io import (
    BYTES_PER_PIXEL,
    distribute_orientations,
    distribute_views,
    distribute_volume_slabs,
)
from repro.parallel.pfft import fft_flops_1d, parallel_fft3d
from repro.perf import PerfCounters
from repro.refine.multires import MultiResolutionSchedule
from repro.refine.refiner import (
    STEP_3D_DFT,
    STEP_FFT_ANALYSIS,
    STEP_READ_IMAGE,
    STEP_REFINEMENT,
    distance_computer_for,
)
from repro.parallel.viewsched import refine_level_serial
from repro.utils import StepTimer, Timer

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids cycles
    from repro.engine.config import EngineConfig

__all__ = ["ParallelRefinementReport", "parallel_refine", "FLOPS_PER_MATCH_SAMPLE"]

#: Simulated flop charge per in-band Fourier sample of one matching
#: operation: 8-corner trilinear gather (~2×8 madds on complex parts) plus
#: the squared-difference reduction.  Calibrated against the paper's tables
#: in :mod:`repro.parallel.perf_model`; the same constant is used here so
#: simulated mini-runs and the analytic model agree.
FLOPS_PER_MATCH_SAMPLE = 50.0


@dataclass
class ParallelRefinementReport:
    """Everything a simulated parallel refinement run produces."""

    orientations: list[Orientation]
    distances: np.ndarray
    simulated_step_seconds: dict[str, float]
    simulated_total_seconds: float
    measured_wall_seconds: float
    n_ranks: int
    per_rank_matches: list[int] = field(default_factory=list)
    per_level_matches: list[int] = field(default_factory=list)
    #: message-level faults observed on the simulated fabric (chaos runs)
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: batched-engine counters merged over all ranks (``None`` for the
    #: reference kernel); level wall times are real host seconds
    perf: PerfCounters | None = None

    def refinement_fraction(self) -> float:
        """Fraction of simulated time spent matching (the paper's 99%)."""
        total = sum(self.simulated_step_seconds.values())
        if total == 0:
            return 0.0
        return self.simulated_step_seconds.get(STEP_REFINEMENT, 0.0) / total


def parallel_refine(
    views: SimulatedViews,
    density: DensityMap,
    n_ranks: int = 4,
    schedule: MultiResolutionSchedule | None = None,
    machine: MachineSpec = SP2_LIKE,
    r_max: float | None = None,
    pad_factor: int = 2,
    refine_centers: bool = True,
    orientation_file: str | None = None,
    fault_plan: FaultPlan | None = None,
    kernel: str = "batched",
    config: "EngineConfig | None" = None,
) -> ParallelRefinementReport:
    """Run one full refinement iteration on the simulated cluster.

    ``fault_plan`` injects deterministic message drops/delays into the
    simulated fabric (see :mod:`repro.parallel.comm`); the observed events
    come back in :attr:`ParallelRefinementReport.fault_events`.  Injected
    fabric faults change simulated *time* only — refined orientations stay
    bit-identical to the fault-free run.

    ``kernel`` selects the matching implementation per rank (both are
    bit-identical); ``"batched"`` (default) additionally memoizes repeated
    candidates per view and fills :attr:`ParallelRefinementReport.perf`.

    ``config`` supplies everything as one validated
    :class:`~repro.engine.config.EngineConfig` (``parallel.n_ranks``,
    ``schedule``, ``kernel``, ``memo``, ``max_slides``, ``refine_centers``,
    ``pad_factor``, ``ctf_correction`` and the distance settings
    ``r_max``/``weighting``/``normalized_distance``, honoured exactly as
    the serial refiner honours them); the individual kwargs above are the
    deprecation shim and are ignored when it is given.  Both spellings run
    the identical simulation.
    """
    # Imported lazily: repro.engine must stay importable before this
    # package (its env module is read at kernel import time).
    from repro.engine.config import EngineConfig, KernelConfig, ParallelConfig, ScheduleConfig

    if config is None:
        # deprecation shim: scattered kwargs → one validated config
        sched_cfg = (
            ScheduleConfig() if schedule is None else ScheduleConfig.from_schedule(schedule)
        )
        config = EngineConfig(
            kernel=KernelConfig(kernel=kernel),
            schedule=sched_cfg,
            parallel=ParallelConfig(backend="sim", n_ranks=int(n_ranks)),
            r_max=None if r_max is None else float(r_max),
            refine_centers=bool(refine_centers),
            pad_factor=int(pad_factor),
        )
    kernel = config.kernel.kernel
    n_ranks = config.parallel.n_ranks
    sched = config.schedule.to_schedule()
    size = density.size
    pad_factor = config.pad_factor
    refine_centers = config.refine_centers
    m = len(views)
    if n_ranks > m:
        raise ValueError(f"more ranks ({n_ranks}) than views ({m}); shrink the cluster")

    # The master distributes the *padded* map so the cooperative FFT yields
    # the same oversampled D̂ the serial refiner uses.
    big = pad_factor * size
    padded = np.zeros((big, big, big))
    off = (big - size) // 2
    padded[off : off + size, off : off + size, off : off + size] = density.data
    # pre-shift so the distributed unshifted FFT produces the centered
    # convention after one final re-centering on each rank
    padded = to_standard_order(padded)

    wall = Timer().start()

    def worker(comm: SimComm):
        # steps a.1–a.6 — cooperative 3D DFT of the (padded) map
        slab = distribute_volume_slabs(comm, padded if comm.rank == 0 else None)
        full = parallel_fft3d(comm, slab, big)
        volume_ft = to_centered_order(full)

        # steps b–c — master deals views and initial orientations
        local_images, local_idx = distribute_views(
            comm, views.images if comm.rank == 0 else None
        )
        local_orients = distribute_orientations(
            comm, views.initial_orientations if comm.rank == 0 else None
        )
        local_ctf: list[CTFParams] | None = None
        if views.ctf_params is not None:
            local_ctf = [views.ctf_params[i] for i in local_idx]

        # step d — 2D DFT of each local view
        fts = centered_fft2(local_images)
        comm.account_flops(
            2 * local_images.shape[0] * size * fft_flops_1d(size), STEP_FFT_ANALYSIS
        )
        dc = distance_computer_for(config, size)
        # step e — CTF correction (one pass over each transform) plus the
        # matching |CTF| modulation imposed on cuts during the search
        modulations: list[np.ndarray | None] = [None] * local_images.shape[0]
        if local_ctf is not None and config.ctf_correction == "phase_flip":
            from repro.ctf.model import ctf_2d

            cache: dict[CTFParams, np.ndarray] = {}
            for i, p in enumerate(local_ctf):
                fts[i] = phase_flip(fts[i], p, views.apix)
                if p not in cache:
                    cache[p] = dc.gather_modulation(np.abs(ctf_2d(p, size, views.apix)))
                modulations[i] = cache[p]
            comm.account_flops(local_images.shape[0] * size * size * 2, STEP_FFT_ANALYSIS)
        orients = list(local_orients)
        dists = np.full(len(orients), np.inf)
        level_matches: list[int] = []
        total_matches = 0
        batched = kernel == "batched"
        memo_store = (
            MemoStore(config.memo.capacity) if batched and config.memo.enabled else None
        )
        counters = PerfCounters() if batched else None
        for level in sched:
            n_matches_level = 0
            candidates_before = 0 if counters is None else counters.candidates
            level_timer = Timer().start()
            # Same per-view kernel as the serial refiner and the process
            # pool — one shared loop, three drivers, identical numbers.
            for res in refine_level_serial(
                volume_ft,
                fts,
                orients,
                modulations,
                level,
                distance_computer=dc,
                refine_centers=refine_centers,
                kernel=kernel,
                interpolation=config.kernel.interpolation,
                max_slides=config.max_slides,
                memo_store=memo_store,
                view_indices=[int(i) for i in local_idx],
                counters=counters,
            ):
                orients[res.index] = res.orientation
                dists[res.index] = res.distance
                n_matches_level += res.n_matches + res.n_center_evals
            if counters is not None:
                counters.record_level(
                    f"{level.angular_step_deg:g}deg",
                    level_timer.stop(),
                    counters.candidates - candidates_before,
                )
            comm.account_flops(
                n_matches_level * FLOPS_PER_MATCH_SAMPLE * dc.n_samples, STEP_REFINEMENT
            )
            total_matches += n_matches_level
            level_matches.append(n_matches_level)
            comm.barrier()  # step m — wait for all nodes at this resolution

        # step o — gather refined orientations at the master
        gathered = comm.gather((local_idx, orients, dists), root=0)
        result = None
        if comm.rank == 0:
            all_orients: list[Orientation | None] = [None] * m
            all_dists = np.empty(m)
            assert gathered is not None
            for idx, ors, ds in gathered:
                for i, o, d in zip(idx, ors, ds):
                    all_orients[int(i)] = o
                    all_dists[int(i)] = d
            comm.account_io(m * 64, STEP_REFINEMENT)
            result = (all_orients, all_dists)
        comm.barrier()
        return result, comm.timer, total_matches, level_matches, counters

    fault_log = FaultLog()
    results, clock = run_spmd(n_ranks, worker, machine, fault_plan=fault_plan, fault_log=fault_log)
    wall.stop()

    master_result = results[0][0]
    assert master_result is not None
    orientations, distances = master_result
    # simulated per-step time = max over ranks (parallel sections overlap)
    step_seconds: dict[str, float] = {}
    for _, timer, _, _, _ in results:
        for name, seconds in timer.totals.items():
            step_seconds[name] = max(step_seconds.get(name, 0.0), seconds)
    per_rank_matches = [r[2] for r in results]
    n_levels = len(results[0][3])
    per_level = [sum(r[3][i] for r in results) for i in range(n_levels)]
    merged_perf: PerfCounters | None = None
    if kernel == "batched":
        merged_perf = PerfCounters()
        for r in results:
            if r[4] is not None:
                merged_perf.merge(r[4])
    if orientation_file is not None:
        from repro.refine.orientfile import write_orientation_file

        write_orientation_file(orientation_file, orientations, scores=distances)
    return ParallelRefinementReport(
        orientations=orientations,
        distances=distances,
        simulated_step_seconds=step_seconds,
        simulated_total_seconds=clock.elapsed(),
        measured_wall_seconds=wall.elapsed,
        n_ranks=n_ranks,
        per_rank_matches=per_rank_matches,
        per_level_matches=per_level,
        fault_events=list(fault_log.events),
        perf=merged_perf,
    )

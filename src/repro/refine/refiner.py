"""The serial orientation-refinement driver (steps a–o, single process).

:class:`OrientationRefiner` runs the complete per-iteration pipeline for a
whole view set: build D̂ once (step a), transform and CTF-correct each view
(steps d–e), then for each level of the multi-resolution schedule run the
sliding-window angular search and the center box search per view
(steps f–l), synchronizing between levels (steps m–n) and returning the
refined orientation set (step o).

Step times are accumulated under the same names as Tables 1 and 2 so the
serial and simulated-parallel drivers print identical table layouts.  The
distributed-memory version lives in :mod:`repro.parallel.prefine` and
reuses the same per-view kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.align.distance import DistanceComputer, radius_weights
from repro.align.memo import MemoStore
from repro.arraytypes import Array
from repro.ctf.correct import phase_flip
from repro.ctf.model import CTFParams
from repro.density.map import DensityMap
from repro.engine.config import (
    ConfigError,
    EngineConfig,
    KernelConfig,
    MemoConfig,
    ParallelConfig,
)
from repro.fourier.transforms import centered_fft2
from repro.geometry.euler import Orientation
from repro.imaging.simulate import SimulatedViews
from repro.perf import PerfCounters
from repro.refine.multires import (
    MultiResolutionSchedule,
    RefinementLevel,
    default_schedule,
    split_below,
)
from repro.refine.prune import PruneParams
from repro.refine.stats import RefinementStats
from repro.utils import StepTimer, Timer

__all__ = ["OrientationRefiner", "RefinementResult"]

# Canonical step names, matching the row labels of Tables 1 and 2.
STEP_3D_DFT = "3D DFT"
STEP_READ_IMAGE = "Read image"
STEP_FFT_ANALYSIS = "FFT analysis"
STEP_REFINEMENT = "Orientation refinement"
# Not a Table 1/2 row: symmetry handling postdates the paper's timings.
STEP_SYMMETRY = "Symmetry detection"


def distance_computer_for(config: EngineConfig, size: int) -> DistanceComputer:
    """The matching distance ``config`` asks for at view size ``size``.

    Band ``r ≤ r_max`` (``size // 2`` when unset), ``weighting`` and
    ``normalized_distance`` — shared by every driver so the serial, pooled
    and simulated-cluster runs score candidates identically.
    """
    r_max = float(size // 2 if config.r_max is None else config.r_max)
    weights = None if config.weighting == "none" else radius_weights(size, config.weighting, r_max)
    return DistanceComputer(
        size, r_max=r_max, weights=weights, normalized=config.normalized_distance
    )


@dataclass
class RefinementResult:
    """Everything one refinement iteration produces.

    Attributes
    ----------
    orientations:
        Refined orientation (with center) per view.
    distances:
        Final minimum distance per view.
    stats:
        Operation counters per level.
    timer:
        Wall-clock per named step (Tables 1/2 rows).
    per_level_orientations:
        Snapshot of the orientations after each level (for convergence
        studies).
    perf:
        Batched-engine perf counters (per-level wall time, gathers vs.
        memo hits, candidates/second); ``None`` for the other kernels.
    symmetry_group:
        Schoenflies symbol of the point group the search was restricted
        by — configured (``fixed:<group>``) or detected.  ``None`` when
        symmetry handling was off; ``"C1"`` when detection ran and found
        nothing (no restriction was applied).
    symmetry_order:
        Order |G| of the applied restriction (1 when none was applied).
    """

    orientations: list[Orientation]
    distances: Array
    stats: RefinementStats
    timer: StepTimer
    per_level_orientations: list[list[Orientation]] = field(default_factory=list)
    perf: PerfCounters | None = None
    symmetry_group: str | None = None
    symmetry_order: int = 1


class OrientationRefiner:
    """Serial refinement engine bound to one current density map.

    Parameters
    ----------
    density:
        The current 3D electron-density map ``D``.
    r_max:
        Fourier radius cutoff ``r_map`` (defaults to the full band).
    weighting:
        Radial weighting kind for the distance (``"none"``, ``"radius"``,
        ``"radius2"``).
    interpolation:
        Cut interpolation, ``"trilinear"`` or ``"nearest"``.
    ctf_correction:
        ``"phase_flip"`` (default), ``"none"`` — how step (e) corrects view
        transforms when CTF parameters are provided.
    pad_factor:
        Oversampling of D̂ (zero-padding factor).  2 (default) keeps the
        trilinear slice error well below the signal differences the search
        must resolve; 1 reproduces the raw-grid behaviour for ablations.
    kernel:
        ``"batched"`` (default) evaluates whole candidate windows through
        one stacked in-band kernel (:mod:`repro.align.fused`) with
        per-view orientation memoization; ``"reference"`` is the original
        slice-then-distance path kept as the test oracle.  Both produce
        numerically identical results.
    memo:
        Enable the orientation memo cache (batched kernel only): window
        re-centers and level handoffs skip re-scoring candidates already
        seen for a view at the same center shift.  Memoized values are
        exact previous results, so this cannot change any output.
    n_workers:
        Process count for the view fan-out (``1`` = serial, the default).
        Workers share one D̂ replica via ``multiprocessing.shared_memory``
        and return bit-identical results to the serial loop.
    config:
        A complete :class:`~repro.engine.config.EngineConfig`.  When
        given, it is the single source of truth and the individual
        kwargs above are ignored; the kwargs form is a thin shim kept
        for existing callers — it builds the equivalent config and
        behaves identically.
    """

    def __init__(
        self,
        density: DensityMap,
        r_max: float | None = None,
        weighting: str = "none",
        interpolation: str = "trilinear",
        ctf_correction: str = "phase_flip",
        max_slides: int = 8,
        pad_factor: int = 2,
        normalized_distance: bool = False,
        kernel: str = "batched",
        memo: bool = True,
        n_workers: int = 1,
        config: EngineConfig | None = None,
    ) -> None:
        if config is None:
            # deprecation shim: scattered kwargs → one validated config
            # (ConfigError subclasses ValueError, so legacy callers that
            # catch ValueError on bad options keep working)
            config = EngineConfig(
                kernel=KernelConfig(kernel=kernel, interpolation=interpolation),
                parallel=ParallelConfig(
                    backend="serial" if int(n_workers) == 1 else "process",
                    n_workers=int(n_workers),
                ),
                memo=MemoConfig(enabled=bool(memo)),
                r_max=None if r_max is None else float(r_max),
                max_slides=int(max_slides),
                refine_centers=True,
                pad_factor=int(pad_factor),
                weighting=weighting,
                ctf_correction=ctf_correction,
                normalized_distance=bool(normalized_distance),
            )
        self.config = config
        self.density = density
        self.size = density.size
        self.distance_computer = distance_computer_for(config, self.size)
        self.r_max = self.distance_computer.r_max
        self.interpolation = config.kernel.interpolation
        self.ctf_correction = config.ctf_correction
        self.kernel = config.kernel.kernel
        self.memo = config.memo.enabled
        self.n_workers = config.parallel.n_workers
        self.max_slides = config.max_slides
        self.pad_factor = config.pad_factor
        self._volume_ft: Array | None = None
        # |CTF| band modulations are pure functions of (params, apix) for a
        # fixed distance computer; cache them across refine() calls so
        # repeated iterations over the same micrographs rebuild nothing.
        self._modulation_cache: dict[tuple[CTFParams, float], Array] = {}

    def _run_config(self, n_workers: int | None) -> EngineConfig:
        """The effective config for one ``refine()`` call.

        Applies the per-call worker override and keeps the backend kind
        consistent with it; the sim backend cannot drive the
        level-granular loop, so asking this refiner to run one is an
        error (use :class:`~repro.engine.core.RefinementEngine`).
        """
        from dataclasses import replace

        cfg = self.config
        if cfg.parallel.backend == "sim":
            raise ConfigError(
                "OrientationRefiner runs the serial/process backends; "
                "route parallel.backend = 'sim' configs through "
                "RefinementEngine.run() instead"
            )
        if n_workers is not None and int(n_workers) != cfg.parallel.n_workers:
            workers = int(n_workers)
            cfg = replace(
                cfg,
                parallel=replace(
                    cfg.parallel,
                    backend="serial" if workers == 1 else "process",
                    n_workers=workers,
                ),
            )
        return cfg

    # -- step a -------------------------------------------------------------
    def volume_ft(self, timer: StepTimer | None = None) -> Array:
        """D̂ = DFT(D) (oversampled), built once and cached (step a)."""
        if self._volume_ft is None:
            t = timer or StepTimer()
            with t.step(STEP_3D_DFT):
                self._volume_ft = self.density.fourier_oversampled(self.pad_factor)
        return self._volume_ft

    # -- steps d–e ----------------------------------------------------------
    def prepare_views(
        self,
        images: Array,
        ctf_params: list[CTFParams] | None,
        apix: float,
        timer: StepTimer | None = None,
    ) -> tuple[Array, list[Array | None]]:
        """2D DFT + CTF correction of every view (steps d and e).

        Returns ``(transforms, cut_modulations)``.  With phase flipping the
        view keeps |CTF|-attenuated amplitudes, so the matching loop must
        impose the same |CTF| on every calculated cut — the returned
        per-view modulation vectors (pre-gathered onto the distance band)
        do exactly that.  Views from the same micrograph share a CTF, so
        modulations are cached per parameter set.
        """
        t = timer or StepTimer()
        with t.step(STEP_FFT_ANALYSIS):
            fts = centered_fft2(np.asarray(images, dtype=float))
        modulations: list[Array | None] = [None] * fts.shape[0]
        if ctf_params is not None and self.ctf_correction == "phase_flip":
            from repro.ctf.model import ctf_2d

            with t.step(STEP_FFT_ANALYSIS):
                for i, p in enumerate(ctf_params):
                    fts[i] = phase_flip(fts[i], p, apix)
                    key = (p, float(apix))
                    if key not in self._modulation_cache:
                        self._modulation_cache[key] = self.distance_computer.gather_modulation(
                            np.abs(ctf_2d(p, self.size, apix))
                        )
                    modulations[i] = self._modulation_cache[key]
        return fts, modulations

    # -- the full iteration ---------------------------------------------------
    def refine(
        self,
        views: SimulatedViews | Array,
        initial_orientations: list[Orientation] | None = None,
        schedule: MultiResolutionSchedule | None = None,
        ctf_params: list[CTFParams] | None = None,
        apix: float | None = None,
        refine_centers: bool = True,
        keep_level_snapshots: bool = False,
        n_workers: int | None = None,
        scheduler=None,
        checkpoint_path: str | None = None,
        resume: bool = False,
        backend=None,
        on_final_result=None,
    ) -> RefinementResult:
        """Run one full refinement iteration over a view set.

        ``on_final_result`` is the streaming hook of the outer
        refine→reconstruct loop (DESIGN.md §14): a master-side callback
        fired once per view with that view's *final* per-view result —
        attached only to the last stage (the final grid level, or the
        polish when it is enabled), since earlier levels' orientations are
        still provisional.  It receives
        :class:`~repro.parallel.viewsched.ViewLevelResult` or
        :class:`~repro.parallel.viewsched.ViewPolishResult` objects with
        global view indices, in chunk-completion order.

        ``views`` may be a :class:`SimulatedViews` (orientations/CTF taken
        from it unless overridden) or a raw ``(m, l, l)`` image stack with
        explicit ``initial_orientations``.

        ``backend`` injects a pre-built
        :class:`~repro.engine.backends.ExecutionBackend` for the level
        fan-out (the caller owns its lifetime); by default the backend is
        built from the refiner's config.  ``n_workers`` overrides the
        config's worker count for this call; ``scheduler`` injects a
        pre-built (possibly shared)
        :class:`~repro.parallel.viewsched.ViewScheduler` instead — the
        caller then owns its lifetime.  All fan-out strategies are
        bit-identical.

        ``checkpoint_path`` enables level-granular fault tolerance: after
        every completed level the per-view orientations, distances and
        counters are written atomically (exact float64 round-trip) to that
        path.  With ``resume=True`` a usable checkpoint — same schedule
        fingerprint, same view count — seeds the run, skipping the levels
        it already covers; the resumed result is bit-identical to an
        uninterrupted run.  A missing or mismatched checkpoint is ignored
        (the run simply starts from scratch).  Level snapshots
        (``keep_level_snapshots``) cover only the levels this call
        actually executed.
        """
        if isinstance(views, SimulatedViews):
            images = views.images
            init = initial_orientations or views.initial_orientations
            ctf = ctf_params if ctf_params is not None else views.ctf_params
            pix = apix if apix is not None else views.apix
        else:
            images = np.asarray(views, dtype=float)
            if initial_orientations is None:
                raise ValueError("raw image stacks need explicit initial orientations")
            init = initial_orientations
            ctf = ctf_params
            pix = apix if apix is not None else self.density.apix
        if images.shape[1] != self.size:
            raise ValueError(
                f"view size {images.shape[1]} does not match map size {self.size}"
            )
        if len(init) != images.shape[0]:
            raise ValueError("need one initial orientation per view")
        sched = schedule or default_schedule()

        if resume and checkpoint_path is None:
            raise ValueError("resume=True requires a checkpoint_path")
        # Pruning/polish wiring (DESIGN.md §11).  The polish replaces the
        # finest grid levels, so the checkpointed schedule fingerprint below
        # covers only the *kept* levels; the polish itself checkpoints as
        # one extra stage.  Basin state (rank > 1) lives across stage
        # boundaries and rides the checkpoint header's ``basins`` tag.
        prune_cfg = self.config.prune
        polish_cfg = self.config.polish
        replaced_tail: tuple[RefinementLevel, ...] = ()
        if polish_cfg.enabled:
            sched, replaced_tail = split_below(sched, polish_cfg.replace_below_deg)
        prune_params: PruneParams | None = None
        if prune_cfg.enabled:
            top_k = prune_cfg.top_k or 1
            rank = max(top_k, polish_cfg.n_best if polish_cfg.enabled else 1)
            prune_params = PruneParams(
                rank=rank,
                top_k=top_k,
                margin=prune_cfg.margin,
                shell_groups=prune_cfg.shell_groups,
                seed_chunk=prune_cfg.seed_chunk,
                chunk=prune_cfg.chunk,
            )
        track_basins = prune_params is not None and prune_params.rank > 1
        n_stages = len(sched) + (1 if polish_cfg.enabled else 0)
        stats = RefinementStats(n_views=images.shape[0])
        orientations = list(init)
        distances = np.full(images.shape[0], np.inf)
        batched = self.kernel == "batched"
        memo_store = (
            MemoStore(capacity=self.config.memo.capacity)
            if (batched and self.memo)
            else None
        )
        counters = PerfCounters() if batched else None
        start_level = 0
        fingerprint = ""
        engine_fingerprint = ""
        restored_basins: list[tuple[Orientation, ...] | None] | None = None
        if checkpoint_path is not None:
            # Imported lazily: repro.faults.checkpoint reads/writes the
            # orientation-file format, which lives beside this module.
            from dataclasses import replace as _replace

            from repro.faults.checkpoint import (
                MEMO_KEY_FORMAT,
                RefinementCheckpoint,
                save_checkpoint,
                try_load_checkpoint,
            )

            fingerprint = sched.fingerprint()
            # The engine fingerprint covers the *effective* run config:
            # the schedule actually refined plus kernel/memo/matching
            # settings — the fields a resume must not silently change.
            engine_fingerprint = _replace(
                self.config.with_schedule(sched),
                refine_centers=bool(refine_centers),
            ).fingerprint()
            if resume:
                found = try_load_checkpoint(
                    checkpoint_path,
                    fingerprint,
                    images.shape[0],
                    engine_fingerprint=engine_fingerprint,
                )
                if found is not None:
                    orientations = list(found.orientations)
                    distances = np.asarray(found.distances, dtype=float).copy()
                    stats = found.stats
                    start_level = found.levels_done
                    if memo_store is not None and found.memo is not None and (
                        found.memo_key_format == MEMO_KEY_FORMAT
                        or not self.config.symmetry.enabled
                    ):
                        # warm memo from the killed run: resumed levels
                        # skip the gathers the dead run already paid for.
                        # An unmarked memo from a symmetric run holds
                        # canonical keys, not exact ones: start it empty.
                        memo_store.import_state(found.memo)
                    if track_basins and found.basins is not None:
                        # multi-basin state rides the checkpoint header:
                        # the resumed level re-seeds from the same basin
                        # centers the dead run would have used
                        restored_basins = list(found.basins)
        if start_level >= n_stages:
            # everything already done: no need to rebuild D̂ or transforms
            return RefinementResult(
                orientations=orientations,
                distances=distances,
                stats=stats,
                timer=StepTimer(),
                per_level_orientations=[],
                perf=counters,
            )

        timer = StepTimer()
        volume_ft = self.volume_ft(timer)
        with timer.step(STEP_READ_IMAGE):
            images = np.ascontiguousarray(images, dtype=float)
        fts, modulations = self.prepare_views(images, ctf, pix, timer)

        snapshots: list[list[Orientation]] = []
        # Imported lazily: repro.engine.backends pulls in repro.parallel,
        # which imports this module at package import time.
        from repro.engine.backends import ProcessBackend, make_backend

        own_backend = backend is None
        if backend is None:
            if scheduler is not None:
                # legacy injection contract: adopt the caller's pool,
                # never close it (ProcessBackend.close is a no-op then)
                backend = ProcessBackend(scheduler=scheduler)
            else:
                backend = make_backend(self._run_config(n_workers))
        # Symmetry restriction (DESIGN.md §13): resolved once per iteration
        # against the *current* map — a fixed group by name, or a detection
        # run fanned out through the backend.  The restriction then rides
        # every level below, where it canonicalizes each view's seeds.
        restriction = None
        symmetry_group: str | None = None
        if self.config.symmetry.enabled:
            from repro.refine.restrict import resolve_restriction

            with timer.step(STEP_SYMMETRY):
                restriction, symmetry_group = resolve_restriction(
                    self.config.symmetry, self.density, backend=backend
                )
        basin_state: list[tuple[Orientation, ...] | None] | None = restored_basins
        final_level = len(sched) - 1
        try:
            for li, level in enumerate(sched):
                if li < start_level:
                    continue
                n_matches = n_center = n_wslides = n_cslides = 0
                candidates_before = 0 if counters is None else counters.candidates
                pruned_before = 0 if counters is None else counters.pruned
                evaluated_before = 0 if counters is None else counters.evaluated
                level_timer = Timer().start()
                with timer.step(STEP_REFINEMENT):
                    results = backend.run_level(
                        volume_ft,
                        fts,
                        orientations,
                        modulations,
                        level,
                        distance_computer=self.distance_computer,
                        kernel=self.kernel,
                        interpolation=self.interpolation,
                        max_slides=self.max_slides,
                        refine_centers=refine_centers,
                        memo_store=memo_store,
                        counters=counters,
                        prune=prune_params,
                        seed_basins=basin_state,
                        symmetry=restriction,
                        on_result=(
                            on_final_result
                            if li == final_level and not polish_cfg.enabled
                            else None
                        ),
                    )
                    if track_basins:
                        basin_state = [None] * len(orientations)
                    for res in results:
                        orientations[res.index] = res.orientation
                        distances[res.index] = res.distance
                        if track_basins and basin_state is not None:
                            basin_state[res.index] = res.basins or None
                        n_matches += res.n_matches
                        n_center += res.n_center_evals
                        n_wslides += int(res.slid_window)
                        n_cslides += int(res.slid_center)
                if counters is not None:
                    counters.record_level(
                        f"{level.angular_step_deg:g}deg",
                        level_timer.stop(),
                        counters.candidates - candidates_before,
                        pruned=counters.pruned - pruned_before,
                        evaluated=counters.evaluated - evaluated_before,
                    )
                stats.record_level(
                    level.angular_step_deg, n_matches, n_center, n_wslides, n_cslides
                )
                if keep_level_snapshots:
                    snapshots.append(list(orientations))
                if checkpoint_path is not None:
                    save_checkpoint(
                        checkpoint_path,
                        RefinementCheckpoint(
                            schedule_fingerprint=fingerprint,
                            levels_done=li + 1,
                            orientations=list(orientations),
                            distances=distances.copy(),
                            stats=stats,
                            memo=None if memo_store is None else memo_store.export_state(),
                            engine_fingerprint=engine_fingerprint,
                            basins=None if basin_state is None else list(basin_state),
                        ),
                    )
            if polish_cfg.enabled:
                # The continuous polish replacing the finest grid levels:
                # fanned out through the backend like every grid level
                # (views are independent; a handful of deterministic LM
                # iterations each), monotone per start, best start wins.
                level_timer = Timer().start()
                with timer.step(STEP_REFINEMENT):
                    polish_results = backend.run_polish(
                        volume_ft,
                        fts,
                        orientations,
                        distances,
                        modulations,
                        distance_computer=self.distance_computer,
                        interpolation=self.interpolation,
                        max_iters=polish_cfg.max_iters,
                        tol=polish_cfg.tol,
                        damping=polish_cfg.damping,
                        n_best=polish_cfg.n_best,
                        seed_basins=basin_state,
                        memo_store=memo_store,
                        counters=counters,
                        on_result=on_final_result,
                    )
                    for pres in polish_results:
                        orientations[pres.index] = pres.orientation
                        distances[pres.index] = pres.distance
                if counters is not None:
                    counters.record_level("polish", level_timer.stop(), 0)
                if keep_level_snapshots:
                    snapshots.append(list(orientations))
                if checkpoint_path is not None:
                    save_checkpoint(
                        checkpoint_path,
                        RefinementCheckpoint(
                            schedule_fingerprint=fingerprint,
                            levels_done=len(sched) + 1,
                            orientations=list(orientations),
                            distances=distances.copy(),
                            stats=stats,
                            memo=None if memo_store is None else memo_store.export_state(),
                            engine_fingerprint=engine_fingerprint,
                            basins=None if basin_state is None else list(basin_state),
                        ),
                    )
        finally:
            if own_backend:
                backend.close()
        return RefinementResult(
            orientations=orientations,
            distances=distances,
            stats=stats,
            timer=timer,
            per_level_orientations=snapshots,
            perf=counters,
            symmetry_group=symmetry_group,
            symmetry_order=1 if restriction is None else restriction.order,
        )

"""Pluggable execution backends for the refinement engine.

One refinement level is the unit of fan-out (the paper synchronizes all
nodes at every resolution change, step m), so the backend protocol is
*level-granular*: :meth:`ExecutionBackend.run_level` takes the shared D̂,
the view transforms and the current orientations and returns per-view
results for exactly one :class:`~repro.refine.multires.RefinementLevel`.
The driver loop (:class:`~repro.refine.refiner.OrientationRefiner`) no
longer branches on worker counts — it asks :func:`make_backend` for a
backend and calls the same two methods whatever the execution strategy:

* :class:`SerialBackend` — everything inline in this process;
* :class:`ProcessBackend` — the shared-memory process pool of
  :class:`~repro.parallel.viewsched.ViewScheduler` (retry/timeout/restart
  fault tolerance included);
* :class:`SimBackend` — the simulated distributed-memory cluster of
  :func:`~repro.parallel.prefine.parallel_refine`.  SPMD ranks own their
  views for the *whole* schedule (the fabric is part of the simulation),
  so this backend does not decompose into levels; it runs complete
  refinements via :meth:`SimBackend.run_refinement` and ``run_level``
  raises.  :class:`~repro.engine.core.RefinementEngine` hides the split.

Every backend is bit-identical on orientations and distances: views are
independent, each path executes the same per-view kernel, and all
recovery paths re-execute it unchanged.  Backends never read the
environment or re-validate strings — everything they need arrives in the
:class:`~repro.engine.config.EngineConfig` they were built from.

All ``repro.*`` imports here are lazy: the kernel packages import
:mod:`repro.engine.env` at import time, so this package must finish
importing before any of them is pulled in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.engine.config import ConfigError, EngineConfig

if TYPE_CHECKING:  # pragma: no cover - type-only imports, avoids cycles
    from repro.align.distance import DistanceComputer
    from repro.align.memo import MemoStore
    from repro.arraytypes import Array
    from repro.density.map import DensityMap
    from repro.faults.plan import FaultPlan
    from repro.geometry.euler import Orientation
    from repro.imaging.simulate import SimulatedViews
    from repro.parallel.prefine import ParallelRefinementReport
    from repro.parallel.viewsched import ViewLevelResult, ViewPolishResult, ViewScheduler
    from repro.perf import PerfCounters
    from repro.refine.multires import RefinementLevel
    from repro.refine.prune import PruneParams
    from repro.refine.restrict import SymmetryRestriction

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SimBackend",
    "make_backend",
]


class ExecutionBackend:
    """How per-view work is fanned out; never *what* is computed.

    Subclasses implement :meth:`run_level` (steps f–l for every view at
    one resolution, results ordered by view index) and :meth:`close`
    (release pools/shared memory; idempotent).  Backends are context
    managers so drivers can scope their lifetime with ``with``.
    """

    #: short name used in logs, dry-run output and reports
    name: str = "abstract"

    # The abstract signature is a fork point only in its overriders, which
    # all forward kernel= into the distance_band family; the base body
    # cannot compute anything to diverge.
    def run_level(  # repro-lint: allow[RL006]
        self,
        volume_ft: "Array",
        view_fts: "Array",
        orientations: Sequence["Orientation"],
        modulations: Sequence["Array | None"] | None,
        level: "RefinementLevel",
        *,
        distance_computer: "DistanceComputer | None" = None,
        kernel: str = "batched",
        interpolation: str = "trilinear",
        max_slides: int = 8,
        refine_centers: bool = True,
        memo_store: "MemoStore | None" = None,
        counters: "PerfCounters | None" = None,
        prune: "PruneParams | None" = None,
        seed_basins: Sequence["tuple[Orientation, ...] | None"] | None = None,
        symmetry: "SymmetryRestriction | None" = None,
        on_result: "Callable[[ViewLevelResult], None] | None" = None,
    ) -> list["ViewLevelResult"]:
        raise NotImplementedError

    def run_polish(
        self,
        volume_ft: "Array",
        view_fts: "Array",
        orientations: Sequence["Orientation"],
        distances: "Sequence[float] | Array",
        modulations: Sequence["Array | None"] | None,
        *,
        distance_computer: "DistanceComputer | None" = None,
        interpolation: str = "trilinear",
        max_iters: int = 30,
        tol: float = 1e-8,
        damping: float = 1e-3,
        n_best: int = 1,
        seed_basins: Sequence["tuple[Orientation, ...] | None"] | None = None,
        memo_store: "MemoStore | None" = None,
        counters: "PerfCounters | None" = None,
        on_result: "Callable[[ViewPolishResult], None] | None" = None,
    ) -> list["ViewPolishResult"]:
        """The continuous polish stage for every view (bit-identical on all
        backends; see :func:`~repro.parallel.viewsched.polish_level_serial`)."""
        raise NotImplementedError

    def run_tasks(self, fn: Any, payloads: Sequence[Any]) -> list[Any]:
        """Apply a picklable function to independent payloads, in order.

        The generic fan-out for work that carries its own data (no shared
        D̂ replica) — e.g. the symmetry detector's axis×order scoring
        sweep.  ``fn`` must be deterministic, so results are independent
        of the execution strategy.
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any pools or shared resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run every view inline in the calling process.

    Delegates straight to
    :func:`~repro.parallel.viewsched.refine_level_serial` — the same
    per-view loop the pool workers and the simulated ranks execute, so
    "serial" is the ground truth the other backends are measured against.
    """

    name = "serial"

    def run_level(
        self,
        volume_ft: "Array",
        view_fts: "Array",
        orientations: Sequence["Orientation"],
        modulations: Sequence["Array | None"] | None,
        level: "RefinementLevel",
        *,
        distance_computer: "DistanceComputer | None" = None,
        kernel: str = "batched",
        interpolation: str = "trilinear",
        max_slides: int = 8,
        refine_centers: bool = True,
        memo_store: "MemoStore | None" = None,
        counters: "PerfCounters | None" = None,
        prune: "PruneParams | None" = None,
        seed_basins: Sequence["tuple[Orientation, ...] | None"] | None = None,
        symmetry: "SymmetryRestriction | None" = None,
        on_result: "Callable[[ViewLevelResult], None] | None" = None,
    ) -> list["ViewLevelResult"]:
        from repro.parallel.viewsched import refine_level_serial

        return refine_level_serial(
            volume_ft,
            view_fts,
            orientations,
            modulations,
            level,
            distance_computer=distance_computer,
            kernel=kernel,
            interpolation=interpolation,
            max_slides=max_slides,
            refine_centers=refine_centers,
            memo_store=memo_store,
            counters=counters,
            prune=prune,
            seed_basins=seed_basins,
            symmetry=symmetry,
            on_result=on_result,
        )

    def run_polish(
        self,
        volume_ft: "Array",
        view_fts: "Array",
        orientations: Sequence["Orientation"],
        distances: "Sequence[float] | Array",
        modulations: Sequence["Array | None"] | None,
        *,
        distance_computer: "DistanceComputer | None" = None,
        interpolation: str = "trilinear",
        max_iters: int = 30,
        tol: float = 1e-8,
        damping: float = 1e-3,
        n_best: int = 1,
        seed_basins: Sequence["tuple[Orientation, ...] | None"] | None = None,
        memo_store: "MemoStore | None" = None,
        counters: "PerfCounters | None" = None,
        on_result: "Callable[[ViewPolishResult], None] | None" = None,
    ) -> list["ViewPolishResult"]:
        from repro.parallel.viewsched import polish_level_serial

        return polish_level_serial(
            volume_ft,
            view_fts,
            orientations,
            distances,
            modulations,
            distance_computer=distance_computer,
            interpolation=interpolation,
            max_iters=max_iters,
            tol=tol,
            damping=damping,
            n_best=n_best,
            seed_basins=seed_basins,
            memo_store=memo_store,
            counters=counters,
            on_result=on_result,
        )

    def run_tasks(self, fn: Any, payloads: Sequence[Any]) -> list[Any]:
        return [fn(p) for p in payloads]


class ProcessBackend(ExecutionBackend):
    """Fan views out over a shared-memory process pool.

    Owns (or adopts) a :class:`~repro.parallel.viewsched.ViewScheduler`:
    built from config it constructs the scheduler with the config's worker
    count, chunking, mp context and retry policy; handed a pre-built
    scheduler (``scheduler=``) it delegates without taking ownership —
    the caller keeps the pool's lifetime, exactly as the old
    ``OrientationRefiner.refine(scheduler=...)`` contract.
    """

    name = "process"

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        scheduler: "ViewScheduler | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if scheduler is not None:
            self._scheduler = scheduler
            self._owned = False
            return
        if config is None:
            raise ConfigError("ProcessBackend needs a config or an explicit scheduler")
        from repro.parallel.viewsched import ViewScheduler

        self._scheduler = ViewScheduler(
            n_workers=config.parallel.n_workers,
            chunks_per_worker=config.parallel.chunks_per_worker,
            mp_context=config.parallel.mp_context,
            retry_policy=config.fault.retry_policy(),
            fault_plan=fault_plan,
        )
        self._owned = True

    @property
    def scheduler(self) -> "ViewScheduler":
        return self._scheduler

    @property
    def fault_log(self) -> Any:
        """The scheduler's fault log (chaos harness introspection)."""
        return self._scheduler.fault_log

    def run_level(
        self,
        volume_ft: "Array",
        view_fts: "Array",
        orientations: Sequence["Orientation"],
        modulations: Sequence["Array | None"] | None,
        level: "RefinementLevel",
        *,
        distance_computer: "DistanceComputer | None" = None,
        kernel: str = "batched",
        interpolation: str = "trilinear",
        max_slides: int = 8,
        refine_centers: bool = True,
        memo_store: "MemoStore | None" = None,
        counters: "PerfCounters | None" = None,
        prune: "PruneParams | None" = None,
        seed_basins: Sequence["tuple[Orientation, ...] | None"] | None = None,
        symmetry: "SymmetryRestriction | None" = None,
        on_result: "Callable[[ViewLevelResult], None] | None" = None,
    ) -> list["ViewLevelResult"]:
        return self._scheduler.run_level(
            volume_ft,
            view_fts,
            orientations,
            modulations,
            level,
            distance_computer=distance_computer,
            kernel=kernel,
            interpolation=interpolation,
            max_slides=max_slides,
            refine_centers=refine_centers,
            memo_store=memo_store,
            counters=counters,
            prune=prune,
            seed_basins=seed_basins,
            symmetry=symmetry,
            on_result=on_result,
        )

    def run_polish(
        self,
        volume_ft: "Array",
        view_fts: "Array",
        orientations: Sequence["Orientation"],
        distances: "Sequence[float] | Array",
        modulations: Sequence["Array | None"] | None,
        *,
        distance_computer: "DistanceComputer | None" = None,
        interpolation: str = "trilinear",
        max_iters: int = 30,
        tol: float = 1e-8,
        damping: float = 1e-3,
        n_best: int = 1,
        seed_basins: Sequence["tuple[Orientation, ...] | None"] | None = None,
        memo_store: "MemoStore | None" = None,
        counters: "PerfCounters | None" = None,
        on_result: "Callable[[ViewPolishResult], None] | None" = None,
    ) -> list["ViewPolishResult"]:
        return self._scheduler.run_polish(
            volume_ft,
            view_fts,
            orientations,
            distances,
            modulations,
            distance_computer=distance_computer,
            interpolation=interpolation,
            max_iters=max_iters,
            tol=tol,
            damping=damping,
            n_best=n_best,
            seed_basins=seed_basins,
            memo_store=memo_store,
            counters=counters,
            on_result=on_result,
        )

    def run_tasks(self, fn: Any, payloads: Sequence[Any]) -> list[Any]:
        return self._scheduler.run_tasks(fn, payloads)

    def close(self) -> None:
        if self._owned:
            self._scheduler.close()


class SimBackend(ExecutionBackend):
    """Run on the simulated distributed-memory cluster.

    Wraps :func:`~repro.parallel.prefine.parallel_refine` (SimComm fabric,
    slab-decomposed cooperative FFT, perf-model message costing).  The
    simulation is SPMD over the *whole* schedule — ranks deal views once,
    barrier per level, gather at the end — so it cannot be driven one
    level at a time from outside; :meth:`run_level` therefore raises, and
    :class:`~repro.engine.core.RefinementEngine` routes sim-configured
    runs through :meth:`run_refinement` instead.
    """

    name = "sim"

    def __init__(
        self,
        config: EngineConfig,
        *,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.config = config
        self.fault_plan = fault_plan

    def run_level(self, *args: Any, **kwargs: Any) -> list["ViewLevelResult"]:
        raise ConfigError(
            "the sim backend refines whole schedules on the simulated cluster; "
            "it cannot run a single level — use RefinementEngine.run() "
            "(or parallel_refine) with parallel.backend = 'sim'"
        )

    def run_polish(self, *args: Any, **kwargs: Any) -> list["ViewPolishResult"]:
        raise ConfigError(
            "the sim backend refines whole schedules on the simulated cluster; "
            "it cannot run the polish stage — use parallel.backend = 'serial' "
            "or 'process'"
        )

    def run_tasks(self, fn: Any, payloads: Sequence[Any]) -> list[Any]:
        raise ConfigError(
            "the sim backend models message costs, not real task execution; "
            "use parallel.backend = 'serial' or 'process' for task fan-out"
        )

    def run_refinement(
        self,
        views: "SimulatedViews",
        density: "DensityMap",
        *,
        machine: Any = None,
        orientation_file: str | None = None,
    ) -> "ParallelRefinementReport":
        """One full refinement iteration on the simulated cluster."""
        from repro.parallel.machine import SP2_LIKE
        from repro.parallel.prefine import parallel_refine

        return parallel_refine(
            views,
            density,
            machine=machine if machine is not None else SP2_LIKE,
            orientation_file=orientation_file,
            fault_plan=self.fault_plan,
            config=self.config,
        )


def make_backend(
    config: EngineConfig,
    *,
    fault_plan: "FaultPlan | None" = None,
    scheduler: "ViewScheduler | None" = None,
) -> ExecutionBackend:
    """The backend a config asks for, fully constructed.

    ``scheduler`` forces a :class:`ProcessBackend` adopting that pool
    (un-owned), preserving the legacy injection contract; ``fault_plan``
    threads a chaos plan into whichever backend supports one.
    """
    if scheduler is not None:
        return ProcessBackend(scheduler=scheduler)
    backend = config.parallel.backend
    if backend == "serial" and config.parallel.n_workers == 1:
        return SerialBackend()
    if backend == "serial":
        raise ConfigError(
            "parallel.backend = 'serial' requires parallel.n_workers = 1 "
            f"(got {config.parallel.n_workers}); use backend = 'process'"
        )
    if backend == "process":
        return ProcessBackend(config, fault_plan=fault_plan)
    if backend == "sim":
        return SimBackend(config, fault_plan=fault_plan)
    raise ConfigError(f"unknown backend {backend!r}")  # pragma: no cover

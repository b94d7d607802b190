"""Process-parallel view scheduler (the paper's step-b fan-out, real processes).

The simulated cluster in :mod:`repro.parallel.prefine` reproduces the
paper's *accounting*; this module reproduces its *throughput* on real
hardware.  Views are embarrassingly parallel within a resolution level
(the only synchronization point is the per-level barrier, step m), so the
scheduler:

* shares the oversampled D̂ once per machine via
  ``multiprocessing.shared_memory`` — the in-process analog of the paper's
  one-replica-per-node decision (step b) — instead of pickling the volume
  into every task;
* fans views out in contiguous chunks over a ``concurrent.futures``
  process pool, several chunks per worker so stragglers (views whose
  windows slide) rebalance;
* caches the per-process :class:`DistanceComputer` (and therefore its
  band :class:`~repro.align.fused.MatchPlan`) across chunks and levels,
  so plans are built once per worker, not once per task;
* falls back to a plain serial loop when ``n_workers == 1`` — the same
  :func:`refine_level_serial` used by the serial refiner and the simulated
  cluster, so all three drivers execute the identical per-view kernel and
  return bit-identical results.

Fault tolerance (DESIGN.md §8): a chunk whose worker dies, hangs past the
:class:`~repro.faults.retry.RetryPolicy` timeout, or returns a poisoned
result is re-queued with backoff onto a recycled pool; once a chunk's
attempt budget or the level's pool-restart budget is exhausted, the chunk
runs on the in-process serial path, which no worker fault can kill.
Because every path executes the identical per-view kernel, recovery is
invisible in the numbers — results stay bit-identical to a fault-free run.
Deterministic failures for the chaos harness are injected via a seeded
:class:`~repro.faults.plan.FaultPlan` that workers consult by chunk site;
the shared-D̂ segment is guaranteed to be unlinked even when the level
aborts abnormally.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.align.distance import DistanceComputer
from repro.align.memo import MemoStore
from repro.analysis.contracts import array_contract, spec
from repro.arraytypes import Array
from repro.faults.plan import FaultInjected, FaultLog, FaultPlan, chunk_site, level_site
from repro.faults.retry import ChunkIntegrityError, RetryPolicy, validate_chunk_results
from repro.geometry.euler import Orientation
from repro.perf import PerfCounters
from repro.refine.multires import RefinementLevel
from repro.refine.prune import PruneParams
from repro.refine.single import refine_view_at_level

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a refine cycle)
    from repro.refine.restrict import SymmetryRestriction

__all__ = [
    "ViewLevelResult",
    "ViewPolishResult",
    "SharedVolume",
    "ViewScheduler",
    "refine_level_serial",
    "polish_level_serial",
    "chunk_indices",
]

#: exit status used by injected worker crashes (distinguishable in logs
#: from a real interpreter fault).
INJECTED_CRASH_EXIT = 17


@dataclass(frozen=True)
class ViewLevelResult:
    """Outcome of one view × one level, tagged with the view's global index.

    ``basins`` is the view's top-k basin centers when multi-basin pruning
    is on (the next level's seeds); empty otherwise.  It is plain picklable
    data, so it rides the pool fan-out like every other field.
    """

    index: int
    orientation: Orientation
    distance: float
    n_windows: int
    n_matches: int
    n_center_evals: int
    slid_window: bool
    slid_center: bool
    basins: tuple[Orientation, ...] = ()


def chunk_indices(n_items: int, n_chunks: int) -> list[Array]:
    """Contiguous, near-equal index chunks covering ``range(n_items)``.

    Returns at most ``n_chunks`` non-empty chunks (fewer when there are
    fewer items than chunks).
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_chunks < 1:
        raise ValueError("n_chunks must be positive")
    if n_items == 0:
        return []
    return [c for c in np.array_split(np.arange(n_items), min(n_chunks, n_items)) if c.size]


def refine_level_serial(
    volume_ft: Array,
    view_fts: Array,
    orientations: Sequence[Orientation],
    modulations: Sequence[Array | None] | None,
    level: RefinementLevel,
    *,
    distance_computer: DistanceComputer | None = None,
    kernel: str = "batched",
    interpolation: str = "trilinear",
    max_slides: int = 8,
    refine_centers: bool = True,
    inner_iterations: int = 2,
    memo_store: MemoStore | None = None,
    view_indices: Sequence[int] | None = None,
    counters: PerfCounters | None = None,
    prune: PruneParams | None = None,
    seed_basins: Sequence[tuple[Orientation, ...] | None] | None = None,
    symmetry: "SymmetryRestriction | None" = None,
    on_result: Callable[[ViewLevelResult], None] | None = None,
) -> list[ViewLevelResult]:
    """Steps f–l for a set of views at one level, serially in this process.

    This is the single per-view loop shared by the serial refiner, the
    simulated cluster and the process pool workers.

    ``memo_store`` / ``counters`` are the batched kernel's orientation memo
    and perf counters (ignored by the reference kernel).  Memos are keyed by
    *global* view index; ``view_indices`` maps the local position ``q`` to
    that global index when this call covers a chunk of a larger view set
    (defaults to the identity mapping).

    ``prune`` enables the early-termination bound inside each batched
    window scan; ``seed_basins`` carries each view's previous-level basin
    centers (aligned with ``orientations``, entries may be ``None``) for
    the multi-basin fan-out.  ``symmetry`` restricts the search to one
    asymmetric unit (batched kernel only, DESIGN.md §13); it is plain
    picklable data, so it rides worker payloads like ``prune``.

    ``on_result`` fires once per view as its result is appended, carrying
    the *local*-index :class:`ViewLevelResult` — callers that cover a
    chunk of a larger set must re-tag indices before observing it, which
    is why the pooled scheduler never passes it into worker payloads
    (callbacks aren't picklable; streaming consumption is master-side
    only, see :meth:`ViewScheduler.run_level`).
    """
    out: list[ViewLevelResult] = []
    for q in range(len(orientations)):
        memo = None
        if memo_store is not None:
            global_q = q if view_indices is None else int(view_indices[q])
            memo = memo_store.for_view(global_q)
        res = refine_view_at_level(
            view_fts[q],
            volume_ft,
            orientations[q],
            angular_step_deg=level.angular_step_deg,
            center_step_px=level.center_step_px,
            half_steps=level.half_steps,
            center_half_steps=level.center_half_steps,
            max_slides=max_slides,
            distance_computer=distance_computer,
            interpolation=interpolation,
            refine_centers=refine_centers,
            inner_iterations=inner_iterations,
            cut_modulation=None if modulations is None else modulations[q],
            kernel=kernel,
            memo=memo,
            counters=counters,
            prune=prune,
            seed_basins=None if seed_basins is None else seed_basins[q],
            symmetry=symmetry,
        )
        out.append(
            ViewLevelResult(
                index=q,
                orientation=res.orientation,
                distance=res.distance,
                n_windows=res.n_windows,
                n_matches=res.n_matches,
                n_center_evals=res.n_center_evals,
                slid_window=res.slid_window,
                slid_center=res.slid_center,
                basins=res.basins,
            )
        )
        if on_result is not None:
            on_result(out[-1])
    return out


class SharedVolume:
    """A copy of an ndarray in POSIX shared memory, attachable by name.

    One replica of D̂ per machine, exactly as the paper replicates D̂ once
    per node: workers attach read-only by name instead of receiving a
    pickled copy per task.  The creating process owns the segment's
    lifetime; :meth:`close` (idempotent, also run from ``__del__`` as a
    last resort) both detaches and unlinks, so a scheduler that unwinds
    through an exception cannot orphan the segment.
    """

    def __init__(self, array: Array) -> None:
        arr = np.ascontiguousarray(array)
        self._shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=arr.nbytes
        )
        self.shape = arr.shape
        self.dtype = arr.dtype
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self._shm.buf)
        view[...] = arr
        self.name = self._shm.name

    def descriptor(self) -> tuple[str, tuple[int, ...], str]:
        """Picklable (name, shape, dtype) handle for workers."""
        return (self.name, self.shape, self.dtype.str)

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            # interpreter teardown: modules the close path needs may be gone
            pass


# -- worker side ------------------------------------------------------------
# Per-process caches: the attached D̂ replica (keyed by segment name) and
# the distance computer / plan state (keyed by the scheduler's spec id).
_WORKER_VOLUMES: dict[str, tuple[Any, Array]] = {}
_WORKER_SPECS: dict[str, DistanceComputer | None] = {}
_WORKER_CLEANUP_REGISTERED = False


def _close_worker_volumes() -> None:
    """Detach every cached D̂ replica (worker atexit: no fd/mapping leaks)."""
    for shm, _ in _WORKER_VOLUMES.values():
        try:
            shm.close()
        except OSError:
            pass
    # repro-lint: allow[RL013] _WORKER_VOLUMES is this worker's own attach
    # cache; clearing it at atexit detaches mappings and never crosses back
    # to the parent.
    _WORKER_VOLUMES.clear()


@array_contract(ret=spec(shape=("v", "v", "v"), dtype="inexact", contiguous=True))
def _attach_volume(descriptor: tuple[str, tuple[int, ...], str]) -> Array:
    # repro-lint: allow[RL013] the cleanup flag is deliberately per-process:
    # each worker registers its own atexit hook exactly once.
    global _WORKER_CLEANUP_REGISTERED
    name, shape, dtype = descriptor
    cached = _WORKER_VOLUMES.get(name)
    if cached is None:
        if not _WORKER_CLEANUP_REGISTERED:
            atexit.register(_close_worker_volumes)
            _WORKER_CLEANUP_REGISTERED = True
        shm = shared_memory.SharedMemory(name=name)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        arr.setflags(write=False)
        # keep the SharedMemory object alive for the array's lifetime
        # repro-lint: allow[RL013] per-process attach cache by design: each
        # worker maps the segment once and reuses the same read-only view.
        _WORKER_VOLUMES[name] = (shm, arr)
        return arr
    return cached[1]


#: What a worker ships back per chunk: the per-view results, the chunk's
#: orientation-memo state (view index -> key/value arrays; ``None`` when
#: memoization is off) and the chunk's perf counters (``None`` when the
#: caller did not ask for them).
ChunkReturn = tuple[list[ViewLevelResult], dict[int, tuple[Array, Array]] | None, PerfCounters | None]


def _memo_payload(memo_store: MemoStore | None, chunk: Array) -> dict[str, Any]:
    """The chunk payload's memo fields: its views' warm state and the capacity."""
    if memo_store is None:
        return {"memo_states": None}
    return {
        "memo_states": memo_store.subset_state([int(i) for i in chunk]),
        "memo_capacity": memo_store.capacity,
    }


def _worker_memo_store(payload: dict[str, Any]) -> MemoStore | None:
    """A worker-local memo seeded from the payload, at the master's capacity."""
    memo_states = payload.get("memo_states")
    if memo_states is None:
        return None
    memo_store = MemoStore(payload["memo_capacity"])
    memo_store.import_state(memo_states)
    return memo_store


def _worker_refine_chunk(payload: dict[str, Any]) -> ChunkReturn:
    """Run one chunk of views in a worker process (module-level: picklable).

    Consults the payload's :class:`FaultPlan` (chaos harness only; the
    plan is empty in production) at this chunk's site: an injected crash
    is a hard ``os._exit`` — exactly what a segfaulted or OOM-killed
    worker looks like to the parent pool.

    When the payload carries ``memo_states`` the worker seeds a local
    :class:`MemoStore` from them (warm entries from earlier levels /
    chunks of the same views) at the master store's ``memo_capacity``,
    and its final state rides back in the return value so the scheduler
    can absorb it into the master store.
    """
    fault_plan: FaultPlan | None = payload.get("fault_plan")
    site: str = payload.get("site", "")
    attempt: int = int(payload.get("attempt", 0))
    if fault_plan is not None:
        if fault_plan.should("crash-before", site, attempt):
            os._exit(INJECTED_CRASH_EXIT)
        delay = fault_plan.lookup("delay", site, attempt)
        if delay is not None and delay.delay_s > 0:
            time.sleep(delay.delay_s)
    volume = _attach_volume(payload["volume"])
    spec_id = payload["spec_id"]
    if spec_id not in _WORKER_SPECS:
        # repro-lint: allow[RL013] per-process spec memo keyed by the
        # scheduler's spec id; workers never share it and the parent keeps
        # the authoritative copy in the payload.
        _WORKER_SPECS[spec_id] = payload["distance_computer"]
    dc = _WORKER_SPECS[spec_id]
    indices = payload["indices"]
    memo_store = _worker_memo_store(payload)
    counters = PerfCounters() if payload.get("collect_perf") else None
    results = refine_level_serial(
        volume,
        payload["view_fts"],
        payload["orientations"],
        payload["modulations"],
        payload["level"],
        distance_computer=dc,
        kernel=payload["kernel"],
        interpolation=payload["interpolation"],
        max_slides=payload["max_slides"],
        refine_centers=payload["refine_centers"],
        inner_iterations=payload["inner_iterations"],
        memo_store=memo_store,
        view_indices=indices,
        counters=counters,
        prune=payload.get("prune"),
        seed_basins=payload.get("seed_basins"),
        symmetry=payload.get("symmetry"),
    )
    out = [replace(r, index=int(indices[r.index])) for r in results]
    if fault_plan is not None:
        if out and fault_plan.should("poison", site, attempt):
            out[0] = replace(out[0], distance=float("nan"))
        if fault_plan.should("crash-after", site, attempt):
            os._exit(INJECTED_CRASH_EXIT)
    return out, None if memo_store is None else memo_store.export_state(), counters


# -- polish fan-out ----------------------------------------------------------
@dataclass(frozen=True)
class ViewPolishResult:
    """Outcome of the continuous polish for one view (global index tagged).

    ``orientation`` / ``distance`` are the best over the view's polish
    starts — never worse than the incoming grid result, because the LM
    loop only accepts strictly-improving steps and the grid value is the
    fallback.  ``n_iterations`` sums over starts.
    """

    index: int
    orientation: Orientation
    distance: float
    n_iterations: int = 0
    converged: bool = True


def polish_level_serial(
    volume_ft: Array,
    view_fts: Array,
    orientations: Sequence[Orientation],
    distances: Sequence[float] | Array,
    modulations: Sequence[Array | None] | None,
    *,
    distance_computer: DistanceComputer | None = None,
    interpolation: str = "trilinear",
    max_iters: int = 30,
    tol: float = 1e-8,
    damping: float = 1e-3,
    n_best: int = 1,
    seed_basins: Sequence[tuple[Orientation, ...] | None] | None = None,
    memo_store: MemoStore | None = None,
    view_indices: Sequence[int] | None = None,
    counters: PerfCounters | None = None,
    on_result: Callable[[ViewPolishResult], None] | None = None,
) -> list[ViewPolishResult]:
    """The Gauss–Newton polish stage for a set of views, serially.

    The per-view logic is exactly the refiner's former inline loop: each
    view starts from its current grid winner (or its ``seed_basins`` top
    ``n_best`` starts when multi-basin pruning tracked them), polishes
    every start, and keeps the best strictly-improving result — the grid
    value wins ties.  Views are independent, so this is the shared kernel
    for the serial path, the process-pool workers, and the serial
    fallback, making every fan-out strategy bit-identical.
    """
    from repro.align.fused import get_match_plan
    from repro.refine.polish import polish_view

    dc = distance_computer or DistanceComputer(np.asarray(view_fts).shape[1])
    plan = get_match_plan(dc, volume_ft.shape[0], interpolation)
    out: list[ViewPolishResult] = []
    for q in range(len(orientations)):
        memo = None
        if memo_store is not None:
            global_q = q if view_indices is None else int(view_indices[q])
            memo = memo_store.for_view(global_q)
        view_band = plan.gather_view(view_fts[q])
        starts: tuple[Orientation, ...] = (orientations[q],)
        if seed_basins is not None and seed_basins[q]:
            starts = tuple(seed_basins[q][:n_best]) or starts
        best_o, best_d = orientations[q], float(distances[q])
        n_iters = 0
        converged = True
        for start in starts:
            polished = polish_view(
                view_band,
                volume_ft,
                plan,
                start,
                cut_modulation=None if modulations is None else modulations[q],
                max_iters=max_iters,
                tol=tol,
                damping=damping,
                memo=memo,
                counters=counters,
            )
            n_iters += polished.n_iterations
            converged = converged and polished.converged
            if polished.distance < best_d:
                best_o, best_d = polished.orientation, polished.distance
        out.append(
            ViewPolishResult(
                index=q,
                orientation=best_o,
                distance=best_d,
                n_iterations=n_iters,
                converged=converged,
            )
        )
        if on_result is not None:
            on_result(out[-1])
    return out


#: What a polish worker ships back per chunk, mirroring :data:`ChunkReturn`.
PolishChunkReturn = tuple[
    list[ViewPolishResult], dict[int, tuple[Array, Array]] | None, PerfCounters | None
]


def _worker_polish_chunk(payload: dict[str, Any]) -> PolishChunkReturn:
    """Polish one chunk of views in a worker process (module-level: picklable).

    Shares the refine-chunk worker's caches: the attached D̂ replica and
    the per-process distance-computer/plan state, so a pool that just ran
    the grid levels polishes with zero re-setup.
    """
    volume = _attach_volume(payload["volume"])
    spec_id = payload["spec_id"]
    if spec_id not in _WORKER_SPECS:
        # repro-lint: allow[RL013] per-process spec memo keyed by the
        # scheduler's spec id; workers never share it and the parent keeps
        # the authoritative copy in the payload.
        _WORKER_SPECS[spec_id] = payload["distance_computer"]
    dc = _WORKER_SPECS[spec_id]
    indices = payload["indices"]
    memo_store = _worker_memo_store(payload)
    counters = PerfCounters() if payload.get("collect_perf") else None
    results = polish_level_serial(
        volume,
        payload["view_fts"],
        payload["orientations"],
        payload["distances"],
        payload["modulations"],
        distance_computer=dc,
        interpolation=payload["interpolation"],
        max_iters=payload["max_iters"],
        tol=payload["tol"],
        damping=payload["damping"],
        n_best=payload["n_best"],
        seed_basins=payload.get("seed_basins"),
        memo_store=memo_store,
        view_indices=indices,
        counters=counters,
    )
    out = [replace(r, index=int(indices[r.index])) for r in results]
    return out, None if memo_store is None else memo_store.export_state(), counters


def _run_task(payload: tuple[Any, Any]) -> Any:
    """Apply a pickled callable to one payload (module-level: picklable)."""
    fn, arg = payload
    return fn(arg)


# -- scheduler --------------------------------------------------------------
class ViewScheduler:
    """Fans per-view refinement out over a process pool (or runs serially).

    Parameters
    ----------
    n_workers:
        Process count; ``1`` (default) runs everything inline with no pool
        and no shared memory — the exact serial code path.
    chunks_per_worker:
        Oversubscription factor: each level is split into
        ``n_workers · chunks_per_worker`` chunks so a straggler chunk (a
        view whose windows slide) does not idle the other workers.
    mp_context:
        Optional multiprocessing start method (``"fork"``, ``"spawn"``, …);
        platform default when ``None``.
    retry_policy:
        How lost/hung/poisoned chunks are retried and when the level
        degrades to the serial path (defaults to :class:`RetryPolicy`).
    fault_plan:
        Deterministic fault injection for the chaos harness; the empty
        plan (no faults) by default.

    Recovery actions taken during a run are appended to :attr:`fault_log`
    (a :class:`~repro.faults.plan.FaultLog`), which the chaos tests read
    to assert that the path under test actually fired.

    Use as a context manager, or call :meth:`close` when done — it shuts
    the pool down and unlinks the shared D̂ replica.  If a level unwinds
    with an unrecoverable error, the replica is unlinked *before* the
    exception propagates, so no ``/dev/shm`` segment outlives the run.
    """

    def __init__(
        self,
        n_workers: int = 1,
        chunks_per_worker: int = 4,
        mp_context: str | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")
        self.n_workers = int(n_workers)
        self.chunks_per_worker = int(chunks_per_worker)
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_plan = fault_plan or FaultPlan.none()
        self.fault_log = FaultLog()
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._shared: SharedVolume | None = None
        self._shared_key: int | None = None
        self._spec_ids: dict[int, str] = {}
        self._level_seq = 0

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "ViewScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the pool and unlink the shared volume (idempotent).

        The unlink is in a ``finally``: even a pool whose shutdown raises
        (e.g. already broken by a killed worker) cannot leak the segment.
        """
        try:
            if self._executor is not None:
                executor, self._executor = self._executor, None
                executor.shutdown(wait=True)
        finally:
            self._release_shared()

    def _release_shared(self) -> None:
        if self._shared is not None:
            shared, self._shared = self._shared, None
            self._shared_key = None
            shared.close()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            import multiprocessing as mp

            ctx = mp.get_context(self._mp_context) if self._mp_context else mp.get_context()
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers, mp_context=ctx)
        return self._executor

    def _restart_pool(self) -> None:
        """Discard a broken/hung pool; the next submit builds a fresh one.

        ``wait=False`` + ``cancel_futures=True``: a hung worker must not
        block recovery — its process exits on its own once the injected
        delay (or real stall) ends, and the queued tasks are re-issued to
        the replacement pool by the retry loop.
        """
        if self._executor is not None:
            executor, self._executor = self._executor, None
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                # a pool broken by a dead worker may raise while unwinding
                # its management thread; the replacement pool is unaffected
                pass

    def _share(self, volume_ft: Array) -> SharedVolume:
        # The caller keeps volume_ft alive for the scheduler's lifetime
        # (the refiner holds it for the whole run), so id() is a stable key.
        key = id(volume_ft)
        if self._shared is not None and self._shared_key == key:
            return self._shared
        self._release_shared()
        self._shared = SharedVolume(volume_ft)
        self._shared_key = key
        return self._shared

    def _spec_id(self, distance_computer: DistanceComputer | None) -> str:
        key = id(distance_computer)
        spec = self._spec_ids.get(key)
        if spec is None:
            spec = f"spec-{id(self):x}-{len(self._spec_ids)}"
            self._spec_ids[key] = spec
        return spec

    # -- the level fan-out ---------------------------------------------------
    def run_level(
        self,
        volume_ft: Array,
        view_fts: Array,
        orientations: Sequence[Orientation],
        modulations: Sequence[Array | None] | None,
        level: RefinementLevel,
        *,
        distance_computer: DistanceComputer | None = None,
        kernel: str = "batched",
        interpolation: str = "trilinear",
        max_slides: int = 8,
        refine_centers: bool = True,
        inner_iterations: int = 2,
        memo_store: MemoStore | None = None,
        counters: PerfCounters | None = None,
        prune: PruneParams | None = None,
        seed_basins: Sequence[tuple[Orientation, ...] | None] | None = None,
        symmetry: "SymmetryRestriction | None" = None,
        on_result: Callable[[ViewLevelResult], None] | None = None,
    ) -> list[ViewLevelResult]:
        """Steps f–l for every view at one level; results ordered by view index.

        Results are bit-identical to :func:`refine_level_serial` regardless
        of worker count, chunking, or how many injected/real faults were
        recovered along the way, since views are independent and every
        recovery path re-executes the identical kernel.

        ``memo_store`` (batched kernel) is consulted and updated: pooled
        chunks carry their views' memo entries out in the payload and ship
        the warmed state back for the scheduler to absorb, so re-centers
        and later levels hit the cache whether views run in-process or in
        workers — absorbing a memo can never change a value (exact keys,
        immutable entries), only save gathers.  ``counters`` accumulates
        the per-window perf counters from every path, including worker
        processes.

        ``prune`` / ``seed_basins`` thread the early-termination bound and
        the per-view multi-basin seeds through every execution path.  The
        k-th-best tracker lives inside each view's own window search, so
        pruning decisions — like everything else — are independent of
        chunking and worker count.

        ``on_result`` is the streaming hook (DESIGN.md §14): it fires on
        the master, exactly once per view, with the globally-indexed
        :class:`ViewLevelResult`, in whatever order chunks complete.  On
        the pooled path a chunk's results are observed only *after*
        :func:`validate_chunk_results` accepts them — a poisoned, retried
        or timed-out chunk never reaches the consumer, and the serial
        fallback fires after its indices are re-tagged to global.
        Callbacks never enter worker payloads (they aren't picklable).
        """
        seq = self._level_seq
        self._level_seq += 1
        abort = self.fault_plan.lookup("abort-level", level_site(seq))
        if abort is not None:
            self.fault_log.record("abort-level", level_site(seq), action="abort")
            raise FaultInjected(f"injected abort at {level_site(seq)}")
        m = len(orientations)
        serial_kwargs: dict[str, Any] = dict(
            distance_computer=distance_computer,
            kernel=kernel,
            interpolation=interpolation,
            max_slides=max_slides,
            refine_centers=refine_centers,
            inner_iterations=inner_iterations,
            prune=prune,
            symmetry=symmetry,
        )
        if self.n_workers == 1 or m < 2:
            # local indices are global here: the call covers the whole set
            return refine_level_serial(
                volume_ft,
                view_fts,
                orientations,
                modulations,
                level,
                memo_store=memo_store,
                counters=counters,
                seed_basins=seed_basins,
                on_result=on_result,
                **serial_kwargs,
            )
        try:
            return self._run_level_pooled(
                seq,
                volume_ft,
                view_fts,
                orientations,
                modulations,
                level,
                serial_kwargs,
                memo_store=memo_store,
                counters=counters,
                seed_basins=seed_basins,
                on_result=on_result,
            )
        except BaseException:
            # unrecoverable (attempt budgets cannot save us from e.g. a
            # pickling bug or KeyboardInterrupt): never orphan the segment
            self._restart_pool()
            self._release_shared()
            raise

    def _run_level_pooled(
        self,
        seq: int,
        volume_ft: Array,
        view_fts: Array,
        orientations: Sequence[Orientation],
        modulations: Sequence[Array | None] | None,
        level: RefinementLevel,
        serial_kwargs: dict[str, Any],
        memo_store: MemoStore | None = None,
        counters: PerfCounters | None = None,
        seed_basins: Sequence[tuple[Orientation, ...] | None] | None = None,
        on_result: Callable[[ViewLevelResult], None] | None = None,
    ) -> list[ViewLevelResult]:
        """The pool fan-out with the retry/re-queue/degrade recovery loop."""
        policy = self.retry_policy
        shared = self._share(volume_ft)
        spec_id = self._spec_id(serial_kwargs["distance_computer"])
        chunks = chunk_indices(len(orientations), self.n_workers * self.chunks_per_worker)
        view_arr = np.asarray(view_fts)

        def payload_for(cid: int, attempt: int) -> dict[str, Any]:
            chunk = chunks[cid]
            return {
                "volume": shared.descriptor(),
                "spec_id": spec_id,
                "distance_computer": serial_kwargs["distance_computer"],
                "view_fts": view_arr[chunk],
                "orientations": [orientations[i] for i in chunk],
                "modulations": None
                if modulations is None
                else [modulations[i] for i in chunk],
                "level": level,
                "kernel": serial_kwargs["kernel"],
                "interpolation": serial_kwargs["interpolation"],
                "max_slides": serial_kwargs["max_slides"],
                "refine_centers": serial_kwargs["refine_centers"],
                "inner_iterations": serial_kwargs["inner_iterations"],
                "prune": serial_kwargs["prune"],
                "symmetry": serial_kwargs["symmetry"],
                "seed_basins": None
                if seed_basins is None
                else [seed_basins[i] for i in chunk],
                "indices": chunk,
                **_memo_payload(memo_store, chunk),
                "collect_perf": counters is not None,
                "fault_plan": self.fault_plan if self.fault_plan.specs else None,
                "site": chunk_site(seq, cid),
                "attempt": attempt,
            }

        def absorb_extras(
            memo_state: dict[int, tuple[Array, Array]] | None,
            perf: PerfCounters | None,
        ) -> None:
            if memo_store is not None and memo_state is not None:
                memo_store.import_state(memo_state)
            if counters is not None and perf is not None:
                counters.merge(perf)

        def run_chunk_serially(cid: int) -> list[ViewLevelResult]:
            chunk = chunks[cid]
            sub = refine_level_serial(
                volume_ft,
                view_arr[chunk],
                [orientations[i] for i in chunk],
                None if modulations is None else [modulations[i] for i in chunk],
                level,
                memo_store=memo_store,
                view_indices=[int(i) for i in chunk],
                counters=counters,
                seed_basins=None
                if seed_basins is None
                else [seed_basins[i] for i in chunk],
                **serial_kwargs,
            )
            retagged = [replace(r, index=int(chunk[r.index])) for r in sub]
            if on_result is not None:
                for r in retagged:
                    on_result(r)
            return retagged

        attempts = [0] * len(chunks)
        done: dict[int, list[ViewLevelResult]] = {}
        pending = list(range(len(chunks)))
        fallback: list[int] = []
        pool_restarts = 0
        while pending or fallback:
            for cid in fallback:
                done[cid] = run_chunk_serially(cid)
            fallback = []
            if not pending:
                break
            executor = self._ensure_executor()
            submitted: list[tuple[int, Future[ChunkReturn]]] = [
                (cid, executor.submit(_worker_refine_chunk, payload_for(cid, attempts[cid])))
                for cid in pending
            ]
            pending = []
            failed: list[int] = []
            pool_poisoned = False
            for cid, future in submitted:
                site = chunk_site(seq, cid)
                try:
                    results, memo_state, perf = future.result(timeout=policy.chunk_timeout_s)
                    validate_chunk_results(chunks[cid], results)
                    done[cid] = results
                    # only a validated chunk's memo/perf/results enter the
                    # master state — a poisoned result must not leave side
                    # effects, and the streaming consumer below must never
                    # observe one (nor see an accepted chunk twice)
                    absorb_extras(memo_state, perf)
                    if on_result is not None:
                        for r in results:
                            on_result(r)
                except ChunkIntegrityError as exc:
                    self.fault_log.record(
                        "poison", site, attempts[cid], "poison-detected", str(exc)
                    )
                    failed.append(cid)
                except FuturesTimeoutError:
                    self.fault_log.record("delay", site, attempts[cid], "timeout")
                    failed.append(cid)
                    pool_poisoned = True  # a hung worker occupies its slot
                except BrokenProcessPool as exc:
                    self.fault_log.record(
                        "crash-before", site, attempts[cid], "worker-lost", str(exc)
                    )
                    failed.append(cid)
                    pool_poisoned = True
                except Exception as exc:
                    # the worker raised (bug or corrupted payload): treat as
                    # a chunk failure so the serial fallback surfaces it.
                    # The retry taxonomy names the class so the log shows
                    # whether retrying could ever have helped (RL014
                    # guarantees reachable raises classify to something).
                    kind = policy.classify(exc) or "unclassified"
                    self.fault_log.record(
                        "poison", site, attempts[cid], "worker-error",
                        f"{kind}: {exc!r}",
                    )
                    failed.append(cid)
            if pool_poisoned:
                self._restart_pool()
                pool_restarts += 1
                self.fault_log.record(
                    "crash-before", f"L{seq}", action="pool-restart",
                    detail=f"restart {pool_restarts}/{policy.max_pool_restarts}",
                )
            for cid in failed:
                attempts[cid] += 1
                site = chunk_site(seq, cid)
                exhausted = (
                    attempts[cid] >= policy.max_attempts
                    or pool_restarts > policy.max_pool_restarts
                )
                if exhausted:
                    self.fault_log.record(
                        "crash-before", site, attempts[cid], "serial-fallback"
                    )
                    fallback.append(cid)
                else:
                    backoff = policy.backoff(attempts[cid])
                    if backoff > 0:
                        time.sleep(backoff)
                    self.fault_log.record("crash-before", site, attempts[cid], "retry")
                    pending.append(cid)
        results = [r for cid in sorted(done) for r in done[cid]]
        results.sort(key=lambda r: r.index)
        return results

    # -- the polish fan-out --------------------------------------------------
    def run_polish(
        self,
        volume_ft: Array,
        view_fts: Array,
        orientations: Sequence[Orientation],
        distances: Sequence[float] | Array,
        modulations: Sequence[Array | None] | None,
        *,
        distance_computer: DistanceComputer | None = None,
        interpolation: str = "trilinear",
        max_iters: int = 30,
        tol: float = 1e-8,
        damping: float = 1e-3,
        n_best: int = 1,
        seed_basins: Sequence[tuple[Orientation, ...] | None] | None = None,
        memo_store: MemoStore | None = None,
        counters: PerfCounters | None = None,
        on_result: Callable[[ViewPolishResult], None] | None = None,
    ) -> list[ViewPolishResult]:
        """The continuous polish stage for every view; ordered by view index.

        Views polish independently (a handful of LM iterations each), so
        the stage fans out exactly like :meth:`run_level`: shared D̂
        replica, contiguous chunks, per-chunk memo subset shipped out and
        absorbed back.  Results are bit-identical to
        :func:`polish_level_serial` regardless of worker count — the LM
        descent is deterministic per view, and memo hits return exact
        previous values.  A chunk that fails for any reason (dead worker,
        timeout, pickling bug) reruns once on the in-process serial path;
        polish chunks are not retried on the pool because the serial
        fallback is already exact.

        ``on_result`` streams globally-indexed results to the master as
        chunks complete, with the same once-per-view guarantee as
        :meth:`run_level`.
        """
        m = len(orientations)
        kwargs: dict[str, Any] = dict(
            distance_computer=distance_computer,
            interpolation=interpolation,
            max_iters=max_iters,
            tol=tol,
            damping=damping,
            n_best=n_best,
        )
        if self.n_workers == 1 or m < 2:
            return polish_level_serial(
                volume_ft,
                view_fts,
                orientations,
                distances,
                modulations,
                seed_basins=seed_basins,
                memo_store=memo_store,
                counters=counters,
                on_result=on_result,
                **kwargs,
            )
        try:
            return self._run_polish_pooled(
                volume_ft,
                view_fts,
                orientations,
                distances,
                modulations,
                kwargs,
                seed_basins=seed_basins,
                memo_store=memo_store,
                counters=counters,
                on_result=on_result,
            )
        except BaseException:
            self._restart_pool()
            self._release_shared()
            raise

    def _run_polish_pooled(
        self,
        volume_ft: Array,
        view_fts: Array,
        orientations: Sequence[Orientation],
        distances: Sequence[float] | Array,
        modulations: Sequence[Array | None] | None,
        kwargs: dict[str, Any],
        seed_basins: Sequence[tuple[Orientation, ...] | None] | None = None,
        memo_store: MemoStore | None = None,
        counters: PerfCounters | None = None,
        on_result: Callable[[ViewPolishResult], None] | None = None,
    ) -> list[ViewPolishResult]:
        shared = self._share(volume_ft)
        spec_id = self._spec_id(kwargs["distance_computer"])
        chunks = chunk_indices(len(orientations), self.n_workers * self.chunks_per_worker)
        view_arr = np.asarray(view_fts)
        dist_arr = np.asarray(distances, dtype=float)
        executor = self._ensure_executor()
        submitted: list[tuple[int, Future[PolishChunkReturn]]] = []
        for cid, chunk in enumerate(chunks):
            payload = {
                "volume": shared.descriptor(),
                "spec_id": spec_id,
                "distance_computer": kwargs["distance_computer"],
                "view_fts": view_arr[chunk],
                "orientations": [orientations[i] for i in chunk],
                "distances": dist_arr[chunk],
                "modulations": None
                if modulations is None
                else [modulations[i] for i in chunk],
                "interpolation": kwargs["interpolation"],
                "max_iters": kwargs["max_iters"],
                "tol": kwargs["tol"],
                "damping": kwargs["damping"],
                "n_best": kwargs["n_best"],
                "seed_basins": None
                if seed_basins is None
                else [seed_basins[i] for i in chunk],
                "indices": chunk,
                **_memo_payload(memo_store, chunk),
                "collect_perf": counters is not None,
            }
            submitted.append((cid, executor.submit(_worker_polish_chunk, payload)))
        done: dict[int, list[ViewPolishResult]] = {}
        failed: list[int] = []
        pool_poisoned = False
        for cid, future in submitted:
            try:
                results, memo_state, perf = future.result(
                    timeout=self.retry_policy.chunk_timeout_s
                )
                done[cid] = results
                if memo_store is not None and memo_state is not None:
                    memo_store.import_state(memo_state)
                if counters is not None and perf is not None:
                    counters.merge(perf)
                if on_result is not None:
                    for r in results:
                        on_result(r)
            except (FuturesTimeoutError, BrokenProcessPool) as exc:
                self.fault_log.record(
                    "crash-before", f"polish/{cid}", 0, "serial-fallback", repr(exc)
                )
                failed.append(cid)
                pool_poisoned = True
            except Exception as exc:
                self.fault_log.record(
                    "poison", f"polish/{cid}", 0, "serial-fallback", repr(exc)
                )
                failed.append(cid)
        if pool_poisoned:
            self._restart_pool()
        for cid in failed:
            chunk = chunks[cid]
            sub = polish_level_serial(
                volume_ft,
                view_arr[chunk],
                [orientations[i] for i in chunk],
                dist_arr[chunk],
                None if modulations is None else [modulations[i] for i in chunk],
                seed_basins=None
                if seed_basins is None
                else [seed_basins[i] for i in chunk],
                memo_store=memo_store,
                view_indices=[int(i) for i in chunk],
                counters=counters,
                **kwargs,
            )
            done[cid] = [replace(r, index=int(chunk[r.index])) for r in sub]
            if on_result is not None:
                for r in done[cid]:
                    on_result(r)
        results = [r for cid in sorted(done) for r in done[cid]]
        results.sort(key=lambda r: r.index)
        return results

    # -- generic task fan-out ------------------------------------------------
    def run_tasks(self, fn: Any, payloads: Sequence[Any]) -> list[Any]:
        """Apply a picklable function to independent payloads, in order.

        The scheduler's spelling of "embarrassingly parallel, no shared
        volume": used by the symmetry detector's axis×order scoring sweep.
        ``fn`` must be module-level picklable and deterministic; results
        come back in payload order.  Any worker failure reruns the failed
        payloads serially in-process, so the call as a whole cannot fail
        because of a pool fault.
        """
        items = list(payloads)
        if self.n_workers == 1 or len(items) < 2:
            return [fn(p) for p in items]
        executor = self._ensure_executor()
        futures = [executor.submit(_run_task, (fn, p)) for p in items]
        out: list[Any] = [None] * len(items)
        failed: list[int] = []
        pool_poisoned = False
        for i, future in enumerate(futures):
            try:
                out[i] = future.result(timeout=self.retry_policy.chunk_timeout_s)
            except (FuturesTimeoutError, BrokenProcessPool) as exc:
                self.fault_log.record(
                    "crash-before", f"task/{i}", 0, "serial-fallback", repr(exc)
                )
                failed.append(i)
                pool_poisoned = True
            except Exception as exc:
                self.fault_log.record(
                    "poison", f"task/{i}", 0, "serial-fallback", repr(exc)
                )
                failed.append(i)
        if pool_poisoned:
            self._restart_pool()
        for i in failed:
            out[i] = fn(items[i])
        return out

"""The sliding-window search (steps f–i).

The window of candidates is scanned (``match_view``); if the winner lies on
a face of the window along any angle, the window is re-centered on it and
re-scanned, up to ``max_slides`` times.  The paper observed exactly this
mechanism firing in production: "at 0.01° instead of 9 matchings (search
range) we needed 15 for the Sindbis virus" (§5) — the extra matchings are
the re-scans counted in :attr:`SlidingWindowResult.n_matches`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.distance import DistanceComputer
from repro.align.fused import MatchPlan, get_match_plan
from repro.align.grid import orientation_window
from repro.align.matcher import MatchResult, match_view, match_view_window
from repro.align.memo import OrientationMemo
from repro.arraytypes import Array
from repro.geometry.euler import Orientation
from repro.perf import PerfCounters
from repro.refine.prune import PruneParams, PruneSearch

__all__ = ["SlidingWindowResult", "sliding_window_search"]


@dataclass(frozen=True)
class SlidingWindowResult:
    """Outcome of one (possibly slid) window search.

    Attributes
    ----------
    orientation:
        Final minimum-distance orientation ``O_µ``.
    distance:
        Final minimum distance.
    n_windows:
        Window evaluations performed (1 if no slide; the paper's
        ``n_window``).
    n_matches:
        Total matching operations across all windows.
    slid:
        True when at least one re-centering occurred.
    centers:
        The window centers actually scanned, in order (the invariant the
        property tests assert: no center is ever revisited).
    final_on_edge:
        True when the search stopped *because* the slide budget ran out
        while the winner still sat on a window face — i.e. the final
        minimum is not known to be interior.
    basins:
        When a pruned search tracked more than one basin
        (``PruneParams.rank > 1``), the top-ranked distinct orientations
        over the whole search, best first.  Empty otherwise.
    """

    orientation: Orientation
    distance: float
    n_windows: int
    n_matches: int
    slid: bool
    centers: tuple[Orientation, ...] = ()
    final_on_edge: bool = False
    basins: tuple[Orientation, ...] = ()


def sliding_window_search(
    view_ft: Array | None,
    volume_ft: Array,
    center: Orientation,
    step_deg: float,
    half_steps: int | tuple[int, int, int] = 4,
    max_slides: int = 8,
    distance_computer: DistanceComputer | None = None,
    interpolation: str = "trilinear",
    cut_modulation: Array | None = None,
    kernel: str = "batched",
    plan: MatchPlan | None = None,
    view_band: Array | None = None,
    memo: OrientationMemo | None = None,
    memo_center: tuple[float, float] = (0.0, 0.0),
    counters: PerfCounters | None = None,
    prune: PruneParams | None = None,
) -> SlidingWindowResult:
    """Steps f–i for one view at one angular resolution.

    Parameters
    ----------
    view_ft:
        Center-corrected, CTF-corrected centered 2D DFT of the view.  May
        be ``None`` when ``view_band`` (batched kernel) is supplied instead.
    volume_ft:
        Centered 3D DFT of the current map.
    center:
        The orientation the first window is centered on.
    step_deg:
        Angular resolution ``r_angular`` of this level.
    half_steps:
        Window half-width in steps per angle.
    max_slides:
        Safety bound on re-centerings (the paper's data slid at most once
        per level; noisy data could otherwise walk indefinitely).
    kernel:
        ``"batched"`` (default) matches on in-band samples only, scoring
        each window through the whole-window engine
        (:meth:`MatchPlan.match_window`), and can consult an orientation
        ``memo``; ``"reference"`` extracts full cut stacks and is kept as
        the test oracle.  Both produce identical distances.
    plan / view_band:
        Optional precomputed batched-kernel state; derived from ``view_ft``
        and the volume when omitted.
    memo / memo_center / counters:
        Batched-kernel extras: the per-view :class:`OrientationMemo`
        (``memo_center`` is the center correction baked into
        ``view_band`` — part of the memo key) and the run's
        :class:`PerfCounters`.  Ignored by the reference kernel.
    prune:
        Optional :class:`~repro.refine.prune.PruneParams` enabling the
        early-termination bound on the batched kernel.  One
        :class:`~repro.refine.prune.PruneSearch` tracker spans the whole
        (possibly slid) search — candidates re-observed after a slide are
        deduplicated by exact orientation key, so the k-th-best bound only
        tightens.  Ignored by the reference kernel (it scores every
        candidate exactly anyway, which is what makes it the
        equivalence oracle).
    """
    if max_slides < 0:
        raise ValueError("max_slides must be non-negative")
    if kernel not in ("batched", "reference"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel == "batched":
        if plan is None:
            if view_ft is None:
                raise ValueError("need view_ft or an explicit plan for the batched kernel")
            dc = distance_computer or DistanceComputer(view_ft.shape[0])
            plan = get_match_plan(dc, volume_ft.shape[0], interpolation)
        if view_band is None:
            if view_ft is None:
                raise ValueError("need view_ft or view_band")
            view_band = plan.gather_view(view_ft)
    current = center
    n_windows = 0
    n_matches = 0
    slid = False
    centers: list[Orientation] = []
    final_on_edge = False
    best: MatchResult | None = None
    # One tracker per search: its k-th-best bound is only valid for this
    # view_band, and it deduplicates candidates re-observed across slides.
    search = PruneSearch(prune) if prune is not None and kernel == "batched" else None
    while True:
        centers.append(current)
        grid = orientation_window(current, step_deg, half_steps)
        if kernel == "batched":
            assert plan is not None and view_band is not None
            best = match_view_window(
                view_band,
                volume_ft,
                grid,
                plan,
                cut_modulation=cut_modulation,
                memo=memo,
                memo_center=memo_center,
                counters=counters,
                prune=search,
            )
        else:
            # repro-lint: allow[RL012] reference oracle branch: exhaustive by design
            best = match_view(
                view_ft,
                volume_ft,
                grid,
                distance_computer=distance_computer,
                interpolation=interpolation,
                cut_modulation=cut_modulation,
            )
        n_windows += 1
        n_matches += best.n_matches
        if any(best.on_edge):
            if n_windows <= max_slides:
                slid = True
                current = best.orientation
                continue
            final_on_edge = True
        break
    assert best is not None
    basins: tuple[Orientation, ...] = ()
    if search is not None and search.params.rank > 1:
        basins = search.basins()
    return SlidingWindowResult(
        orientation=best.orientation,
        distance=best.distance,
        n_windows=n_windows,
        n_matches=n_matches,
        slid=slid,
        centers=tuple(centers),
        final_on_edge=final_on_edge,
        basins=basins,
    )

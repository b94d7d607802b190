"""Per-view refinement at one resolution level (steps f–l combined).

One level of refinement for one view alternates the angular sliding-window
search (with the view corrected to its current center estimate) and the
center box search (against the winning cut).  The orientation *and* center
both live in the :class:`~repro.geometry.euler.Orientation` record, so the
multi-resolution driver simply threads it through the levels.

Two kernels are available.  The default ``kernel="batched"`` gathers the
view's in-band samples once and runs every window, slide, and center box
on band vectors only (see :mod:`repro.align.fused`); ``kernel="reference"``
is the original slice-then-distance path, kept as the test oracle — the
two produce numerically identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.align.distance import DistanceComputer
from repro.align.fused import get_match_plan
from repro.align.memo import OrientationMemo
from repro.arraytypes import Array
from repro.fourier.slicing import extract_slice
from repro.geometry.euler import Orientation
from repro.imaging.center import phase_shift_ft
from repro.perf import PerfCounters
from repro.refine.center_refine import refine_center
from repro.refine.prune import PruneParams
from repro.refine.window import sliding_window_search

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a refine cycle)
    from repro.refine.restrict import SymmetryRestriction

__all__ = ["ViewRefinementResult", "refine_view_at_level"]


@dataclass(frozen=True)
class ViewRefinementResult:
    """Bookkeeping for one view × one level.

    ``n_matches`` counts angular matching operations, ``n_center_evals``
    center evaluations; ``slid_window`` / ``slid_center`` record whether the
    respective sliding mechanisms fired (the §5 observation).  ``basins``
    carries the top-k distinct orientations of the winning seed's last
    window search when multi-basin pruning is on (empty otherwise) — the
    next level's seeds.
    """

    orientation: Orientation
    distance: float
    n_windows: int
    n_matches: int
    n_center_evals: int
    slid_window: bool
    slid_center: bool
    basins: tuple[Orientation, ...] = ()


def refine_view_at_level(
    view_ft: Array,
    volume_ft: Array,
    orientation: Orientation,
    angular_step_deg: float,
    center_step_px: float,
    half_steps: int | tuple[int, int, int] = 4,
    center_half_steps: int = 1,
    max_slides: int = 8,
    distance_computer: DistanceComputer | None = None,
    interpolation: str = "trilinear",
    refine_centers: bool = True,
    inner_iterations: int = 2,
    cut_modulation: Array | None = None,
    kernel: str = "batched",
    memo: OrientationMemo | None = None,
    counters: PerfCounters | None = None,
    prune: PruneParams | None = None,
    seed_basins: tuple[Orientation, ...] | None = None,
    symmetry: "SymmetryRestriction | None" = None,
) -> ViewRefinementResult:
    """Steps f–l for one view at one (r_angular, δ_center) level.

    ``view_ft`` must already be CTF-corrected (step e) but NOT
    center-corrected: the current center estimate in ``orientation`` is
    applied here, and the refined center replaces it in the result.

    ``inner_iterations`` alternates the center search and the angular
    search: the two estimates are coupled (a wrong center superimposes a
    phase ramp on the whole band, corrupting the angular landscape, and
    vice versa).  Each inner iteration therefore refines the center
    *first*, against the cut at the current orientation — the center fit is
    robust to moderate angular error, the reverse is not — and then runs
    the angular window with the corrected center.  The loop exits early
    once neither estimate changes.

    ``kernel`` selects the matching implementation: ``"batched"``
    (default: in-band, whole-window engine with the optional per-view
    orientation ``memo`` and ``counters``) or ``"reference"`` (full cut
    stacks, the test oracle).  Both produce identical numbers; ``memo`` /
    ``counters`` are ignored by ``"reference"``.

    ``prune`` enables the early-termination bound inside each window scan
    (batched kernel only).  ``seed_basins`` — the previous level's top-k
    basin centers — fans the whole level out once per seed (capped at
    ``prune.top_k``); the best seed's result wins, operation counts are
    summed over all seeds, and the winner's own basins are reported for
    the next level.

    ``symmetry`` (a :class:`~repro.refine.restrict.SymmetryRestriction`,
    batched kernel only) canonicalizes the incoming seed(s) into the
    asymmetric unit before searching — the local window walk then stays
    near the AU by construction (DESIGN.md §13).  Memo and prune keys stay
    the exact candidate floats, so memo on and off are bitwise equal.
    """
    if inner_iterations < 1:
        raise ValueError("inner_iterations must be >= 1")
    if kernel not in ("batched", "reference"):
        raise ValueError(f"unknown kernel {kernel!r}")
    batched = kernel == "batched"
    if batched:
        dc = distance_computer or DistanceComputer(view_ft.shape[0])
        plan = get_match_plan(dc, volume_ft.shape[0], interpolation)
        view_band = plan.gather_view(view_ft)
    else:
        dc = distance_computer
        plan = None
        view_band = None

    def _center_pass(current: Orientation) -> tuple[Orientation, float, int, bool]:
        if batched:
            cut_band = plan.cut_band(volume_ft, current.matrix())
            center = refine_center(
                None,
                None,
                center=(current.cx, current.cy),
                step_px=center_step_px,
                half_steps=center_half_steps,
                max_slides=max_slides,
                cut_modulation=cut_modulation,
                kernel="batched",
                plan=plan,
                view_band=view_band,
                cut_band=cut_band,
            )
        else:
            cut = extract_slice(
                volume_ft, current.matrix(), order=interpolation, out_size=view_ft.shape[0]
            )
            center = refine_center(
                view_ft,
                cut,
                center=(current.cx, current.cy),
                step_px=center_step_px,
                half_steps=center_half_steps,
                max_slides=max_slides,
                distance_computer=dc,
                cut_modulation=cut_modulation,
                kernel="reference",
            )
        return (
            current.with_center(center.cx, center.cy),
            center.distance,
            center.n_evaluations,
            center.slid,
        )

    def _refine_from(start: Orientation) -> ViewRefinementResult:
        current = start
        n_windows_total = 0
        n_matches_total = 0
        n_center_total = 0
        slid_window = False
        slid_center = False
        distance = np.inf
        basins: tuple[Orientation, ...] = ()
        for _ in range(inner_iterations if refine_centers else 1):
            previous = current
            if refine_centers:
                current, distance, n_evals, slid = _center_pass(current)
                n_center_total += n_evals
                slid_center = slid_center or slid
            # step f prerequisite: correct the view to the current center estimate
            if batched:
                corrected_band = plan.phase_shift_band(view_band, -current.cx, -current.cy)
                window = sliding_window_search(
                    None,
                    volume_ft,
                    current,
                    step_deg=angular_step_deg,
                    half_steps=half_steps,
                    max_slides=max_slides,
                    cut_modulation=cut_modulation,
                    kernel=kernel,
                    plan=plan,
                    view_band=corrected_band,
                    memo=memo,
                    memo_center=(current.cx, current.cy),
                    counters=counters,
                    prune=prune,
                )
            else:
                corrected = view_ft
                if current.cx != 0.0 or current.cy != 0.0:
                    corrected = phase_shift_ft(view_ft, -current.cx, -current.cy)
                window = sliding_window_search(
                    corrected,
                    volume_ft,
                    current,
                    step_deg=angular_step_deg,
                    half_steps=half_steps,
                    max_slides=max_slides,
                    distance_computer=dc,
                    interpolation=interpolation,
                    cut_modulation=cut_modulation,
                    kernel="reference",
                    prune=prune,
                )
            current = window.orientation
            distance = window.distance
            basins = window.basins
            n_windows_total += window.n_windows
            n_matches_total += window.n_matches
            slid_window = slid_window or window.slid
            if current.as_tuple() == previous.as_tuple():
                break
        if refine_centers:
            # final polish: the last angular winner deserves a matching center
            current, distance, n_evals, slid = _center_pass(current)
            n_center_total += n_evals
            slid_center = slid_center or slid
        return ViewRefinementResult(
            orientation=current,
            distance=distance,
            n_windows=n_windows_total,
            n_matches=n_matches_total,
            n_center_evals=n_center_total,
            slid_window=slid_window,
            slid_center=slid_center,
            basins=basins,
        )

    seeds: tuple[Orientation, ...] = (orientation,)
    if seed_basins:
        limit = prune.top_k if prune is not None else len(seed_basins)
        seeds = tuple(seed_basins[:limit]) or seeds
    if symmetry is not None and batched:
        seeds = tuple(symmetry.canonicalize(seed) for seed in seeds)
    results = [_refine_from(seed) for seed in seeds]
    best = min(results, key=lambda r: r.distance)
    if len(results) == 1:
        return best
    return ViewRefinementResult(
        orientation=best.orientation,
        distance=best.distance,
        n_windows=sum(r.n_windows for r in results),
        n_matches=sum(r.n_matches for r in results),
        n_center_evals=sum(r.n_center_evals for r in results),
        slid_window=any(r.slid_window for r in results),
        slid_center=any(r.slid_center for r in results),
        basins=best.basins,
    )

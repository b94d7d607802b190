"""Matching one view against a window of calculated cuts (steps f, g, h).

A *matching operation* — the unit the paper counts when analysing
complexity — is: construct one cut ``C_s`` of D̂ at a candidate orientation
and evaluate ``d(F, C_s)``.  :func:`match_view` performs one full window of
``w`` matching operations, vectorized, and reports the minimum together
with whether it lies on the window edge (which triggers the slide in
step i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.align.distance import DistanceComputer
from repro.align.fused import MatchPlan
from repro.align.grid import OrientationGrid
from repro.align.memo import MemoKey, OrientationMemo
from repro.arraytypes import Array
from repro.fourier.slicing import extract_slices
from repro.geometry.euler import Orientation
from repro.perf import PerfCounters

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an align->refine cycle)
    from repro.refine.prune import PruneSearch

__all__ = ["MatchResult", "match_view", "match_view_window"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one window search for one view.

    Attributes
    ----------
    orientation:
        The minimum-distance candidate ``O_µ``.
    distance:
        The minimum distance ``d_µ``.
    flat_index:
        Index of the winner in the grid's C-ordering.
    on_edge:
        Per-angle booleans: winner on the window boundary (step i trigger).
    distances:
        The full distance array over the window (``w`` values), kept for
        diagnostics and for the symmetry detector.
    n_matches:
        Matching operations performed (== grid size).
    """

    orientation: Orientation
    distance: float
    flat_index: int
    on_edge: tuple[bool, bool, bool]
    distances: Array
    n_matches: int


def match_view(
    view_ft: Array,
    volume_ft: Array,
    grid: OrientationGrid,
    distance_computer: DistanceComputer | None = None,
    r_max: float | None = None,
    weights: Array | None = None,
    interpolation: str = "trilinear",
    cut_modulation: Array | None = None,
) -> MatchResult:
    """Steps f–h for one view and one window.

    Parameters
    ----------
    view_ft:
        The (CTF-corrected, center-corrected) centered 2D DFT ``F``.
    volume_ft:
        The centered 3D DFT ``D̂`` of the current map.
    grid:
        Candidate orientations (from :func:`repro.align.orientation_window`).
    distance_computer:
        Reusable pre-masked computer; built on the fly from ``r_max`` /
        ``weights`` when omitted.
    interpolation:
        Cut interpolation order (``"trilinear"`` default).
    cut_modulation:
        Optional per-view |CTF| imposed on every calculated cut before the
        distance (the consistent forward model for phase-flipped views).
    """
    size = view_ft.shape[0]
    dc = distance_computer or DistanceComputer(size, r_max=r_max, weights=weights)
    rotations = grid.rotation_stack()
    # volume_ft may be an oversampled (padded) transform; cuts come back at
    # the view's size either way.
    cuts = extract_slices(volume_ft, rotations, order=interpolation, out_size=size)
    distances = dc.distance_batch(view_ft, cuts, cut_modulation=cut_modulation)
    flat = int(np.argmin(distances))
    return MatchResult(
        orientation=grid.orientation_at(flat),
        distance=float(distances[flat]),
        flat_index=flat,
        on_edge=grid.on_edge(flat),
        distances=distances,
        n_matches=grid.size,
    )


def _grid_memo_keys(grid: OrientationGrid, center: tuple[float, float]) -> list[MemoKey]:
    """Exact-float memo keys for every grid candidate, in :meth:`rotation_stack` order.

    Restricted and unrestricted searches use the same keys, so the memo's
    bit-identity doctrine (:mod:`repro.align.memo`) holds under symmetry too.
    """
    cx, cy = float(center[0]), float(center[1])
    return [
        (t, p, o, cx, cy)
        for t in grid.thetas.tolist()
        for p in grid.phis.tolist()
        for o in grid.omegas.tolist()
    ]


def match_view_window(
    view_band: Array,
    volume_ft: Array,
    grid: OrientationGrid,
    plan: MatchPlan,
    cut_modulation: Array | None = None,
    memo: OrientationMemo | None = None,
    memo_center: tuple[float, float] = (0.0, 0.0),
    counters: PerfCounters | None = None,
    prune: PruneSearch | None = None,
) -> MatchResult:
    """Steps f–h with the batched window engine and the orientation memo.

    The whole window goes through
    :meth:`repro.align.fused.MatchPlan.match_window` — one chunked stacked
    gather, no per-candidate Python — after the ``memo`` (if given) is
    consulted: candidates already scored for this view at the same center
    shift reuse their cached distance, and only the misses are gathered.

    ``memo_center`` is the ``(cx, cy)`` center correction already baked
    into ``view_band`` — it is part of the memo key because a different
    correction phase-shifts the whole band, changing every distance.
    Cached values are exact previous results and misses are scored by a
    per-row kernel on a rotation subset, so the assembled distance array —
    and therefore the argmin — is bit-identical to the memo-disabled call.

    With ``prune`` (a :class:`repro.refine.prune.PruneSearch`) the misses
    are scored best-first — nearest the window center first, in growing
    chunks — through :meth:`MatchPlan.match_window_pruned`, abandoning
    candidates whose partial band distance exceeds the search's running
    k-th-best bound.  Memo hits seed the bound before any gather.
    Abandoned candidates are recorded as ``inf`` and **never** stored in
    the memo (only their lower bound is known); every candidate at or
    below the k-th best is exactly scored, so the argmin — and the
    reported minimum — stay bit-identical to the exhaustive call.
    """
    w = grid.size
    n_pruned = 0
    if memo is None and prune is None:
        distances = np.asarray(
            plan.match_window(
                volume_ft, view_band, grid.rotation_stack(), cut_modulation=cut_modulation
            )
        )
        n_gathered, n_hits = w, 0
    else:
        keys = _grid_memo_keys(grid, memo_center)
        if memo is None:
            distances = np.zeros(w)
            hits = np.zeros(w, dtype=bool)
        else:
            distances, hits = memo.lookup_block(keys)
        miss_idx = np.flatnonzero(~hits)
        if miss_idx.size:
            rots = grid.rotation_stack()
            if prune is None:
                miss_distances = np.asarray(
                    plan.match_window(
                        volume_ft, view_band, rots[miss_idx], cut_modulation=cut_modulation
                    )
                )
                distances[miss_idx] = miss_distances
            else:
                from repro.refine.prune import center_offsets

                hit_idx = np.flatnonzero(hits)
                if hit_idx.size:
                    prune.observe([keys[i] for i in hit_idx.tolist()], distances[hit_idx])
                offsets = center_offsets(grid.shape)
                order = miss_idx[np.argsort(offsets[miss_idx], kind="stable")]
                pos = 0
                chunk_size = prune.params.seed_chunk
                while pos < order.size:
                    take = order[pos : pos + chunk_size]
                    chunk_distances, n_abandoned = plan.match_window_pruned(
                        volume_ft,
                        view_band,
                        rots[take],
                        cut_modulation=cut_modulation,
                        bound=prune.bound(),
                        n_groups=prune.params.shell_groups,
                    )
                    distances[take] = chunk_distances
                    n_pruned += n_abandoned
                    prune.observe([keys[i] for i in take.tolist()], chunk_distances)
                    pos += take.size
                    chunk_size = prune.params.chunk
            if memo is not None:
                scored = miss_idx[np.isfinite(distances[miss_idx])]
                if scored.size:
                    memo.store_block([keys[i] for i in scored.tolist()], distances[scored])
        n_gathered = int(miss_idx.size)
        n_hits = w - n_gathered
    if counters is not None:
        counters.count_window(w, n_gathered, n_hits, n_pruned=n_pruned)
    flat = int(np.argmin(distances))
    return MatchResult(
        orientation=grid.orientation_at(flat),
        distance=float(distances[flat]),
        flat_index=flat,
        on_edge=grid.on_edge(flat),
        distances=distances,
        n_matches=grid.size,
    )

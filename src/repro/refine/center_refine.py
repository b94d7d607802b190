"""Center refinement (steps k–l): slide the view center inside a small box.

With the best-fit cut ``C_µ`` fixed, the view's center is scanned over a
``(2·half_steps+1)²`` box of candidate offsets at the level's center
resolution ``δ_center``.  Each candidate is a pure Fourier phase ramp on
the view's transform (O(l²), no interpolation), so arbitrarily fine
sub-pixel steps — the paper goes down to 0.002 pixel — cost the same as
whole-pixel ones.  The same edge-triggered sliding rule as the angular
window applies.

Two evaluation kernels share the sliding-box loop: the reference path
builds full ``(n, l, l)`` shifted-transform stacks, the batched path
(default) applies the phase ramps only at the in-band samples via a
:class:`~repro.align.fused.MatchPlan`, cutting the per-candidate cost from
``l²`` to ``n_band`` with numerically identical distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.align.distance import DistanceComputer
from repro.align.fused import MatchPlan, get_match_plan
from repro.align.grid import step_offsets
from repro.arraytypes import Array
from repro.fourier.transforms import frequency_grid_2d
from repro.utils import require_square

__all__ = ["CenterRefineResult", "refine_center"]


@dataclass(frozen=True)
class CenterRefineResult:
    """Outcome of the center search for one view at one level.

    ``cx``/``cy`` are the refined particle-center offsets in pixels
    (``x_center_opt``, ``y_center_opt`` of step k); ``n_evaluations`` counts
    candidate centers tried (the paper's ``n_center`` summed over slides).
    """

    cx: float
    cy: float
    distance: float
    n_boxes: int
    n_evaluations: int
    slid: bool


def _shift_stack(view_ft: Array, dxs: Array, dys: Array) -> Array:
    """Stack of center-corrected transforms, one per candidate (dx, dy).

    Correcting a particle at offset ``(dx, dy)`` means shifting content by
    ``(−dx, −dy)``: multiply by ``exp(+2πi(kx·dx + ky·dy)/l)``.
    """
    size = view_ft.shape[0]
    ky, kx = frequency_grid_2d(size)
    phase = np.exp(
        2j * np.pi * (kx[None] * dxs[:, None, None] + ky[None] * dys[:, None, None]) / size
    )
    return view_ft[None] * phase


def _box_search(
    evaluate: Callable[[Array, Array], Array],
    cx: float,
    cy: float,
    step_px: float,
    half_steps: int,
    max_slides: int,
) -> CenterRefineResult:
    """The sliding center-box loop, independent of the distance kernel.

    ``evaluate(dxs, dys)`` returns the distance per candidate absolute
    center; the box recenters on an edge winner up to ``max_slides`` times.
    """
    n_boxes = 0
    n_evals = 0
    slid = False
    nside = 2 * half_steps + 1
    while True:
        offs = step_offsets(half_steps, step_px)
        dxs = (cx + offs)[:, None].repeat(nside, axis=1).ravel()
        dys = (cy + offs)[None, :].repeat(nside, axis=0).ravel()
        d = evaluate(dxs, dys)
        i = int(np.argmin(d))
        n_boxes += 1
        n_evals += d.size
        best_cx, best_cy, best_d = float(dxs[i]), float(dys[i]), float(d[i])
        ix, iy = divmod(i, nside)
        on_edge = half_steps > 0 and (
            ix == 0 or ix == nside - 1 or iy == 0 or iy == nside - 1
        )
        if on_edge and n_boxes <= max_slides:
            slid = True
            cx, cy = best_cx, best_cy
            continue
        return CenterRefineResult(
            cx=best_cx, cy=best_cy, distance=best_d, n_boxes=n_boxes, n_evaluations=n_evals, slid=slid
        )


def refine_center(
    view_ft: Array | None,
    cut_ft: Array | None,
    center: tuple[float, float],
    step_px: float,
    half_steps: int = 1,
    max_slides: int = 8,
    distance_computer: DistanceComputer | None = None,
    cut_modulation: Array | None = None,
    kernel: str = "batched",
    plan: MatchPlan | None = None,
    view_band: Array | None = None,
    cut_band: Array | None = None,
) -> CenterRefineResult:
    """Steps k–l for one view against its best-fit cut.

    Parameters
    ----------
    view_ft:
        The *uncorrected* view transform (center offsets are applied here,
        not baked in, so successive levels can re-derive finer centers).
        May be ``None`` when ``view_band`` (and the batched kernel) is supplied.
    cut_ft:
        The minimum-distance cut ``C_µ`` from the angular search.  May be
        ``None`` when ``cut_band`` is supplied.
    center:
        Current center estimate ``(cx, cy)`` in pixels.
    step_px:
        Center resolution ``δ_center`` of this level.
    half_steps:
        Box half-width in steps (1 gives the paper's example 3×3 box,
        ``n_center = 9``).
    kernel:
        ``"batched"`` (default) evaluates the whole box on the in-band
        samples as one band-vector stack; ``"reference"`` builds full
        shifted-transform stacks.  Both produce identical distances.
    plan / view_band / cut_band:
        Optional precomputed batched-kernel state (from the per-view driver);
        derived on the fly from the full arrays when omitted.
    """
    if step_px <= 0:
        raise ValueError("step_px must be positive")
    if half_steps < 0:
        raise ValueError("half_steps must be non-negative")
    if kernel not in ("batched", "reference"):
        raise ValueError(f"unknown kernel {kernel!r}")
    cx, cy = float(center[0]), float(center[1])

    if kernel == "reference":
        if view_ft is None or cut_ft is None:
            raise ValueError("the reference kernel needs full view_ft and cut_ft arrays")
        size = require_square(view_ft, "view_ft")
        dc = distance_computer or DistanceComputer(size)

        def evaluate(dxs: Array, dys: Array) -> Array:
            stack = _shift_stack(np.asarray(view_ft), dxs, dys)
            return dc.distance_many_to_one(stack, cut_ft, cut_modulation=cut_modulation)

        return _box_search(evaluate, cx, cy, step_px, half_steps, max_slides)

    # batched kernel: everything happens on the band vectors
    if plan is None:
        if view_ft is None:
            raise ValueError("need view_ft or an explicit plan for the batched kernel")
        size = require_square(view_ft, "view_ft")
        dc = distance_computer or DistanceComputer(size)
        plan = get_match_plan(dc, size)
    dc = plan.dc
    if view_band is None:
        if view_ft is None:
            raise ValueError("need view_ft or view_band")
        view_band = dc.gather(view_ft)
    if cut_band is None:
        if cut_ft is None:
            raise ValueError("need cut_ft or cut_band")
        cut_band = dc.gather(cut_ft)

    def evaluate_band(dxs: Array, dys: Array) -> Array:
        stack_band = view_band[None, :] * plan.shift_ramps(dxs, dys)
        return np.asarray(
            dc.distance_band(stack_band, cut_band, cut_modulation=cut_modulation)
        )

    return _box_search(evaluate_band, cx, cy, step_px, half_steps, max_slides)

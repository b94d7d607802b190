"""Continuous least-squares polish of one view's orientation (DESIGN.md §11).

The finest schedule levels (0.01°, 0.002° in the paper's Table 1 run)
exist only to localize a minimum the 0.1° level has already bracketed —
thousands of exhaustively scored candidates per view for what is, by
then, a smooth 5-parameter least-squares problem.  This module replaces
them with a damped Gauss–Newton (Levenberg–Marquardt) descent on the
*continuous* in-band objective

    r(θ, φ, ω, cx, cy) = √w · (Ĉ(θ, φ, ω)·m − F̂·shift(−cx, −cy)) ,
    d = ‖r‖ / l² ,

which is exactly the §3 distance the grid search minimizes: ``Ĉ`` is the
in-band central cut (:meth:`~repro.align.fused.MatchPlan.cut_band`),
``m`` the optional CTF modulation, ``F̂`` the phase-shifted view band and
``w`` the band weights.  Angle derivatives use central differences with
all six perturbed rotations gathered in **one** batched
:meth:`~repro.align.fused.MatchPlan.cut_bands` call; center derivatives
only touch the in-band phase ramp and cost no volume gathers at all.

Accepted distances go through :meth:`DistanceComputer.distance_band`, so
a polished value is the same number the grid search would report for that
continuous point, and every scalar evaluation is memoized under the exact
``(θ, φ, ω, cx, cy)`` key shared with the window engine's orientation
memo — the start point (a grid candidate) is typically already present.

Polish trades bit-identity for continuous optima, so it is gated by an
explicit accuracy tolerance (the replaced schedule tail's final angular
step) rather than the exhaustive-equivalence oracle; the monotone
accept-only LM loop guarantees the polished distance never exceeds the
start's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.arraytypes import Array
from repro.geometry.euler import Orientation, euler_to_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.align.fused import MatchPlan
    from repro.align.memo import OrientationMemo
    from repro.perf import PerfCounters

__all__ = ["PolishResult", "polish_view"]

#: Central-difference steps: degrees for the three angles, pixels for the
#: center.  Small enough that the quadratic model is accurate near the
#: 0.1° basin, large enough to stay far above gather rounding noise.
_H_DEG = 1e-3
_H_PX = 1e-3

#: Damping ceiling: above this the trust region is sub-numerical-noise
#: sized and the current point is declared a (converged) local minimum.
_LAMBDA_MAX = 1e6


@dataclass(frozen=True)
class PolishResult:
    """Outcome of one view's polish: the continuous minimum found.

    ``final_step_deg`` is the largest angular component (degrees) of the
    last *accepted* LM update — the angular resolution the descent reached
    before the acceptance/tolerance tests stopped it.  The accuracy gate
    compares it against the replaced schedule tail's final angular step.
    It is 0.0 when no step was ever accepted (the start was already a
    local minimum at the probe resolution).
    """

    orientation: Orientation
    distance: float
    n_iterations: int
    converged: bool
    final_step_deg: float = 0.0


def polish_view(
    view_band: Array,
    volume_ft: Array,
    plan: MatchPlan,
    start: Orientation,
    *,
    cut_modulation: Array | None = None,
    max_iters: int = 30,
    tol: float = 1e-8,
    damping: float = 1e-3,
    memo: OrientationMemo | None = None,
    counters: PerfCounters | None = None,
) -> PolishResult:
    """Levenberg–Marquardt descent from ``start`` on the continuous objective.

    Only strictly-improving steps are accepted, so the returned distance
    is ≤ the start's §3 distance; ``converged`` is True when the loop
    stopped on the relative-improvement tolerance or damping ceiling
    rather than the iteration cap.
    """
    dc = plan.dc
    if dc.normalized:
        raise ValueError("polish_view requires the plain (unnormalized) §3 distance")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    vol = np.asarray(volume_ft)
    view = np.asarray(view_band)
    mod_band: Array | None = None
    if cut_modulation is not None:
        arr = np.asarray(cut_modulation)
        mod_band = dc.gather_modulation(arr) if arr.ndim == 2 else arr
    weights = dc.band_weights
    sqrt_w = None if weights is None else np.sqrt(weights)

    def shifted_view(cx: float, cy: float) -> Array:
        return plan.phase_shift_band(view, -cx, -cy)

    def residual(cut: Array, view_shifted: Array) -> Array:
        r = (cut if mod_band is None else cut * mod_band) - view_shifted
        return r if sqrt_w is None else r * sqrt_w

    def distance_at(p: Array, cut: Array | None = None) -> tuple[float, Array | None]:
        """Scalar §3 distance at ``p``, memo-cached under the exact key."""
        key = (float(p[0]), float(p[1]), float(p[2]), float(p[3]), float(p[4]))
        if cut is None and memo is not None:
            hit = memo.get(key)
            if hit is not None:
                return float(hit), None
        if cut is None:
            cut = plan.cut_band(vol, euler_to_matrix(p[0], p[1], p[2]))
        d = float(
            dc.distance_band(shifted_view(p[3], p[4]), cut, cut_modulation=mod_band)
        )
        if memo is not None:
            memo.put(key, d)
        return d, cut

    p = np.array([start.theta, start.phi, start.omega, start.cx, start.cy], dtype=float)
    d, cut = distance_at(p)
    lam = float(damping)
    n_iters = 0
    converged = False
    final_step_deg = 0.0
    for _ in range(max_iters):
        n_iters += 1
        if cut is None:
            # A memo hit returned only the scalar; the Jacobian base point
            # needs the cut itself.  One single-rotation gather, outside
            # the per-candidate regime RL010 patrols.
            cut = plan.cut_band(vol, euler_to_matrix(p[0], p[1], p[2]))  # repro-lint: allow[RL010] single Jacobian base cut, not a candidate loop
        view_shifted = shifted_view(p[3], p[4])
        r = residual(cut, view_shifted)
        # All six angle-perturbed rotations through one batched gather.
        angles = np.repeat(p[None, :3], 6, axis=0)
        for j in range(3):
            angles[2 * j, j] += _H_DEG
            angles[2 * j + 1, j] -= _H_DEG
        rots = euler_to_matrix(angles[:, 0], angles[:, 1], angles[:, 2])
        cuts6 = plan.cut_bands(vol, rots)
        cols = [
            (residual(cuts6[2 * j], view_shifted) - residual(cuts6[2 * j + 1], view_shifted))
            / (2.0 * _H_DEG)
            for j in range(3)
        ]
        for axis in (3, 4):
            hi = p.copy()
            lo = p.copy()
            hi[axis] += _H_PX
            lo[axis] -= _H_PX
            cols.append(
                (residual(cut, shifted_view(hi[3], hi[4])) - residual(cut, shifted_view(lo[3], lo[4])))
                / (2.0 * _H_PX)
            )
        jac = np.stack(cols, axis=1)  # (n_band, 5) complex
        normal = np.real(jac.conj().T @ jac)
        grad = np.real(jac.conj().T @ r)
        diag = np.diag(normal).copy()
        diag[diag <= 0.0] = 1.0
        d_before = d
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                delta = np.linalg.solve(normal + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            d_trial, cut_trial = distance_at(p + delta)
            if d_trial < d:
                p = p + delta
                d, cut = d_trial, cut_trial
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                final_step_deg = float(np.max(np.abs(delta[:3])))
                break
            lam *= 4.0
        if not accepted or d_before - d <= tol * d_before:
            converged = True
            break
    if counters is not None:
        counters.count_polish(n_iters)
    return PolishResult(
        orientation=Orientation(
            float(p[0]), float(p[1]), float(p[2]), float(p[3]), float(p[4])
        ),
        distance=d,
        n_iterations=n_iters,
        converged=converged,
        final_step_deg=final_step_deg,
    )

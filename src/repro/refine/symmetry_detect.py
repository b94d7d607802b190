"""Symmetry detection for a map of unknown symmetry (§3, §6 claim).

The paper's method does not assume symmetry but "can detect symmetry if one
exists".  A rotation ``g`` is a symmetry of the map iff ``ρ(g⁻¹r) = ρ(r)``;
we score candidates by self-consistency under ``g`` and search axes:

1. score candidate axes from a quasi-uniform sphere grid at orders
   2..max_order;
2. locally polish promising axes (Nelder–Mead on the two spherical
   coordinates, stopped once the score moves by less than 1e-5);
3. accept axes scoring far below the null distribution of random
   rotations; attempt a full polyhedral-group fit (T/O/I) on the accepted
   axes (:mod:`repro.refine.group_fit`); otherwise close the generators
   into a group and classify it.

Two scoring backends are available:

* ``method="real"`` (default) — Pearson correlation between the map and its
  spline-rotated copy inside the inscribed sphere; accurate even for
  smooth, nearly-spherical maps.  Everything that does not depend on the
  rotation (spline coefficients, voxel grid, centred reference and its
  norm) is computed once per map in a :class:`RealScorePlan`, so a score
  costs one cubic interpolation of the sphere's voxels;
* ``method="fourier"`` — the paper-flavored test, comparing central cuts of
  D̂ at probe orientations ``R`` and ``g·R`` with the refinement's own
  distance; cheaper per candidate (O(l²) vs O(l³)) but noisier because the
  trilinear slice error does not cancel between differently-oriented cuts.

Both are *costs*: lower means more symmetric.  For the real backend the
cost is ``1 − correlation``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.arraytypes import Array
from scipy import ndimage, optimize

from repro.align.distance import DistanceComputer
from repro.density.map import DensityMap
from repro.fourier.slicing import extract_slice
from repro.geometry.euler import random_orientations
from repro.geometry.rotations import axis_angle_to_matrix
from repro.geometry.sphere import fibonacci_sphere
from repro.geometry.symmetry import SymmetryGroup, close_group, identify_point_group
from repro.utils import default_rng

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an engine cycle)
    from repro.engine.backends import ExecutionBackend

__all__ = [
    "RealScorePlan",
    "SymmetryDetectionResult",
    "detect_symmetry",
    "score_rotation",
    "score_rotation_real",
    "make_rotation_scorer",
]

RotationScorer = Callable[[Array], float]


@dataclass
class SymmetryDetectionResult:
    """What the detector found.

    Attributes
    ----------
    group_name:
        Schoenflies symbol (``"C1"`` when nothing was detected).
    group:
        The closed rotation group.
    axes:
        Accepted ``(axis, order, score)`` generators.
    null_mean, null_std:
        The random-rotation score distribution used for thresholding.
    threshold:
        Acceptance threshold actually applied.
    """

    group_name: str
    group: SymmetryGroup
    axes: list[tuple[Array, int, float]] = field(default_factory=list)
    null_mean: float = 0.0
    null_std: float = 0.0
    threshold: float = 0.0


def score_rotation(
    volume_ft: Array,
    rotation: Array,
    probes: Array,
    distance_computer: DistanceComputer,
) -> float:
    """Fourier-backend cost: mean cut self-distance of D̂ under ``rotation``.

    ``probes`` is a stack of probe rotation matrices; each contributes
    ``d(cut(R), cut(g·R))``.  Zero (up to interpolation error) iff ``g`` is
    a symmetry.
    """
    g = np.asarray(rotation, dtype=float)
    size = distance_computer.size
    total = 0.0
    for r in probes:
        a = extract_slice(volume_ft, r, out_size=size)
        b = extract_slice(volume_ft, g @ r, out_size=size)
        total += distance_computer.distance(a, b)
    return total / len(probes)


def remove_radial_average(data: Array) -> Array:
    """Subtract the rotation-invariant radial profile from a map.

    The spherically symmetric part of a capsid (the shell itself)
    correlates perfectly under *every* rotation and would flood the
    symmetry statistic; removing it leaves only the angular structure that
    actually discriminates symmetries.
    """
    l = data.shape[0]
    c = l // 2
    k = np.arange(l) - c
    zz, yy, xx = np.meshgrid(k, k, k, indexing="ij")
    r = np.rint(np.sqrt(xx * xx + yy * yy + zz * zz)).astype(np.int64)
    rmax = int(r.max())
    sums = np.bincount(r.ravel(), weights=data.ravel(), minlength=rmax + 1)
    counts = np.maximum(np.bincount(r.ravel(), minlength=rmax + 1), 1)
    profile = sums / counts
    return data - profile[r]


@dataclass(frozen=True)
class RealScorePlan:
    """The rotation-invariant half of :func:`score_rotation_real`, built once per map.

    Only voxels inside the inscribed sphere (``r ≤ l/2 − 0.5``) take part:
    outside it a rotated copy samples mostly the zero padding, so the
    corners add interpolation work but no symmetry evidence.

    Attributes
    ----------
    coeffs:
        Cubic-spline coefficients of the map (``mode="constant"``), sampled
        with ``prefilter=False`` — the filter ``map_coordinates`` would
        otherwise re-run on every call.
    points:
        ``(3, n)`` centred voxel coordinates (rows x, y, z) of the sphere.
    center:
        Index of the map origin, ``l // 2``.
    reference:
        The map at ``points``, minus its mean.
    reference_norm:
        ``‖reference‖``.
    """

    coeffs: Array
    points: Array
    center: int
    reference: Array
    reference_norm: float

    @classmethod
    def from_data(cls, data: Array) -> "RealScorePlan":
        """Build the plan for a cubic map (normally radially flattened)."""
        l = data.shape[0]
        c = l // 2
        k = np.arange(l) - c
        zz, yy, xx = np.meshgrid(k, k, k, indexing="ij")
        inside = xx * xx + yy * yy + zz * zz <= (l / 2 - 0.5) ** 2
        points = np.stack([xx[inside], yy[inside], zz[inside]]).astype(np.float64)
        reference = data[inside] - data[inside].mean()
        return cls(
            coeffs=ndimage.spline_filter(data, 3, output=np.float64, mode="constant"),
            points=points,
            center=c,
            reference=reference,
            reference_norm=float(np.linalg.norm(reference)),
        )


def score_rotation_real(
    data: Array, rotation: Array, plan: RealScorePlan | None = None
) -> float:
    """Real-backend cost: ``1 − corr(ρ, ρ∘g)`` over the inscribed sphere.

    The rotated copy is a cubic-spline resample.  ``plan`` must come from
    :meth:`RealScorePlan.from_data` on ``data``; it is built here when
    omitted, which gives the same bits at a higher price.  The caller is
    expected to pass a radially-flattened map (see
    :func:`remove_radial_average`); :func:`make_rotation_scorer` does this
    automatically.
    """
    if plan is None:
        plan = RealScorePlan.from_data(data)
    g = np.asarray(rotation, dtype=float)
    # reversed rows give (z, y, x) index order, as map_coordinates expects
    coords = g[::-1] @ plan.points + plan.center
    rotated = ndimage.map_coordinates(
        plan.coeffs, coords, order=3, mode="constant", prefilter=False
    )
    b = rotated - rotated.mean()
    denom = plan.reference_norm * np.linalg.norm(b)
    if denom == 0:
        return 1.0
    return float(1.0 - plan.reference @ b / denom)


def make_rotation_scorer(
    density: DensityMap,
    method: str = "real",
    r_max: float | None = None,
    n_probes: int = 4,
    seed: int | np.random.Generator | None = 0,
) -> RotationScorer:
    """Build the scoring callable used throughout the detector."""
    if method == "real":
        data = remove_radial_average(density.data)
        plan = RealScorePlan.from_data(data)

        def scorer(rotation: Array) -> float:
            return score_rotation_real(data, rotation, plan)

        return scorer
    if method == "fourier":
        volume_ft = density.fourier_oversampled(2)
        dc = DistanceComputer(density.size, r_max=r_max)
        probes = np.stack(
            [o.matrix() for o in random_orientations(n_probes, seed=seed)]
        )

        def scorer(rotation: Array) -> float:
            return score_rotation(volume_ft, rotation, probes, dc)

        return scorer
    raise ValueError(f"unknown scoring method {method!r}")


def _axis_score(scorer: RotationScorer, axis: Array, order: int) -> float:
    return scorer(axis_angle_to_matrix(axis, 360.0 / order))


#: Axes per fan-out task in the coarse sweep.  Small enough that every
#: worker gets several tasks even at the default ``n_axes``, large enough
#: that the per-task pickling of the flattened map amortizes.
_SWEEP_CHUNK = 16


def _sweep_task(payload: tuple[Array, Array, int]) -> list[float]:
    """Score one (axes-chunk, order) cell of the coarse sweep.

    Module-level and pure — a function of the radially-flattened map and
    the candidate rotations only — so it pickles into
    :meth:`~repro.engine.backends.ExecutionBackend.run_tasks` workers and
    returns the exact numbers the serial loop computes.
    """
    flat, axes, order = payload
    plan = RealScorePlan.from_data(flat)
    return [
        score_rotation_real(flat, axis_angle_to_matrix(a, 360.0 / order), plan)
        for a in axes
    ]


def _polish_axis(
    scorer: RotationScorer, axis: Array, order: int
) -> tuple[Array, float]:
    """Nelder–Mead refinement of an axis in spherical coordinates."""
    theta0 = float(np.arccos(np.clip(axis[2], -1.0, 1.0)))
    phi0 = float(np.arctan2(axis[1], axis[0]))

    def objective(x: Array) -> float:
        t, p = x
        a = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
        return _axis_score(scorer, a, order)

    res = optimize.minimize(
        objective, np.array([theta0, phi0]), method="Nelder-Mead",
        options={"xatol": 1e-3, "fatol": 1e-5, "maxiter": 120},
    )
    t, p = res.x
    best = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
    return best, float(res.fun)


def detect_symmetry(
    density: DensityMap,
    max_order: int = 6,
    n_axes: int = 300,
    n_probes: int = 4,
    r_max: float | None = None,
    accept_factor: float = 0.2,
    seed: int | np.random.Generator | None = 0,
    max_group_order: int = 120,
    method: str = "real",
    backend: "ExecutionBackend | None" = None,
) -> SymmetryDetectionResult:
    """Detect the point group of a density map.

    Parameters
    ----------
    max_order:
        Highest cyclic order tested per axis (icosahedral groups contain
        only orders 2, 3 and 5, so 6 covers all virus cases).
    n_axes:
        Size of the coarse axis grid (half-sphere; axes are ± degenerate).
    n_probes:
        Probe orientations per score (``method="fourier"`` only).
    accept_factor:
        An axis is accepted when its polished score is below
        ``accept_factor · null_mean``.
    method:
        Scoring backend, ``"real"`` (robust default) or ``"fourier"``
        (the paper-flavored slice test).
    backend:
        Optional :class:`~repro.engine.backends.ExecutionBackend` to fan
        the axis×order coarse sweep out over
        (:meth:`~repro.engine.backends.ExecutionBackend.run_tasks`).
        Each (axes-chunk, order) cell is an independent pure task that
        scores through its own :class:`RealScorePlan`, so the fanned-out
        scores are identical to the serial ones.  The sweep is not the
        main cost: on the 24³ Sindbis-like map at the engine defaults it
        is 240 of 851 scores, and the serial axis and frame polish make
        up 578 of the rest.
        ``method="real"`` only; other methods sweep serially.
    """
    rng = default_rng(seed)
    scorer = make_rotation_scorer(
        density, method=method, r_max=r_max, n_probes=n_probes, seed=rng
    )

    # Null distribution: scores of random (almost surely non-symmetry) rotations.
    null_rots = random_orientations(16, seed=rng)
    null_scores = np.array([scorer(o.matrix()) for o in null_rots])
    null_mean = float(null_scores.mean())
    null_std = float(null_scores.std())
    threshold = accept_factor * null_mean

    # Coarse axis scan on the half sphere.
    axes = fibonacci_sphere(2 * n_axes)
    axes = axes[axes[:, 2] >= -1e-9][:n_axes]
    swept: dict[int, Array] | None = None
    if backend is not None and method == "real":
        flat = remove_radial_average(density.data)
        payloads: list[tuple[Array, Array, int]] = []
        cells: list[tuple[int, int]] = []
        for order in range(2, max_order + 1):
            for lo in range(0, len(axes), _SWEEP_CHUNK):
                payloads.append((flat, axes[lo : lo + _SWEEP_CHUNK], order))
                cells.append((order, lo))
        chunk_scores = backend.run_tasks(_sweep_task, payloads)
        swept = {order: np.empty(len(axes)) for order in range(2, max_order + 1)}
        for (order, lo), vals in zip(cells, chunk_scores):
            swept[order][lo : lo + len(vals)] = vals
    found: list[tuple[Array, int, float]] = []
    for order in range(2, max_order + 1):
        if swept is not None:
            scores = swept[order]
        else:
            scores = np.array([_axis_score(scorer, a, order) for a in axes])
        # polish the best few candidates per order
        for i in np.argsort(scores)[:3]:
            if scores[i] > 0.8 * null_mean:
                continue
            axis, s = _polish_axis(scorer, axes[i], order)
            if s < threshold:
                if not any(
                    o == order
                    and (np.allclose(a, axis, atol=0.05) or np.allclose(a, -axis, atol=0.05))
                    for a, o, _ in found
                ):
                    found.append((axis, order, s))

    if not found:
        return SymmetryDetectionResult(
            group_name="C1",
            group=SymmetryGroup("C1", np.eye(3)[None]),
            axes=[],
            null_mean=null_mean,
            null_std=null_std,
            threshold=threshold,
        )

    # Polyhedral fit: if the detected axes are consistent with T, O or I,
    # conjugate the full canonical group into the detected frame and verify
    # element-by-element — this promotes "found some 2- and 3-folds" to the
    # complete group even when axis noise prevents direct closure.
    if len(found) >= 2:
        from repro.refine.group_fit import fit_polyhedral_group

        fit = fit_polyhedral_group(
            scorer, found, threshold=max(threshold, 0.3 * null_mean)
        )
        if fit is not None:
            name, group = fit
            return SymmetryDetectionResult(
                group_name=name,
                group=group,
                axes=found,
                null_mean=null_mean,
                null_std=null_std,
                threshold=threshold,
            )

    # Cyclic/dihedral closure with verification: a spuriously accepted axis
    # (e.g. a 5-fold slipping under the threshold on a nearly-cylindrical
    # C4 object) would close into a too-large group; verify sampled
    # elements of the closed group and drop the weakest axis until the
    # closure is self-consistent.
    remaining = sorted(found, key=lambda t: t[2])
    while remaining:
        generators = [axis_angle_to_matrix(a, 360.0 / o) for a, o, _ in remaining]
        try:
            matrices = close_group(generators, max_order=max_group_order, tol=1e-3)
        except ValueError:
            remaining = remaining[:-1]
            continue
        sample = matrices[1 :: max(1, (len(matrices) - 1) // 8)][:8]
        if all(scorer(g) <= 1.5 * threshold for g in sample):
            name = identify_point_group(matrices)
            return SymmetryDetectionResult(
                group_name=name,
                group=SymmetryGroup(name, matrices),
                axes=remaining,
                null_mean=null_mean,
                null_std=null_std,
                threshold=threshold,
            )
        remaining = remaining[:-1]
    return SymmetryDetectionResult(
        group_name="C1",
        group=SymmetryGroup("C1", np.eye(3)[None]),
        axes=[],
        null_mean=null_mean,
        null_std=null_std,
        threshold=threshold,
    )

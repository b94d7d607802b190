"""Fitting full point groups to detected symmetry axes.

The axis scan in :mod:`repro.refine.symmetry_detect` finds individual
rotation axes; for the polyhedral groups (T, O, I) the full group can then
be *fitted*: pick a detected axis pair whose orders and mutual angle match
a canonical pair of the candidate group, construct the rotation that maps
the canonical frame onto the detected one, conjugate the whole canonical
group into that frame, and verify sampled elements against the map.  This
turns "found a 3-fold and some 2-folds" into a confident "the group is I".

All scoring goes through the detector's rotation-scorer callable, so the
fit works identically with the real-space and Fourier backends.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arraytypes import Array
from repro.geometry.rotations import axis_angle_to_matrix, matrix_to_axis_angle
from repro.geometry.symmetry import (
    SymmetryGroup,
    icosahedral_group,
    octahedral_group,
    tetrahedral_group,
)

__all__ = ["group_axes", "frame_from_axis_pair", "fit_polyhedral_group"]

RotationScorer = Callable[[Array], float]


def group_axes(group: SymmetryGroup) -> list[tuple[Array, int]]:
    """Distinct (axis, maximal order) pairs of a group (canonical signs)."""
    found: list[tuple[Array, int]] = []
    for g in group.matrices:
        axis, angle = matrix_to_axis_angle(g)
        if angle < 1e-6:
            continue
        order = int(round(360.0 / angle))
        if order < 2:
            continue
        for i in range(3):
            if abs(axis[i]) > 1e-9:
                if axis[i] < 0:
                    axis = -axis
                break
        hit = False
        for j, (a, o) in enumerate(found):
            if np.allclose(a, axis, atol=1e-6):
                found[j] = (a, max(o, order))
                hit = True
                break
        if not hit:
            found.append((axis, order))
    return found


def frame_from_axis_pair(
    canon_a: Array, canon_b: Array, det_a: Array, det_b: Array
) -> Array:
    """Rotation ``U`` mapping the canonical axis pair onto the detected one.

    ``U·canon_a = det_a`` exactly; ``canon_b`` is mapped as close to
    ``det_b`` as the (fixed) mutual angle allows.
    """

    def orthonormal_frame(a: Array, b: Array) -> Array:
        e1 = a / np.linalg.norm(a)
        b_perp = b - np.dot(b, e1) * e1
        n = np.linalg.norm(b_perp)
        if n < 1e-9:
            # degenerate (parallel axes): any perpendicular completes it
            helper = np.array([1.0, 0.0, 0.0]) if abs(e1[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
            b_perp = helper - np.dot(helper, e1) * e1
            n = np.linalg.norm(b_perp)
        e2 = b_perp / n
        e3 = np.cross(e1, e2)
        return np.stack([e1, e2, e3], axis=1)

    fc = orthonormal_frame(np.asarray(canon_a, float), np.asarray(canon_b, float))
    fd = orthonormal_frame(np.asarray(det_a, float), np.asarray(det_b, float))
    return fd @ fc.T


def fit_polyhedral_group(
    scorer: RotationScorer,
    detected_axes: list[tuple[Array, int, float]],
    threshold: float,
    candidates: tuple[str, ...] = ("I", "O", "T"),
    n_verify: int = 12,
    angle_tol_deg: float = 6.0,
    max_attempts_per_group: int = 16,
) -> tuple[str, SymmetryGroup] | None:
    """Try to explain the detected axes as a full polyhedral group.

    For each candidate group (largest first), every detected axis pair with
    matching orders and mutual angle seeds a frame fit; a cheap 2-element
    screen rejects grossly wrong frames, survivors are polished
    (Nelder–Mead over a small frame correction) and accepted if
    ``n_verify`` sampled non-identity elements all score below
    ``threshold``.  Returns ``(name, group)`` or ``None``.

    Axis sign is ambiguous (an n-fold axis equals its negation), so both
    orientations of the second axis are tried.
    """
    builders = {"T": tetrahedral_group, "O": octahedral_group, "I": icosahedral_group}
    if len(detected_axes) < 2:
        return None
    # most-confident detected axes first (lower score = stronger evidence)
    ranked = sorted(detected_axes, key=lambda t: t[2])
    for name in candidates:
        canon = builders[name]()
        caxes = group_axes(canon)
        attempts = 0
        for i, (da, oa, _) in enumerate(ranked):
            for j, (db, ob, _) in enumerate(ranked):
                if i == j:
                    continue
                mutual = np.rad2deg(np.arccos(np.clip(abs(np.dot(da, db)), -1.0, 1.0)))
                for ca, coa in caxes:
                    if coa != oa:
                        continue
                    for cb, cob in caxes:
                        if cob != ob or np.allclose(ca, cb):
                            continue
                        cmutual = np.rad2deg(
                            np.arccos(np.clip(abs(np.dot(ca, cb)), -1.0, 1.0))
                        )
                        if abs(mutual - cmutual) > angle_tol_deg:
                            continue
                        for sign in (1.0, -1.0):
                            if attempts >= max_attempts_per_group:
                                break
                            attempts += 1
                            u = frame_from_axis_pair(ca, cb, da, sign * db)
                            fitted = np.einsum("ij,njk,lk->nil", u, canon.matrices, u)
                            # cheap screen before the expensive polish
                            if _verify_group(scorer, fitted, 2.0 * threshold, 2) is None:
                                continue
                            u = _polish_frame(scorer, u, canon.matrices)
                            fitted = np.einsum("ij,njk,lk->nil", u, canon.matrices, u)
                            worst = _verify_group(scorer, fitted, threshold, n_verify)
                            if worst is not None:
                                return _try_supergroups(
                                    scorer, name, u, threshold, n_verify, worst
                                )
    return None


def _try_supergroups(
    scorer: RotationScorer,
    name: str,
    frame: Array,
    threshold: float,
    n_verify: int,
    subgroup_worst: float,
) -> tuple[str, SymmetryGroup]:
    """Upgrade a verified fit to a containing polyhedral group if possible.

    The canonical T, O and I groups here share the 222 coordinate frame
    (T ⊂ O and T ⊂ I with identical 2-fold axes), so a verified T fit can
    be promoted by testing O and I *in the same polished frame* — this
    rescues cases where the axis scan missed the higher-order axes (e.g.
    no 5-fold candidate survived the coarse grid).

    The upgrade bar is *adaptive*: the supergroup's extra elements must
    score comparably to the already-verified subgroup elements
    (``2×subgroup_worst``, floored at the detection threshold).  If the
    object truly has only the smaller symmetry, the extra elements score
    near the null — far above this bar — so genuine subgroup objects are
    never promoted.
    """
    builders = {"T": tetrahedral_group, "O": octahedral_group, "I": icosahedral_group}
    upgrades = {"T": ("I", "O"), "O": (), "I": ()}
    bar = max(2.0 * subgroup_worst, threshold)
    # A T frame is determined only up to T's normalizer in SO(3) (which is
    # O): the coset representative Rz(90) flips between the two inequivalent
    # embeddings of the supergroup, so both must be tried.
    coset_flip = axis_angle_to_matrix([0.0, 0.0, 1.0], 90.0)
    for bigger in upgrades.get(name, ()):
        canon_big = builders[bigger]()
        for base in (frame, frame @ coset_flip):
            u = _polish_frame(scorer, base, canon_big.matrices)
            fitted_big = np.einsum("ij,njk,lk->nil", u, canon_big.matrices, u)
            if _verify_group(scorer, fitted_big, bar, n_verify) is not None:
                return bigger, SymmetryGroup(bigger, fitted_big)
    fitted = np.einsum("ij,njk,lk->nil", frame, builders[name]().matrices, frame)
    return name, SymmetryGroup(name, fitted)


def _polish_frame(
    scorer: RotationScorer,
    u0: Array,
    canon_matrices: Array,
    n_elements: int = 4,
) -> Array:
    """Locally refine the frame rotation against a few group elements.

    The detected axes carry a degree or two of error; a Nelder–Mead search
    over a small rotation correction (axis-angle vector, radians) sharpens
    the frame before the full verification pass.
    """
    from scipy import optimize

    order = canon_matrices.shape[0]
    sample = canon_matrices[1 :: max(1, (order - 1) // n_elements)][:n_elements]

    def objective(v: Array) -> float:
        angle = np.linalg.norm(v)
        delta = np.eye(3) if angle < 1e-9 else axis_angle_to_matrix(v, np.rad2deg(angle))
        u = delta @ u0
        return float(np.mean([scorer(u @ g @ u.T) for g in sample]))

    res = optimize.minimize(
        objective, np.zeros(3), method="Nelder-Mead",
        options={"xatol": 5e-4, "fatol": 1e-5, "maxiter": 60},
    )
    angle = np.linalg.norm(res.x)
    if angle < 1e-9:
        return u0
    return axis_angle_to_matrix(res.x, np.rad2deg(angle)) @ u0


def _verify_group(
    scorer: RotationScorer, matrices: Array, threshold: float, n_verify: int
) -> float | None:
    """Worst score of up to ``n_verify`` evenly sampled non-identity elements.

    ``None`` when an element scores above ``threshold`` (scoring stops at
    the first such element) or there is no non-identity element.
    """
    order = matrices.shape[0]
    step = max(1, (order - 1) // n_verify)
    worst: float | None = None
    for idx in range(1, order, step)[:n_verify]:
        score = scorer(matrices[idx])
        if score > threshold:
            return None
        worst = score if worst is None else max(worst, score)
    return worst

"""Asymmetric-unit restriction of the orientation search (DESIGN.md §13).

A map with point group ``G`` projects identically at ``R`` and ``g·R`` for
every ``g ∈ G``, so the global orientation search only needs to cover one
*asymmetric unit* — 1/|G| of the sphere, a 60× candidate reduction for an
icosahedral capsid.  This module is the search-side consumer of
:mod:`repro.geometry.symmetry`:

* :class:`SymmetryRestriction` — a picklable, worker-safe wrapper around a
  group's rotation matrices with the operations the hot path needs:
  vectorized canonicalization of a candidate stack into the asymmetric
  unit and AU membership masks for coarse grids;
* :func:`resolve_restriction` — turn an
  :class:`~repro.engine.config.SymmetryConfig` into a restriction, either
  from a trusted ``fixed:<group>`` name or by running
  :func:`~repro.refine.symmetry_detect.detect_symmetry` on the current map.

Canonicalization follows :func:`repro.geometry.symmetry.
reduce_to_asymmetric_unit` exactly: among ``{g·R}`` pick the equivalent
whose view direction has the largest z-component (ties by x, then y, keys
rounded to 9 decimals, first group element wins ties) — the vectorized
stack path and the scalar path agree element-for-element.

**Memo keys stay exact.**  Symmetry equivalence belongs to the search,
not to the cache key: seeds are canonicalized into the asymmetric unit
before each level and windows are local, so a restricted search almost
never meets two G-equivalent candidates.  The orientation memo and the
prune tracker therefore key on the same exact ``(θ, φ, ω, cx, cy)``
floats as a symmetry-off run, and the memo's bit-identity doctrine
(DESIGN.md §9) holds here too: memo on and memo off are bitwise equal.
Only "restricted equals exhaustive" is modulo the group (DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.arraytypes import Array, BoolArray
from repro.geometry.euler import Orientation, euler_to_matrix
from repro.geometry.sphere import view_directions_grid
from repro.geometry.symmetry import (
    SymmetryGroup,
    group_from_name,
    reduce_to_asymmetric_unit,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an engine cycle)
    from repro.density.map import DensityMap
    from repro.engine.backends import ExecutionBackend
    from repro.engine.config import SymmetryConfig

__all__ = ["SymmetryRestriction", "resolve_restriction"]


def _lex_gt(a: Array, b: Array) -> BoolArray:
    """Row-wise lexicographic ``a > b`` for (n, k) key arrays."""
    gt = a[:, 0] > b[:, 0]
    eq = a[:, 0] == b[:, 0]
    for c in range(1, a.shape[1]):
        gt = gt | (eq & (a[:, c] > b[:, c]))
        eq = eq & (a[:, c] == b[:, c])
    return gt


def _direction_keys(directions: Array) -> Array:
    """The (z, x, y) round-9 tie-break keys of a stack of view directions."""
    return np.round(
        np.stack([directions[:, 2], directions[:, 0], directions[:, 1]], axis=1), 9
    )


@dataclass(frozen=True)
class SymmetryRestriction:
    """A point group packaged for the search hot path.

    Holds only a name and the ``(order, 3, 3)`` rotation stack, so it
    pickles cheaply into worker payloads (:mod:`repro.parallel.viewsched`)
    and compares by value in config plumbing.  All the canonicalization
    math is vectorized over candidate stacks: one pass per group element,
    never per candidate.
    """

    group_name: str
    matrices: Array = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrices, dtype=float)
        if m.ndim != 3 or m.shape[1:] != (3, 3):
            raise ValueError("matrices must have shape (order, 3, 3)")
        object.__setattr__(self, "matrices", m)

    @classmethod
    def from_group(cls, group: SymmetryGroup) -> "SymmetryRestriction":
        return cls(group_name=group.name, matrices=np.asarray(group.matrices, dtype=float))

    @property
    def order(self) -> int:
        return int(self.matrices.shape[0])

    def group(self) -> SymmetryGroup:
        """The :class:`SymmetryGroup` view of this restriction."""
        return SymmetryGroup(self.group_name, self.matrices)

    # -- canonicalization ----------------------------------------------------
    def canonicalize(self, orientation: Orientation) -> Orientation:
        """Scalar canonical representative (exact, unquantized)."""
        return reduce_to_asymmetric_unit(orientation, self.group())

    def canonicalize_stack(self, rotations: Array) -> tuple[Array, Array]:
        """Canonical representatives of a ``(w, 3, 3)`` rotation stack.

        Returns ``(canonical_rotations, group_indices)`` where
        ``canonical_rotations[i] = matrices[group_indices[i]] @ rotations[i]``.
        One vectorized pass per group element (≤ 60), never per candidate.
        """
        rots = np.asarray(rotations, dtype=float)
        w = rots.shape[0]
        best_idx = np.zeros(w, dtype=np.intp)
        best_key: Array | None = None
        for gi in range(self.order):
            cand_dirs = rots[:, :, 2] @ self.matrices[gi].T
            key = _direction_keys(cand_dirs)
            if best_key is None:
                best_key = key
            else:
                better = _lex_gt(key, best_key)
                best_idx[better] = gi
                best_key[better] = key[better]
        canonical = np.einsum("wij,wjk->wik", self.matrices[best_idx], rots)
        return canonical, best_idx

    # -- asymmetric-unit grids -----------------------------------------------
    def asymmetric_unit_mask(self, rotations: Array) -> BoolArray:
        """True where a candidate already is its own canonical representative.

        Membership is decided on the round-9 direction keys, exactly like
        canonicalization itself, so a candidate on an AU boundary is kept
        in precisely one copy of the unit.
        """
        rots = np.asarray(rotations, dtype=float)
        own_key = _direction_keys(rots[:, :, 2])
        canonical, _ = self.canonicalize_stack(rots)
        best_key = _direction_keys(canonical[:, :, 2])
        return np.all(own_key == best_key, axis=1)

    def restricted_views(self, angular_resolution_deg: float) -> list[tuple[float, float]]:
        """The sin(θ)-corrected global view grid, cut to the asymmetric unit.

        AU membership depends only on the view direction (ω drops out of
        the canonical key), so this filters
        :func:`repro.geometry.sphere.view_directions_grid` directly.
        """
        views = view_directions_grid(angular_resolution_deg)
        thetas = np.array([v[0] for v in views])
        phis = np.array([v[1] for v in views])
        rots = euler_to_matrix(thetas, phis, np.zeros_like(thetas))
        mask = self.asymmetric_unit_mask(rots)
        return [v for v, keep in zip(views, mask.tolist()) if keep]

    def reduction_factor(self, angular_resolution_deg: float) -> float:
        """Measured candidate reduction: |full grid| / |AU-restricted grid|.

        Approaches the group order as the grid refines; cached per
        resolution because the scenario matrix asks repeatedly.
        """
        key = ("reduction", float(angular_resolution_deg))
        cached = self._cache.get(key)
        if cached is None:
            full = len(view_directions_grid(angular_resolution_deg))
            kept = len(self.restricted_views(angular_resolution_deg))
            cached = full / max(1, kept)
            self._cache[key] = cached
        return float(cached)

    def __getstate__(self) -> dict[str, Any]:
        # The cache is per-process scratch; never ship it to workers.
        return {"group_name": self.group_name, "matrices": self.matrices}

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "group_name", state["group_name"])
        object.__setattr__(self, "matrices", state["matrices"])
        object.__setattr__(self, "_cache", {})


def resolve_restriction(
    config: "SymmetryConfig",
    density: "DensityMap | None" = None,
    *,
    backend: "ExecutionBackend | None" = None,
) -> tuple[SymmetryRestriction | None, str | None]:
    """Turn a symmetry config section into a usable restriction.

    Returns ``(restriction, group_name)``: mode ``"none"`` yields
    ``(None, None)``; ``"fixed:<group>"`` builds the named group;
    ``"detect"`` runs the detector on ``density`` (fanned out through
    ``backend`` when given).  A trivial result (C1) yields no restriction
    but still reports the name, so callers can record what was detected.
    """
    mode = config.mode
    if mode == "none":
        return None, None
    if mode.startswith("fixed:"):
        group: SymmetryGroup | None = group_from_name(mode.split(":", 1)[1])
    else:
        if density is None:
            raise ValueError("symmetry.mode == 'detect' requires the current map")
        from repro.refine.symmetry_detect import detect_symmetry

        result = detect_symmetry(
            density,
            max_order=config.detect_max_order,
            n_axes=config.detect_n_axes,
            accept_factor=config.detect_accept_factor,
            seed=config.detect_seed,
            backend=backend,
        )
        group = result.group
    if group is None or group.order <= 1:
        return None, group.name if group is not None else "C1"
    return SymmetryRestriction.from_group(group), group.name

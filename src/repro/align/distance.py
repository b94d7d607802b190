"""The paper's Fourier-space distance between a view and a calculated cut.

§3 defines, for two ``l×l`` complex arrays ``F = a + ib`` and ``C = c + id``:

    d(F, C) = (1/l²) · sqrt( Σ_{j,k} (a−c)² + (b−d)² )

i.e. the Euclidean norm of the complex difference scaled by 1/l².  Two
refinements from the paper are supported:

* the sum runs only over Fourier samples with radius ≤ ``r_map`` (the
  current resolution limit), which also cuts the operation count;
* an optional radial weighting ``wt(j, k)`` emphasizes high-frequency
  components ("to give more weight to higher frequency components at higher
  resolution").

:class:`DistanceComputer` pre-computes the masked pixel index set and the
weights once per (l, r_map) pair so the per-candidate cost in the search
loop is a single gather + reduction — this is the O(w·l²) kernel that
dominates Tables 1 and 2.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import array_contract, spec
from repro.arraytypes import Array
from repro.fourier.shells import radial_shell_indices_2d
from repro.utils import require_square

__all__ = ["fourier_distance", "fourier_distance_batch", "radius_weights", "DistanceComputer"]


def radius_weights(size: int, kind: str = "none", r_max: float | None = None) -> Array:
    """Radial weighting functions ``wt(j, k)`` for the distance.

    ``kind``:
      * ``"none"`` — uniform weights (the plain §3 distance);
      * ``"radius"`` — weight ∝ shell radius, emphasizing high resolution;
      * ``"radius2"`` — weight ∝ radius², even stronger emphasis.

    Weights are normalized to mean 1 over the band ``r ≤ r_max`` so that
    distances with different weightings remain comparable in magnitude.
    """
    r = radial_shell_indices_2d(size).astype(float, copy=False)
    if kind == "none":
        w = np.ones_like(r)
    elif kind == "radius":
        w = r
    elif kind == "radius2":
        w = r * r
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    band = r <= (size // 2 if r_max is None else r_max)
    mean = w[band].mean()
    if mean > 0:
        w = w / mean
    return w


def fourier_distance(
    view_ft: Array,
    cut_ft: Array,
    r_max: float | None = None,
    weights: Array | None = None,
) -> float:
    """The §3 distance between one view transform and one cut.

    ``r_max`` restricts the sum to samples within that Fourier radius
    (default: the inscribed circle ``l // 2``).  ``weights`` is an optional
    ``wt(j, k)`` array.
    """
    size = require_square(view_ft, "view_ft")
    if np.asarray(cut_ft).shape != (size, size):
        raise ValueError("view and cut must have the same shape")
    dc = DistanceComputer(size, r_max=r_max, weights=weights)
    return dc.distance(view_ft, cut_ft)


def fourier_distance_batch(
    view_ft: Array,
    cuts_ft: Array,
    r_max: float | None = None,
    weights: Array | None = None,
) -> Array:
    """Distances from one view to a stack of cuts ``(w, l, l)`` (step g)."""
    size = require_square(view_ft, "view_ft")
    dc = DistanceComputer(size, r_max=r_max, weights=weights)
    return dc.distance_batch(view_ft, cuts_ft)


class DistanceComputer:
    """Pre-masked, pre-weighted distance evaluation for the search loop.

    Parameters
    ----------
    size:
        Image side ``l``.
    r_max:
        Fourier radius cutoff (``r_map`` in the paper); default ``l // 2``.
    weights:
        Full ``(l, l)`` weight array ``wt(j, k)`` or ``None`` for uniform.
    """

    def __init__(
        self,
        size: int,
        r_max: float | None = None,
        weights: Array | None = None,
        normalized: bool = False,
    ):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = int(size)
        self.r_max = float(size // 2 if r_max is None else r_max)
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")
        shells = radial_shell_indices_2d(size)
        mask = shells <= self.r_max
        self._flat_idx = np.flatnonzero(mask.ravel())
        if weights is None:
            self._w = None
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (size, size):
                raise ValueError(f"weights must be ({size}, {size})")
            self._w = w.ravel()[self._flat_idx]
        #: When True, both arrays are scaled to unit band norm before the
        #: difference — a scale-invariant variant (not in the paper; offered
        #: as a robustness extension, see ablation E13).  Minimizing it is
        #: equivalent to maximizing the real part of the band correlation.
        self.normalized = bool(normalized)
        self.n_samples = int(self._flat_idx.size)

    @property
    def band_indices(self) -> Array:
        """Flat (row-major) pixel indices of the in-band samples."""
        return self._flat_idx

    @property
    def band_weights(self) -> Array | None:
        """In-band weight vector ``wt`` aligned with :attr:`band_indices`."""
        return self._w

    @property
    def band_radii(self) -> Array:
        """Per-sample Fourier shell radius aligned with :attr:`band_indices`.

        Used by the pruned window path to order the band into radial shell
        groups: low-frequency shells carry most of the distance mass, so
        accumulating them first lets hopeless candidates be abandoned
        after a fraction of the band has been gathered.
        """
        shells = radial_shell_indices_2d(self.size).astype(float, copy=False)
        return shells.ravel()[self._flat_idx]

    def _maybe_normalize(self, vec: Array) -> Array:
        if not self.normalized:
            return vec
        n = np.linalg.norm(np.ascontiguousarray(vec))
        return vec / n if n > 0 else vec

    def _normalize_rows(self, mat: Array) -> Array:
        if not self.normalized:
            return mat
        # Contiguous rows fix the pairwise-summation order (see distance_band).
        norms = np.linalg.norm(np.ascontiguousarray(mat), axis=-1, keepdims=True)
        norms[norms == 0] = 1.0
        return mat / norms

    def gather_modulation(self, modulation: Array | None) -> Array | None:
        """Pre-gather a per-view cut modulation (e.g. |CTF|) onto the band.

        A view recorded through a CTF carries amplitudes ``|CTF|·S``; the
        statistically consistent comparison multiplies each *calculated*
        cut by the same modulation before differencing (phase flipping
        alone leaves an amplitude mismatch that biases the scale-sensitive
        distance toward low-energy cuts).  Returns a flat vector aligned
        with :meth:`gather`, or ``None``.
        """
        if modulation is None:
            return None
        mod = np.asarray(modulation, dtype=float)
        if mod.shape != (self.size, self.size):
            raise ValueError(f"modulation must be ({self.size}, {self.size})")
        return mod.ravel()[self._flat_idx]

    @array_contract(
        image_ft=spec(shape=("l", "l"), allow_none=False),
        ret=spec(shape=("n",)),
    )
    def gather(self, image_ft: Array) -> Array:
        """The masked in-band samples of a transform, as a flat vector."""
        arr = np.asarray(image_ft)
        if arr.shape != (self.size, self.size):
            raise ValueError(f"expected ({self.size}, {self.size}), got {arr.shape}")
        return arr.reshape(-1)[self._flat_idx]

    def distance(
        self,
        view_ft: Array,
        cut_ft: Array,
        cut_modulation: Array | None = None,
    ) -> float:
        """d(F, C) over the band, with weights if configured.

        ``cut_modulation`` (flat vector from :meth:`gather_modulation` or a
        full (l, l) array) multiplies the cut before differencing — used to
        impose the view's |CTF| on the calculated cut.
        """
        return float(
            self.distance_band(
                self.gather(view_ft), self.gather(cut_ft), cut_modulation=cut_modulation
            )
        )

    def _apply_modulation(self, gathered_cut: Array, cut_modulation) -> Array:
        if cut_modulation is None:
            return gathered_cut
        mod = np.asarray(cut_modulation, dtype=float)
        if mod.ndim == 2:
            mod = self.gather_modulation(mod)
        if mod.shape[-1] != gathered_cut.shape[-1]:
            raise ValueError("cut_modulation does not match the band size")
        return gathered_cut * mod

    @array_contract(
        view_band=spec(shape=[("n",), (None, "n")], dtype="inexact", allow_none=False),
        cut_band=spec(shape=[("n",), (None, "n")], dtype="inexact", allow_none=False),
    )
    def distance_band(
        self,
        view_band: Array,
        cut_band: Array,
        cut_modulation: Array | None = None,
    ) -> Array | float:
        """The §3 distance from pre-gathered in-band vectors — no (w, l, l) stacks.

        Both arguments are flat band vectors (``(n_samples,)``) or stacks of
        them (``(m, n_samples)``), as produced by :meth:`gather` or by
        :meth:`repro.align.fused.MatchPlan.cut_bands`; broadcasting follows numpy
        rules, so one view against ``w`` cuts or ``n`` shifted views against
        one cut both work.  ``cut_modulation`` (a band vector or a full
        ``(l, l)`` array) multiplies the cut(s) before differencing.

        Returns a scalar when both inputs are single vectors, else an array
        of distances.
        """
        f = np.asarray(view_band)
        c = np.asarray(cut_band)
        if f.shape[-1] != self.n_samples or c.shape[-1] != self.n_samples:
            raise ValueError(
                f"band vectors must have {self.n_samples} samples, "
                f"got {f.shape} and {c.shape}"
            )
        if cut_modulation is not None:
            c = self._apply_modulation(c, cut_modulation)
        if self.normalized:
            f = self._maybe_normalize(f) if f.ndim == 1 else self._normalize_rows(f)
            c = self._maybe_normalize(c) if c.ndim == 1 else self._normalize_rows(c)
        diff = c - f
        sq = diff.real**2 + diff.imag**2
        if self._w is not None:
            sq = sq * self._w
        # A contiguous reduction keeps the pairwise-summation order identical
        # whether the band vectors came from a full-stack gather (reference
        # kernel, non-contiguous fancy-indexed rows) or the batched kernel.
        d = np.sqrt(np.ascontiguousarray(sq).sum(axis=-1)) / (self.size * self.size)
        return float(d) if np.ndim(d) == 0 else d

    def distance_batch(
        self,
        view_ft: Array,
        cuts_ft: Array,
        cut_modulation: Array | None = None,
    ) -> Array:
        """Distances from one view to each cut of a ``(w, l, l)`` stack."""
        cuts = np.asarray(cuts_ft)
        if cuts.ndim != 3 or cuts.shape[1:] != (self.size, self.size):
            raise ValueError(f"cuts must be (w, {self.size}, {self.size}), got {cuts.shape}")
        c = cuts.reshape(cuts.shape[0], -1)[:, self._flat_idx]
        return self.distance_band(self.gather(view_ft), c, cut_modulation=cut_modulation)

    def distance_many_to_one(
        self,
        views_ft: Array,
        cut_ft: Array,
        cut_modulation: Array | None = None,
    ) -> Array:
        """Distances from each view of a stack to one cut (used by step k)."""
        views = np.asarray(views_ft)
        if views.ndim != 3 or views.shape[1:] != (self.size, self.size):
            raise ValueError("views must be (n, l, l)")
        v = views.reshape(views.shape[0], -1)[:, self._flat_idx]
        return self.distance_band(v, self.gather(cut_ft), cut_modulation=cut_modulation)

"""The in-band matching kernel (steps f–h without the cut stacks).

The reference matching path materializes a full ``(w, l, l)`` stack of
central cuts (:func:`repro.fourier.slicing.extract_slices`) and only then
masks it down to the band ``r ≤ r_map``
(:meth:`repro.align.distance.DistanceComputer.distance_batch`).  Every
sample outside the band is gathered from D̂, copied, and thrown away, and
the coordinate meshgrids are rebuilt for every window of every slide.

:class:`MatchPlan` skips both.  Once per ``(l, r_map, weights,
volume_size, interpolation)`` it precomputes the in-band 2D frequency
coordinates ``(kx, ky)`` and the band weight vector; per window it rotates
*only those coordinates* into the volume frame and gathers trilinear
samples of D̂ at them, so the per-candidate cost drops from ``l²`` to
``≈ π·r_map²`` samples — a ``(l/2)²/r_map²`` FLOP and memory-traffic saving
at coarse levels where ``r_map ≪ l/2``.  Because a sample's band radius
bounds every rotated position of it, the band is split **once at plan
time** into samples that are interior for every rotation (gathered with no
per-corner bounds checks) and the thin outer rim that may leave the cube.

The kernel is numerically *identical* to the reference path (same
coordinate arithmetic, same corner accumulation order, same reduction
shapes), so ``kernel="reference"`` remains available purely as a checkable
slow path.  The plan also carries the in-band phase-ramp machinery used by
the center search (steps k–l), where a candidate center shift becomes an
``n_band``-element ramp instead of an ``l×l`` one.
"""


from __future__ import annotations

import numpy as np

from repro.align.distance import DistanceComputer
from repro.analysis.contracts import array_contract, spec
from repro.arraytypes import Array
from repro.engine.env import gather_chunk_samples
from repro.fourier.slicing import _gather_nearest, _gather_trilinear
from repro.fourier.transforms import fourier_center, frequency_grid_2d

__all__ = ["MatchPlan", "get_match_plan"]

#: Safety margin (in voxels) for the plan-time interior test.  Rotated
#: coordinates are bounded by ``r·scale`` analytically; floating-point
#: rounding can exceed that bound by a few ulp, far below this margin.
_INTERIOR_MARGIN = 1e-9

#: Target band samples per gather chunk.  Large windows are processed in
#: rotation chunks of roughly this many samples so the coordinate columns
#: and per-corner weight temporaries stay cache-resident instead of
#: streaming tens-of-MB arrays through memory eight times per window:
#: measured fastest at 2^16 samples/chunk at l=64, with a sharp cliff above
#: ~2^17.  ``REPRO_GATHER_CHUNK`` overrides it (read in
#: :mod:`repro.engine.env`, repro-lint RL011).  Gathers and distances are
#: per-point/per-row, so chunking cannot change any value.
_CHUNK_SAMPLES = 1 << 16


def _gather_interior_stack(flat: Array, l: int, cz: Array, cy: Array, cx: Array) -> Array:
    """Stacked no-bounds-check trilinear gather on coordinate *columns*.

    Bit-identical to :func:`repro.fourier.slicing._gather_trilinear_interior`
    per point — the value-changing operations are untouched:

    * ``astype`` truncation equals ``floor`` because every interior
      coordinate is strictly positive (the plan-time margin guarantees it),
      and int32 holds any per-axis index (the int64 promotion happens in
      the linear-index product, exactly where overflow could occur);
    * the weight product keeps the reference's left association
      ``((z)·(y))·(x)`` — the four ``z·y`` pair products are merely
      computed once and shared by the two corners needing each;
    * the corner accumulation order 0→7 into a zeros-initialized
      accumulator is identical.

    Columns (not an interleaved ``(..., 3)`` array) keep every fractional
    and weight array contiguous, which is where the gather's throughput
    over the interleaved reference gather comes from.
    """
    iz = cz.astype(np.int32, copy=False)
    iy = cy.astype(np.int32, copy=False)
    ix = cx.astype(np.int32, copy=False)
    fz = cz - iz
    fy = cy - iy
    fx = cx - ix
    lin0 = (iz.astype(np.int64, copy=False) * l + iy) * l + ix
    gz, gy, gx = 1.0 - fz, 1.0 - fy, 1.0 - fx
    # Pair products in (dz, dy) order: indices 0..3 = (0,0) (0,1) (1,0) (1,1).
    wzy = (gz * gy, gz * fy, fz * gy, fz * fy)
    out = np.zeros(cz.shape, dtype=flat.dtype)
    for corner in range(8):
        dz, dy, dx = (corner >> 2) & 1, (corner >> 1) & 1, corner & 1
        w = wzy[dz * 2 + dy] * (fx if dx else gx)
        out += w * flat[lin0 + ((dz * l + dy) * l + dx)]
    return out


class MatchPlan:
    """Precomputed in-band geometry for slice+distance evaluation.

    Parameters
    ----------
    distance_computer:
        The band mask, weights and normalization all come from here; the
        plan's distances are bit-identical to ``distance_computer`` applied
        to reference cuts.
    volume_size:
        Side of the (possibly oversampled) 3D DFT the cuts are taken from.
    interpolation:
        ``"trilinear"`` (default) or ``"nearest"``.
    """

    def __init__(
        self,
        distance_computer: DistanceComputer,
        volume_size: int,
        interpolation: str = "trilinear",
    ) -> None:
        if interpolation not in ("trilinear", "nearest"):
            raise ValueError(f"unknown interpolation order {interpolation!r}")
        self.dc = distance_computer
        self.size = distance_computer.size
        self.volume_size = int(volume_size)
        if self.volume_size < self.size:
            raise ValueError("volume_size must be >= image size")
        self.interpolation = interpolation
        ky, kx = frequency_grid_2d(self.size)
        idx = distance_computer.band_indices
        # Integer band frequencies; int·float promotion reproduces the
        # reference meshgrid arithmetic exactly.
        self._kxb = kx.ravel()[idx]
        self._kyb = ky.ravel()[idx]
        self._scale = self.volume_size / self.size
        self._cv = fourier_center(self.volume_size)
        self.n_samples = distance_computer.n_samples
        # Per-sample band partition.  A sample at band radius ``r_i`` can be
        # rotated anywhere on the sphere of radius ``r_i·scale`` but never
        # beyond it, so samples whose sphere clears the cube boundary are
        # *interior for every rotation* — the no-check stacked gather
        # handles them; only the thin outer rim of the band (empty in the
        # common oversampled, band-limited case) pays bounds checks.
        reach = (
            np.sqrt(
                self._kxb.astype(float, copy=False) ** 2
                + self._kyb.astype(float, copy=False) ** 2
            )
            * self._scale
        )
        interior_mask = (self._cv - reach >= _INTERIOR_MARGIN) & (
            self._cv + reach <= self.volume_size - 1 - _INTERIOR_MARGIN
        )
        self._int_pos = np.flatnonzero(interior_mask)
        self._edge_pos = np.flatnonzero(~interior_mask)
        self._kx_int = self._kxb[self._int_pos]
        self._ky_int = self._kyb[self._int_pos]
        self._kx_edge = self._kxb[self._edge_pos]
        self._ky_edge = self._kyb[self._edge_pos]
        #: Radius-ordered shell-group layouts for the pruned window path,
        #: keyed by group count (see :meth:`_prune_layout`).
        self._prune_layouts: dict[int, list[tuple[Array, Array, Array, Array, Array, Array, Array]]] = {}

    @property
    def all_interior(self) -> bool:
        """True when every possible sample has a full in-bounds 8-corner cell."""
        return self.n_edge_samples == 0

    @property
    def n_interior_samples(self) -> int:
        """Band samples that are interior for *every* rotation (no-check gather)."""
        return int(self._int_pos.size)

    @property
    def n_edge_samples(self) -> int:
        """Band samples that may leave the cube under some rotation."""
        return int(self._edge_pos.size)

    # -- band gathers ------------------------------------------------------
    def gather_view(self, view_ft: Array) -> Array:
        """The view's in-band samples as a flat vector (alias of ``dc.gather``)."""
        return self.dc.gather(view_ft)

    def _volume(self, volume_ft: Array) -> Array:
        vol = np.asarray(volume_ft)
        if vol.shape != (self.volume_size,) * 3:
            raise ValueError(
                f"volume_ft must be ({self.volume_size},)*3 for this plan, got {vol.shape}"
            )
        return vol

    @staticmethod
    def _rotation_stack(rotations: Array) -> Array:
        rots = np.asarray(rotations, dtype=float)
        if rots.ndim == 2:
            rots = rots[None]
        if rots.ndim != 3 or rots.shape[1:] != (3, 3):
            raise ValueError(f"rotations must be (w, 3, 3) or (3, 3), got {rots.shape}")
        return rots

    def _rotation_chunk(self) -> int:
        """Rotations per gather chunk (cache sizing, not a result knob)."""
        return max(1, gather_chunk_samples(_CHUNK_SAMPLES) // max(1, self.n_samples))

    def _coords(self, u: Array, v: Array, kx: Array, ky: Array) -> Array:
        """``(w, n, 3)`` array (z, y, x) coordinates of band samples ``(kx, ky)``."""
        coords_xyz = (kx[None, :, None] * u[:, None, :] + ky[None, :, None] * v[:, None, :]) * self._scale
        return coords_xyz[..., ::-1] + self._cv

    def _interior_rows(self, flat: Array, u: Array, v: Array, kx: Array, ky: Array) -> Array:
        """No-check gather of always-interior samples ``(kx, ky)``.

        Coordinate *columns* in array (z, y, x) order: component ``c`` of
        :meth:`_coords` — the same elementwise operations in the same order
        per point, just never interleaved into a strided ``(w, n, 3)`` array.
        """
        cz = (kx[None, :] * u[:, 2, None] + ky[None, :] * v[:, 2, None]) * self._scale + self._cv
        cy = (kx[None, :] * u[:, 1, None] + ky[None, :] * v[:, 1, None]) * self._scale + self._cv
        cx = (kx[None, :] * u[:, 0, None] + ky[None, :] * v[:, 0, None]) * self._scale + self._cv
        return _gather_interior_stack(flat, self.volume_size, cz, cy, cx)

    def _gather_rows(self, vol: Array, flat: Array, rots: Array) -> Array:
        """``(w, n_band)`` cut samples for one rotation chunk.

        Trilinear sampling goes through the plan-time band partition (see
        ``__init__``): the interior samples through the no-check stacked
        gather, the rim through the bounds-checked one.  Every per-point
        value equals the reference gather's, so scattering the two subsets
        back into band order reproduces the reference cut samples exactly.
        """
        u = rots[:, :, 0]  # (w, 3)
        v = rots[:, :, 1]
        if self.interpolation == "nearest":
            return _gather_nearest(vol, self._coords(u, v, self._kxb, self._kyb))
        out = np.empty((rots.shape[0], self.n_samples), dtype=vol.dtype)
        if self._int_pos.size:
            out[:, self._int_pos] = self._interior_rows(flat, u, v, self._kx_int, self._ky_int)
        if self._edge_pos.size:
            out[:, self._edge_pos] = _gather_trilinear(
                vol, self._coords(u, v, self._kx_edge, self._ky_edge)
            )
        return out

    @array_contract(
        volume_ft=spec(shape=("v", "v", "v"), dtype="inexact", allow_none=False),
        rotations=spec(shape=[(3, 3), (None, 3, 3)], allow_none=False),
    )
    def cut_bands(self, volume_ft: Array, rotations: Array) -> Array:
        """In-band samples of the central cut(s) of D̂ — never an (w, l, l) stack.

        ``rotations`` is one ``(3, 3)`` matrix or a ``(w, 3, 3)`` stack; the
        result is ``(n_band,)`` or ``(w, n_band)`` complex samples.
        """
        vol = self._volume(volume_ft)
        flat = vol.ravel()
        single = np.ndim(rotations) == 2
        rots = self._rotation_stack(rotations)
        step = self._rotation_chunk()
        if rots.shape[0] <= step:
            out = self._gather_rows(vol, flat, rots)
        else:
            out = np.empty((rots.shape[0], self.n_samples), dtype=vol.dtype)
            for lo in range(0, rots.shape[0], step):
                out[lo : lo + step] = self._gather_rows(vol, flat, rots[lo : lo + step])
        return out[0] if single else out

    def cut_band(self, volume_ft: Array, rotation: Array) -> Array:
        """In-band samples of one cut (the band analog of ``extract_slice``)."""
        return self.cut_bands(volume_ft, rotation)

    # -- window matching ---------------------------------------------------
    @array_contract(
        volume_ft=spec(shape=("v", "v", "v"), dtype="inexact", allow_none=False),
        view_band=spec(shape=("n",), dtype="inexact", allow_none=False),
        rotations=spec(shape=[(3, 3), (None, 3, 3)], allow_none=False),
    )
    def match_window(
        self,
        volume_ft: Array,
        view_band: Array,
        rotations: Array,
        cut_modulation: Array | None = None,
    ) -> Array:
        """§3 distances from one view to a whole candidate window.

        ``view_band`` comes from :meth:`gather_view`; ``cut_modulation`` is
        a band vector (or full ``(l, l)`` array) imposed on every cut.  All
        ``w`` candidate rotations go through the chunked band gather of
        :meth:`cut_bands` and the band-vector distance reduction, with no
        per-candidate Python work; each chunk is gathered *and* reduced
        while still hot in cache.  Distances are per-row and the reduction
        is the same :meth:`DistanceComputer.distance_band` the reference
        path uses, so the output is bit-identical to evaluating each
        candidate alone.  A single ``(3, 3)`` rotation gives a ``(1,)``
        result.
        """
        vol = self._volume(volume_ft)
        flat = vol.ravel()
        rots = self._rotation_stack(rotations)
        step = self._rotation_chunk()
        out = np.empty(rots.shape[0])
        for lo in range(0, rots.shape[0], step):
            cuts = self._gather_rows(vol, flat, rots[lo : lo + step])
            out[lo : lo + step] = self.dc.distance_band(
                view_band, cuts, cut_modulation=cut_modulation
            )
        return out

    # -- pruned window engine ----------------------------------------------
    def _prune_layout(self, n_groups: int) -> list[tuple[Array, Array, Array, Array, Array, Array, Array]]:
        """Radius-sorted, equal-count shell groups of the band (cached).

        Each group is ``(int_pos, edge_pos, kx_int, ky_int, kx_edge,
        ky_edge, pos)``: the band sample positions split into the plan's
        always-interior / possibly-edge partition with their integer
        frequencies, plus the concatenated position list for the group's
        distance contribution.  Low-frequency shells come first — they
        carry most of the §3 distance mass, so partial sums over early
        groups separate candidates fastest.
        """
        n_groups = max(1, min(int(n_groups), self.n_samples)) if self.n_samples else 1
        cached = self._prune_layouts.get(n_groups)
        if cached is not None:
            return cached
        order = np.argsort(self.dc.band_radii, kind="stable")
        is_int = np.zeros(self.n_samples, dtype=bool)
        is_int[self._int_pos] = True
        layout: list[tuple[Array, Array, Array, Array, Array, Array, Array]] = []
        for grp in np.array_split(order, n_groups):
            if grp.size == 0:
                continue
            gi = grp[is_int[grp]]
            ge = grp[~is_int[grp]]
            layout.append(
                (
                    gi,
                    ge,
                    self._kxb[gi],
                    self._kyb[gi],
                    self._kxb[ge],
                    self._kyb[ge],
                    np.concatenate((gi, ge)),
                )
            )
        self._prune_layouts[n_groups] = layout
        return layout

    @array_contract(
        volume_ft=spec(shape=("v", "v", "v"), dtype="inexact", allow_none=False),
        view_band=spec(shape=("n",), dtype="inexact", allow_none=False),
        rotations=spec(shape=[(3, 3), (None, 3, 3)], allow_none=False),
    )
    def match_window_pruned(
        self,
        volume_ft: Array,
        view_band: Array,
        rotations: Array,
        cut_modulation: Array | None = None,
        *,
        bound: float = float("inf"),
        n_groups: int = 8,
    ) -> tuple[Array, int]:
        """:meth:`match_window` with early abandonment against ``bound``.

        The band is gathered one radial shell group at a time (see
        :meth:`_prune_layout`); after each group the accumulated weighted
        squared contribution — a monotone non-decreasing lower bound on a
        candidate's full squared distance — is compared against
        ``(bound·l²)²`` and candidates strictly above it are abandoned.
        Per-point coordinate arithmetic and gathers are the exact subset
        restriction of :meth:`_gather_rows`, and every
        *survivor's* distance is recomputed by the canonical
        :meth:`DistanceComputer.distance_band` reduction over its
        reassembled full band row (never from the group accumulator, whose
        summation order differs in the last bits), so survivors score
        bit-identically to the exhaustive path.  Abandoned candidates get
        ``inf``.

        Returns ``(distances, n_abandoned)``.  A caller-side margin on
        ``bound`` (see :class:`repro.refine.prune.PruneSearch`) guarantees
        no candidate at or below the true threshold is ever abandoned.
        """
        if self.dc.normalized:
            raise ValueError("pruned matching requires the plain (unnormalized) distance")
        rots = self._rotation_stack(rotations)
        if not np.isfinite(bound) or self.interpolation == "nearest":
            return self.match_window(volume_ft, view_band, rots, cut_modulation=cut_modulation), 0
        vol = self._volume(volume_ft)
        view = np.asarray(view_band)
        mod_band = None
        if cut_modulation is not None:
            mod = np.asarray(cut_modulation, dtype=float)
            mod_band = self.dc.gather_modulation(mod) if mod.ndim == 2 else mod
        weights = self.dc.band_weights
        flat = vol.ravel()
        w = rots.shape[0]
        u = rots[:, :, 0]
        v = rots[:, :, 1]
        rows = np.empty((w, self.n_samples), dtype=vol.dtype)
        acc = np.zeros(w)
        alive = np.arange(w)
        threshold = (bound * (self.size * self.size)) ** 2
        for gi, ge, kxi, kyi, kxe, kye, pos in self._prune_layout(n_groups):
            ua = u[alive]
            va = v[alive]
            if gi.size:
                rows[np.ix_(alive, gi)] = self._interior_rows(flat, ua, va, kxi, kyi)
            if ge.size:
                rows[np.ix_(alive, ge)] = _gather_trilinear(vol, self._coords(ua, va, kxe, kye))
            cuts = rows[np.ix_(alive, pos)]
            if mod_band is not None:
                cuts = cuts * mod_band[pos]
            diff = cuts - view[pos]
            sq = diff.real**2 + diff.imag**2
            if weights is not None:
                sq = sq * weights[pos]
            acc[alive] += sq.sum(axis=-1)
            alive = alive[acc[alive] <= threshold]
            if alive.size == 0:
                break
        out = np.full(w, np.inf)
        if alive.size:
            out[alive] = np.atleast_1d(
                self.dc.distance_band(view, rows[alive], cut_modulation=cut_modulation)
            )
        return out, int(w - alive.size)

    # -- center machinery (steps k–l) --------------------------------------
    def shift_ramps(self, dxs: Array, dys: Array) -> Array:
        """In-band phase ramps for a batch of candidate center corrections.

        Row ``i`` equals the reference ``_shift_stack`` ramp for
        ``(dxs[i], dys[i])`` restricted to the band.
        """
        dxs = np.asarray(dxs, dtype=float)
        dys = np.asarray(dys, dtype=float)
        return np.exp(
            2j
            * np.pi
            * (self._kxb[None, :] * dxs[:, None] + self._kyb[None, :] * dys[:, None])
            / self.size
        )

    def phase_shift_band(self, view_band: Array, dx: float, dy: float) -> Array:
        """Band-restricted :func:`repro.imaging.center.phase_shift_ft`."""
        if dx == 0.0 and dy == 0.0:
            return view_band
        ramp = np.exp(-2j * np.pi * (self._kxb * dx + self._kyb * dy) / self.size)
        return np.asarray(view_band) * ramp


def get_match_plan(
    distance_computer: DistanceComputer,
    volume_size: int,
    interpolation: str = "trilinear",
) -> MatchPlan:
    """The cached :class:`MatchPlan` for a computer/volume/interpolation triple.

    Plans attach to the :class:`DistanceComputer` instance (whose mask and
    weights they bake in), so every slide, inner iteration, level and view
    sharing a computer also shares one plan.
    """
    cache: dict[tuple[int, str], MatchPlan] | None = getattr(
        distance_computer, "_match_plans", None
    )
    if cache is None:
        cache = {}
        distance_computer._match_plans = cache  # type: ignore[attr-defined]
    key = (int(volume_size), interpolation)
    plan = cache.get(key)
    if plan is None:
        plan = MatchPlan(distance_computer, volume_size, interpolation)
        cache[key] = plan
    return plan

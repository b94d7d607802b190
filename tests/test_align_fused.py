"""The batched in-band kernel must reproduce the reference path exactly.

Every test here compares ``kernel="batched"`` against ``kernel="reference"``
(or :class:`MatchPlan` band gathers and window distances against
full-slice gathers and :meth:`DistanceComputer.distance_band`).  The
batched kernel is constructed to follow the same floating-point expression
order as the reference, so the required rtol=1e-10 equivalences are in
fact bit-exact — asserted with ``==`` / ``array_equal`` where possible.
``fused`` in a test name refers to the module under test,
:mod:`repro.align.fused`, which holds the batched kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.distance import DistanceComputer, radius_weights
from repro.align.fused import MatchPlan, get_match_plan
from repro.align.grid import orientation_window
from repro.align.matcher import match_view, match_view_window
from repro.engine.env import GATHER_CHUNK_ENV, gather_chunk_samples
from repro.ctf.model import CTFParams, ctf_2d
from repro.fourier.slicing import extract_slice, extract_slices
from repro.geometry.euler import Orientation
from repro.refine.center_refine import refine_center
from repro.refine.single import refine_view_at_level
from repro.refine.window import sliding_window_search

L = 16


@pytest.fixture(scope="module")
def volume_ft(phantom16):
    return phantom16.fourier_oversampled(2)


@pytest.fixture(scope="module")
def volume_ft_unpadded(phantom16):
    return phantom16.fourier_oversampled(1)


@pytest.fixture(scope="module")
def view_ft():
    r = np.random.default_rng(42)
    return r.normal(size=(L, L)) + 1j * r.normal(size=(L, L))


def _computers():
    return [
        DistanceComputer(L),
        DistanceComputer(L, r_max=4.0),
        DistanceComputer(L, r_max=6.0, weights=radius_weights(L, "radius", 6.0)),
        DistanceComputer(L, weights=radius_weights(L, "radius2"), normalized=True),
    ]


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
@pytest.mark.parametrize("dc_index", range(4))
def test_cut_bands_match_full_slices(volume_ft, dc_index, interpolation):
    """Band gather == full slice then mask, for every config."""
    dc = _computers()[dc_index]
    plan = MatchPlan(dc, volume_ft.shape[0], interpolation)
    grid = orientation_window(Orientation(40.0, 30.0, 70.0), 2.0, 2)
    rots = grid.rotation_stack()
    cuts = extract_slices(volume_ft, rots, order=interpolation, out_size=L)
    expected = cuts.reshape(cuts.shape[0], -1)[:, dc.band_indices]
    got = plan.cut_bands(volume_ft, rots)
    assert got.shape == (grid.size, dc.n_samples)
    assert np.array_equal(got, expected)

    one = plan.cut_band(volume_ft, rots[3])
    assert np.array_equal(one, expected[3])


@pytest.mark.parametrize("dc_index", range(4))
def test_match_view_band_equals_match_view(volume_ft, view_ft, dc_index):
    dc = _computers()[dc_index]
    plan = get_match_plan(dc, volume_ft.shape[0])
    grid = orientation_window(Orientation(25.0, 50.0, 10.0), 3.0, 2)
    ref = match_view(view_ft, volume_ft, grid, distance_computer=dc)
    batched = match_view_window(plan.gather_view(view_ft), volume_ft, grid, plan)
    assert batched.flat_index == ref.flat_index
    assert batched.distance == ref.distance
    assert batched.on_edge == ref.on_edge
    assert np.array_equal(batched.distances, ref.distances)


def test_match_with_ctf_modulation(volume_ft, view_ft):
    """|CTF| modulation applies identically on both kernels."""
    dc = DistanceComputer(L, r_max=6.0)
    mod = dc.gather_modulation(np.abs(ctf_2d(CTFParams(), L, 2.8)))
    plan = get_match_plan(dc, volume_ft.shape[0])
    grid = orientation_window(Orientation(25.0, 50.0, 10.0), 3.0, 1)
    ref = match_view(view_ft, volume_ft, grid, distance_computer=dc, cut_modulation=mod)
    batched = match_view_window(
        plan.gather_view(view_ft), volume_ft, grid, plan, cut_modulation=mod
    )
    assert batched.distance == ref.distance
    assert np.array_equal(batched.distances, ref.distances)


def test_unpadded_volume_uses_masked_path(volume_ft_unpadded, view_ft):
    """At pad_factor=1 the full band touches the boundary: masked gather kicks in."""
    dc = DistanceComputer(L)
    plan = MatchPlan(dc, volume_ft_unpadded.shape[0])
    assert not plan.all_interior
    grid = orientation_window(Orientation(65.0, 20.0, 110.0), 4.0, 1)
    ref = match_view(view_ft, volume_ft_unpadded, grid, distance_computer=dc)
    batched = match_view_window(plan.gather_view(view_ft), volume_ft_unpadded, grid, plan)
    assert np.array_equal(batched.distances, ref.distances)


def test_oversampled_volume_is_interior(volume_ft):
    """A restricted band in an oversampled volume never needs bounds checks.

    (The *full* band reaches exactly the volume face at pad_factor=2 —
    ``2·(l/2) == c_v`` — so it stays on the masked path.)
    """
    plan = MatchPlan(DistanceComputer(L, r_max=6.0), volume_ft.shape[0])
    assert plan.all_interior and plan.n_edge_samples == 0
    full = MatchPlan(DistanceComputer(L), volume_ft.shape[0])
    assert not full.all_interior and full.n_edge_samples > 0


def test_refine_center_fused_equals_reference(volume_ft, view_ft):
    dc = DistanceComputer(L, r_max=6.0, weights=radius_weights(L, "radius", 6.0))
    cut = extract_slice(volume_ft, Orientation(33.0, 44.0, 55.0).matrix(), out_size=L)
    kwargs = dict(center=(0.4, -0.2), step_px=0.25, half_steps=1, max_slides=8)
    ref = refine_center(view_ft, cut, distance_computer=dc, kernel="reference", **kwargs)
    batched = refine_center(view_ft, cut, distance_computer=dc, kernel="batched", **kwargs)
    assert (batched.cx, batched.cy) == (ref.cx, ref.cy)
    assert batched.distance == ref.distance
    assert batched.n_evaluations == ref.n_evaluations
    assert batched.slid == ref.slid


def test_sliding_window_fused_equals_reference(volume_ft, view_ft):
    """Equivalence must hold through window slides (edge winners re-center)."""
    dc = DistanceComputer(L)
    kwargs = dict(step_deg=5.0, half_steps=1, max_slides=8, distance_computer=dc)
    start = Orientation(10.0, 80.0, 200.0)
    ref = sliding_window_search(view_ft, volume_ft, start, kernel="reference", **kwargs)
    batched = sliding_window_search(view_ft, volume_ft, start, kernel="batched", **kwargs)
    assert batched.orientation.as_tuple() == ref.orientation.as_tuple()
    assert batched.distance == ref.distance
    assert batched.n_windows == ref.n_windows
    assert batched.n_matches == ref.n_matches
    assert batched.slid == ref.slid


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_refine_view_at_level_fused_equals_reference(volume_ft, view_ft, interpolation):
    """Full per-view level refinement: same orientation, center and distance."""
    dc = DistanceComputer(L, r_max=6.0)
    kwargs = dict(
        angular_step_deg=4.0,
        center_step_px=0.5,
        half_steps=2,
        center_half_steps=1,
        distance_computer=dc,
        interpolation=interpolation,
    )
    start = Orientation(50.0, 30.0, 120.0, cx=0.3, cy=-0.4)
    ref = refine_view_at_level(view_ft, volume_ft, start, kernel="reference", **kwargs)
    batched = refine_view_at_level(view_ft, volume_ft, start, kernel="batched", **kwargs)
    assert batched.orientation.as_tuple() == ref.orientation.as_tuple()
    assert batched.distance == ref.distance
    assert batched.n_matches == ref.n_matches
    assert batched.n_center_evals == ref.n_center_evals


def test_phase_shift_band_matches_full_shift(view_ft):
    from repro.imaging.center import phase_shift_ft

    dc = DistanceComputer(L)
    plan = MatchPlan(dc, 2 * L)
    band = plan.gather_view(view_ft)
    shifted = plan.phase_shift_band(band, -0.7, 0.3)
    expected = dc.gather(phase_shift_ft(view_ft, -0.7, 0.3))
    assert np.array_equal(shifted, expected)
    assert plan.phase_shift_band(band, 0.0, 0.0) is band


def test_distance_band_matches_distance(view_ft):
    """The band-vector entry point reproduces the full-array distances."""
    dc = DistanceComputer(L, r_max=5.0, weights=radius_weights(L, "radius", 5.0))
    r = np.random.default_rng(1)
    cut = r.normal(size=(L, L)) + 1j * r.normal(size=(L, L))
    d_full = dc.distance(view_ft, cut)
    d_band = dc.distance_band(dc.gather(view_ft), dc.gather(cut))
    assert d_band == d_full

    cuts = r.normal(size=(5, L, L)) + 1j * r.normal(size=(5, L, L))
    got = dc.distance_band(dc.gather(view_ft), cuts.reshape(5, -1)[:, dc.band_indices])
    assert np.array_equal(got, dc.distance_batch(view_ft, cuts))


def test_distance_band_rejects_wrong_length():
    dc = DistanceComputer(L, r_max=4.0)
    with pytest.raises(ValueError):
        dc.distance_band(np.zeros(3), np.zeros(3))


def test_plan_cache_reuses_instances():
    dc = DistanceComputer(L)
    a = get_match_plan(dc, 32)
    b = get_match_plan(dc, 32)
    c = get_match_plan(dc, 32, "nearest")
    d = get_match_plan(dc, 48)
    assert a is b
    assert c is not a and d is not a
    assert get_match_plan(DistanceComputer(L), 32) is not a


def test_plan_validates_inputs():
    dc = DistanceComputer(L)
    with pytest.raises(ValueError):
        MatchPlan(dc, 32, interpolation="cubic")
    with pytest.raises(ValueError):
        MatchPlan(dc, L - 2)
    plan = MatchPlan(dc, 32)
    with pytest.raises(ValueError):
        plan.cut_band(np.zeros((L, L, L)), np.eye(3))
    with pytest.raises(ValueError):
        plan.cut_bands(np.zeros((32, 32, 32)), np.eye(4))


# -- chunking and the whole-window entry point --------------------------------
def _reference_bands(volume_ft, dc, rots, interpolation="trilinear"):
    """Full slices through ``extract_slices``, then ``dc.gather`` per cut."""
    cuts = extract_slices(volume_ft, rots, order=interpolation, out_size=L)
    return np.stack([dc.gather(c) for c in cuts])


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
@pytest.mark.parametrize("dc_index", range(4))
def test_cut_bands_batched_equals_cut_bands(volume_ft, dc_index, interpolation, monkeypatch):
    """Chunk boundaries are invisible: ``cut_bands`` batched two rotations per
    chunk (25 rotations, so the last chunk is partial) equals the one-chunk
    ``cut_bands`` and the full slices, bit for bit."""
    dc = _computers()[dc_index]
    plan = MatchPlan(dc, volume_ft.shape[0], interpolation)
    rots = orientation_window(Orientation(40.0, 30.0, 70.0), 2.0, 2).rotation_stack()
    expected = _reference_bands(volume_ft, dc, rots, interpolation)
    monkeypatch.delenv(GATHER_CHUNK_ENV, raising=False)
    assert plan._rotation_chunk() >= rots.shape[0]
    one_chunk = plan.cut_bands(volume_ft, rots)
    monkeypatch.setenv(GATHER_CHUNK_ENV, str(2 * dc.n_samples))
    assert plan._rotation_chunk() == 2
    assert np.array_equal(plan.cut_bands(volume_ft, rots), one_chunk)
    assert np.array_equal(one_chunk, expected)
    # single-rotation input squeezes to one band vector
    assert np.array_equal(plan.cut_band(volume_ft, rots[3]), expected[3])


@pytest.mark.parametrize("dc_index", range(4))
def test_match_window_equals_distances(volume_ft, view_ft, dc_index):
    dc = _computers()[dc_index]
    plan = get_match_plan(dc, volume_ft.shape[0])
    band = plan.gather_view(view_ft)
    rots = orientation_window(Orientation(25.0, 50.0, 10.0), 3.0, 2).rotation_stack()
    expected = dc.distance_band(dc.gather(view_ft), _reference_bands(volume_ft, dc, rots))
    assert np.array_equal(plan.match_window(volume_ft, band, rots), expected)
    # a single (3, 3) rotation keeps the (1,) shape
    one = plan.match_window(volume_ft, band, rots[5])
    assert one.shape == (1,)
    assert np.array_equal(one, expected[5:6])


def test_match_window_with_ctf_modulation(volume_ft, view_ft):
    dc = DistanceComputer(L)
    plan = get_match_plan(dc, volume_ft.shape[0])
    band = plan.gather_view(view_ft)
    modulation = dc.gather_modulation(
        np.abs(ctf_2d(CTFParams(), L, apix=2.0))
    )
    rots = orientation_window(Orientation(12.0, 60.0, 300.0), 2.0, 1).rotation_stack()
    assert np.array_equal(
        plan.match_window(volume_ft, band, rots, cut_modulation=modulation),
        dc.distance_band(
            dc.gather(view_ft), _reference_bands(volume_ft, dc, rots), cut_modulation=modulation
        ),
    )


def test_sample_partition_covers_band(volume_ft):
    dc = DistanceComputer(L)
    plan = MatchPlan(dc, volume_ft.shape[0])
    assert plan.n_interior_samples + plan.n_edge_samples == dc.n_samples


def test_gather_chunk_env_override(volume_ft, view_ft, monkeypatch):
    dc = DistanceComputer(L)
    plan = get_match_plan(dc, volume_ft.shape[0])
    band = plan.gather_view(view_ft)
    rots = orientation_window(Orientation(25.0, 50.0, 10.0), 3.0, 2).rotation_stack()
    baseline = plan.match_window(volume_ft, band, rots)
    monkeypatch.setenv(GATHER_CHUNK_ENV, "1")
    assert gather_chunk_samples(1 << 16) == 1
    assert plan._rotation_chunk() == 1
    # chunking is a pure batching decision: any chunk size, same bits
    assert np.array_equal(plan.match_window(volume_ft, band, rots), baseline)


@pytest.mark.parametrize("bad", ["0", "-5", "many", "4.5", ""])
def test_gather_chunk_env_validation(monkeypatch, bad):
    monkeypatch.setenv(GATHER_CHUNK_ENV, bad)
    with pytest.raises(ValueError, match="REPRO_GATHER_CHUNK"):
        gather_chunk_samples(1 << 16)


def test_sliding_window_memo_equals_reference(volume_ft, view_ft):
    from repro.align.memo import OrientationMemo
    from repro.perf import PerfCounters

    dc = DistanceComputer(L)
    kwargs = dict(step_deg=5.0, half_steps=1, max_slides=8, distance_computer=dc)
    start = Orientation(10.0, 80.0, 200.0)
    ref = sliding_window_search(view_ft, volume_ft, start, kernel="reference", **kwargs)
    memo = OrientationMemo()
    counters = PerfCounters()
    batched = sliding_window_search(
        view_ft, volume_ft, start, kernel="batched", memo=memo, counters=counters, **kwargs
    )
    assert batched.orientation.as_tuple() == ref.orientation.as_tuple()
    assert batched.distance == ref.distance
    assert batched.n_windows == ref.n_windows
    assert batched.n_matches == ref.n_matches
    assert batched.centers == ref.centers
    assert counters.window_calls == batched.n_windows
    assert len(memo) > 0
    # second scan from the same start: every candidate comes from the memo
    counters2 = PerfCounters()
    again = sliding_window_search(
        view_ft, volume_ft, start, kernel="batched", memo=memo, counters=counters2, **kwargs
    )
    assert again == batched
    assert counters2.gathers == 0
    assert counters2.memo_hits == counters2.memo_lookups > 0

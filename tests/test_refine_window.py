"""Tests for the sliding-window angular search (steps f–i)."""

import numpy as np
import pytest

from repro.align import DistanceComputer
from repro.fourier.slicing import extract_slice
from repro.geometry import Orientation, orientation_distance_deg
from repro.refine import sliding_window_search


@pytest.fixture(scope="module")
def setup(request):
    from repro.density import asymmetric_phantom

    density = asymmetric_phantom(24, seed=3).normalized()
    vft = density.fourier_oversampled(2)
    truth = Orientation(60.0, 40.0, 25.0)
    view = extract_slice(vft, truth.matrix(), out_size=24)
    dc = DistanceComputer(24, r_max=10)
    return vft, truth, view, dc


def test_converges_inside_window(setup):
    vft, truth, view, dc = setup
    start = Orientation(61.5, 39.0, 26.0)
    res = sliding_window_search(view, vft, start, step_deg=0.5, half_steps=3, distance_computer=dc)
    assert orientation_distance_deg(res.orientation, truth) < 0.6
    assert res.n_windows >= 1


def test_no_slide_when_truth_in_interior(setup):
    vft, truth, view, dc = setup
    res = sliding_window_search(view, vft, truth, step_deg=1.0, half_steps=2, distance_computer=dc)
    assert not res.slid
    assert res.n_windows == 1
    assert res.n_matches == 5**3
    assert res.orientation.as_tuple() == pytest.approx(truth.as_tuple())


def test_slides_to_reach_outside_truth(setup):
    # truth 5 deg away; window only spans +-2 deg: must slide to get there
    vft, truth, view, dc = setup
    start = Orientation(truth.theta + 5.0, truth.phi, truth.omega)
    res = sliding_window_search(
        view, vft, start, step_deg=1.0, half_steps=2, max_slides=10, distance_computer=dc
    )
    assert res.slid
    assert res.n_windows > 1
    assert res.n_matches > 5**3  # the paper's "more matchings when sliding"
    assert orientation_distance_deg(res.orientation, truth) < 1.5


def test_max_slides_zero_stays_in_window(setup):
    vft, truth, view, dc = setup
    start = Orientation(truth.theta + 5.0, truth.phi, truth.omega)
    res = sliding_window_search(
        view, vft, start, step_deg=1.0, half_steps=2, max_slides=0, distance_computer=dc
    )
    assert res.n_windows == 1
    # best it can do is the window edge, 3 deg from truth
    assert orientation_distance_deg(res.orientation, truth) > 2.0


def test_max_slides_negative_raises(setup):
    vft, truth, view, dc = setup
    with pytest.raises(ValueError):
        sliding_window_search(view, vft, truth, 1.0, max_slides=-1, distance_computer=dc)


def test_matches_counted_per_window(setup):
    vft, truth, view, dc = setup
    res = sliding_window_search(view, vft, truth, step_deg=1.0, half_steps=1, distance_computer=dc)
    assert res.n_matches == res.n_windows * 27


# -- batched kernel + memo bit-identity (hypothesis) --------------------------
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.align.memo import OrientationMemo  # noqa: E402
from repro.perf import PerfCounters  # noqa: E402


@given(
    dtheta=st.floats(min_value=-3.0, max_value=3.0),
    dphi=st.floats(min_value=-3.0, max_value=3.0),
    domega=st.floats(min_value=-3.0, max_value=3.0),
    step=st.sampled_from([0.5, 1.0, 2.0]),
    prewarm=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_memoized_search_is_bit_identical(setup, dtheta, dphi, domega, step, prewarm):
    """Memo on, memo off, memo warm: one SlidingWindowResult, same bits.

    ``prewarm`` runs an extra search first so some examples hit a memo
    already populated by a *different* window — the cross-recenter reuse
    the memo exists for.
    """
    vft, truth, view, dc = setup
    start = Orientation(truth.theta + dtheta, truth.phi + dphi, truth.omega + domega)
    kwargs = dict(step_deg=step, half_steps=2, max_slides=4, distance_computer=dc)
    plain = sliding_window_search(view, vft, start, kernel="batched", **kwargs)
    memo = OrientationMemo()
    counters = PerfCounters()
    if prewarm:
        sliding_window_search(view, vft, truth, kernel="batched", memo=memo, **kwargs)
    memoized = sliding_window_search(
        view, vft, start, kernel="batched", memo=memo, counters=counters, **kwargs
    )
    assert memoized == plain  # frozen dataclass: covers centers and n_matches
    assert counters.candidates == plain.n_matches
    # and both agree with the reference oracle
    ref = sliding_window_search(view, vft, start, kernel="reference", **kwargs)
    assert plain.orientation.as_tuple() == ref.orientation.as_tuple()
    assert plain.distance == ref.distance
    assert plain.centers == ref.centers

"""Tests for symmetry detection (§3/§6 claim: detect symmetry if it exists)."""

import numpy as np
import pytest

from repro.align import DistanceComputer
from repro.density import asymmetric_phantom, cyclic_phantom, icosahedral_capsid_phantom
from repro.density import sindbis_like_phantom
from repro.geometry import icosahedral_group, random_orientations
from repro.geometry.rotations import axis_angle_to_matrix, rotation_between
from repro.refine import detect_symmetry, score_rotation
from repro.refine import symmetry_detect
from repro.refine.symmetry_detect import (
    RealScorePlan,
    make_rotation_scorer,
    remove_radial_average,
    score_rotation_real,
)


def test_fourier_score_low_for_true_symmetry():
    m = cyclic_phantom(24, n=4, seed=0).normalized()
    vft = m.fourier_oversampled(2)
    dc = DistanceComputer(24, r_max=10)
    probes = np.stack([o.matrix() for o in random_orientations(3, seed=1)])
    g = axis_angle_to_matrix([0, 0, 1], 90.0)
    sym_score = score_rotation(vft, g, probes, dc)
    rnd = axis_angle_to_matrix([1, 2, 3], 77.0)
    rnd_score = score_rotation(vft, rnd, probes, dc)
    assert sym_score < 0.3 * rnd_score


def test_real_score_low_for_true_symmetry():
    m = cyclic_phantom(24, n=4, seed=0).normalized()
    data = remove_radial_average(m.data)
    g = axis_angle_to_matrix([0, 0, 1], 90.0)
    rnd = axis_angle_to_matrix([1, 2, 3], 77.0)
    assert score_rotation_real(data, g) < 0.3 * score_rotation_real(data, rnd)


def test_prebuilt_plan_scores_bit_identically():
    data = remove_radial_average(sindbis_like_phantom(24).normalized().data)
    plan = RealScorePlan.from_data(data)
    for o in random_orientations(4, seed=3):
        g = o.matrix()
        assert score_rotation_real(data, g, plan) == score_rotation_real(data, g)


@pytest.fixture(scope="module")
def counted_sindbis_detection():
    """Detection on the 24³ Sindbis-like map at the engine's default
    detect settings, with every scorer evaluation counted."""
    calls = []
    real = symmetry_detect.score_rotation_real

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    m = sindbis_like_phantom(24).normalized()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry_detect, "score_rotation_real", counting)
        result = detect_symmetry(m, max_order=6, n_axes=48, accept_factor=0.2, seed=0)
    return result, len(calls)


def test_detection_score_budget(counted_sindbis_detection):
    _, n_scores = counted_sindbis_detection
    assert n_scores <= 1000


def test_detected_icosahedral_frame_matches_canonical(counted_sindbis_detection):
    """The map is rendered in the canonical frame, so each detected element
    sits next to its own canonical element (the fit may list them in a
    different order)."""
    result, _ = counted_sindbis_detection
    assert result.group_name == "I"
    canon = icosahedral_group().matrices
    nearest = []
    for got in result.group.matrices:
        gaps = [rotation_between(got, want) for want in canon]
        assert min(gaps) < 0.5
        nearest.append(int(np.argmin(gaps)))
    assert sorted(nearest) == list(range(len(canon)))


def test_remove_radial_average_kills_spherical_part():
    from repro.density.phantom import spherical_shell
    from repro.fourier.shells import radial_shell_indices_3d

    shell = spherical_shell(24, radius=8.0, thickness=2.0)
    flat = remove_radial_average(shell)
    # integer-shell binning leaves a sub-bin angular residual; what matters
    # is that every shell's MEAN is exactly zero (the rotation-invariant
    # component is gone) and that the operation is idempotent
    shells = radial_shell_indices_3d(24)
    for r in (4, 8, 10):
        assert abs(flat[shells == r].mean()) < 1e-10
    again = remove_radial_average(flat)
    assert np.allclose(again, flat, atol=1e-12)
    assert np.abs(flat).max() < 0.3 * shell.max()


def test_make_scorer_validation(phantom16):
    with pytest.raises(ValueError):
        make_rotation_scorer(phantom16, method="psychic")


def test_detect_c4():
    m = cyclic_phantom(24, n=4, seed=0).normalized()
    result = detect_symmetry(m, max_order=6, n_axes=120, seed=0)
    assert result.group_name == "C4"
    assert result.group.order == 4


def test_detect_c3():
    m = cyclic_phantom(24, n=3, seed=2).normalized()
    result = detect_symmetry(m, max_order=6, n_axes=120, seed=0)
    assert result.group_name == "C3"


def test_detect_asymmetric_returns_c1():
    m = asymmetric_phantom(24, seed=0).normalized()
    result = detect_symmetry(m, max_order=5, n_axes=80, seed=0)
    assert result.group_name == "C1"
    assert result.group.order == 1
    assert result.axes == []


def test_detect_sindbis_full_icosahedral():
    """The flagship case: the Sindbis-like capsid is identified as I."""
    m = sindbis_like_phantom(32).normalized()
    result = detect_symmetry(m, max_order=6, n_axes=150, seed=0)
    assert result.group_name == "I"
    assert result.group.order == 60
    orders = {o for _, o, _ in result.axes}
    assert 5 in orders  # a genuine 5-fold was found, not just inferred


def test_detect_icosahedral_capsid_at_least_polyhedral():
    """Smooth single-blob capsids may resolve only a polyhedral subgroup of
    I (T shares all its 2-folds); any of I/T with order >= 12 counts as a
    successful symmetric-particle detection."""
    m = icosahedral_capsid_phantom(32, seed=0).normalized()
    result = detect_symmetry(m, max_order=6, n_axes=150, seed=0)
    assert result.group_name in ("I", "T")
    assert result.group.order >= 12


def test_fourier_backend_still_works_for_cyclic():
    m = cyclic_phantom(24, n=4, seed=0).normalized()
    result = detect_symmetry(m, max_order=4, n_axes=80, seed=0, method="fourier")
    assert result.group_name in ("C4", "C2")  # noisier backend, weaker guarantee


def test_null_statistics_populated():
    m = cyclic_phantom(24, n=4, seed=0).normalized()
    result = detect_symmetry(m, max_order=4, n_axes=60, seed=0)
    assert result.null_mean > 0
    assert result.threshold == pytest.approx(0.2 * result.null_mean)


def test_detect_backend_fanout_matches_serial():
    """The axis×order sweep fanned out through an ExecutionBackend must
    reproduce the serial detector's result and score tables exactly —
    score_rotation_real is pure, so chunking is invisible."""
    from repro.engine.backends import ProcessBackend, SerialBackend
    from repro.parallel.viewsched import ViewScheduler

    m = sindbis_like_phantom(24).normalized()
    serial = detect_symmetry(m, max_order=6, n_axes=60, seed=0)
    via_serial_backend = detect_symmetry(
        m, max_order=6, n_axes=60, seed=0, backend=SerialBackend()
    )
    with ViewScheduler(n_workers=2) as sched:
        pooled = detect_symmetry(
            m, max_order=6, n_axes=60, seed=0, backend=ProcessBackend(scheduler=sched)
        )
    for result in (via_serial_backend, pooled):
        assert result.group_name == serial.group_name
        assert result.null_mean == serial.null_mean
        assert result.null_std == serial.null_std
        assert result.threshold == serial.threshold
        assert np.array_equal(result.group.matrices, serial.group.matrices)
        assert len(result.axes) == len(serial.axes)
        for (ax_a, order_a, score_a), (ax_b, order_b, score_b) in zip(
            result.axes, serial.axes
        ):
            assert (order_a, score_a) == (order_b, score_b)
            assert np.array_equal(ax_a, ax_b)

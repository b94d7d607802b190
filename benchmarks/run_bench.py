"""Kernel benchmark driver: batched vs reference, pruning, symmetry, pool scaling.

Measures the performance claims of the kernel work:

* the batched whole-window in-band engine (with the orientation memo) vs
  the reference slice-then-distance oracle, on the full multi-resolution
  schedule at the paper-scale view size (l = 64, oversampled D̂),
  including the measured memo hit-rate,
* the same batched engine with the orientation memo on vs off (wall
  time and candidates computed; the memo may only skip gathers), on the
  asymmetric problem and on an icosahedral one restricted to ``fixed:I``,
* the pruned best-first search (exact, bit-identical) and the pruned
  search + continuous polish (toleranced, objective-dominating) vs the
  exhaustive batched engine, with candidates-evaluated counts,
* real-space symmetry detection on the 24³ Sindbis-like map (wall time,
  scorer evaluations, detected group), and
* the process-parallel view scheduler at 1 vs N workers (recorded, not
  asserted — wall-clock scaling depends on the host's core count; on a
  single-CPU host the measurement is skipped and recorded as such).

Every measurement doubles as an equivalence check: the benchmark fails if
the compared paths disagree on any orientation or distance bit.

Run standalone to (re)generate ``BENCH_kernels.json`` at the repo root::

    PYTHONPATH=src python benchmarks/run_bench.py

or through the pytest harness (same numbers, plus artifact capture)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_fused_kernel.py -s
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

if __package__ in (None, ""):  # standalone: make src/ importable
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

BENCH_FILE = REPO_ROOT / "BENCH_kernels.json"


def _make_problem(size: int, n_views: int, seed: int = 0):
    from repro.density import asymmetric_phantom
    from repro.imaging.simulate import simulate_views

    density = asymmetric_phantom(size, seed=seed).normalized()
    views = simulate_views(
        density, n_views, initial_angle_error_deg=2.0, center_sigma_px=0.5, seed=seed
    )
    return density, views


def measure_batched_vs_reference(
    size: int = 64,
    n_views: int = 2,
    r_max: float | None = None,
    seed: int = 0,
) -> dict:
    """The production batched engine (memo on) vs the reference oracle.

    One full multi-resolution refinement per kernel; the views carry center
    jitter so the sliding window re-centers and the orientation memo gets
    genuine cross-recenter/cross-level hits.  The two kernels must return
    bit-identical orientations and distances — a mismatch raises instead of
    reporting a meaningless speedup.
    """
    from repro.refine.refiner import OrientationRefiner

    density, views = _make_problem(size, n_views, seed)
    results = {}
    timings = {}
    for kernel in ("reference", "batched"):
        refiner = OrientationRefiner(density, r_max=r_max, kernel=kernel)
        refiner.volume_ft()  # step a excluded: both kernels share it unchanged
        t0 = time.perf_counter()
        results[kernel] = refiner.refine(views)
        timings[kernel] = time.perf_counter() - t0
    ref, bat = results["reference"], results["batched"]
    if [o.as_tuple() for o in ref.orientations] != [o.as_tuple() for o in bat.orientations]:
        raise AssertionError("batched kernel diverged from reference orientations")
    if not np.array_equal(ref.distances, bat.distances):
        raise AssertionError("batched kernel diverged from reference distances")
    perf = bat.perf
    assert perf is not None
    return {
        "size": size,
        "n_views": n_views,
        "r_max": size // 2 if r_max is None else r_max,
        "schedule": "default (1.0, 0.1, 0.01, 0.002 deg)",
        "n_matches": ref.stats.total_matches,
        "reference_seconds": round(timings["reference"], 3),
        "batched_seconds": round(timings["batched"], 3),
        "speedup": round(timings["reference"] / timings["batched"], 2),
        "memo_hit_rate": round(perf.memo_hit_rate(), 4),
        "candidates_per_second": round(perf.candidates_per_second(), 1),
        "identical_results": True,
    }


def _memo_on_vs_off(density, views, config: dict) -> dict:
    """Refine ``views`` with the memo off, then on, under ``config``.

    The memo's only effect is skipped gathers, so the two runs must return
    bit-identical orientations and distances — a mismatch raises.
    """
    from repro.engine.config import EngineConfig
    from repro.refine.refiner import OrientationRefiner

    results = {}
    timings = {}
    for memo in (False, True):
        cfg = EngineConfig.from_dict({**config, "memo": {"enabled": memo}})
        refiner = OrientationRefiner(density, config=cfg)
        refiner.volume_ft()  # step a excluded: both runs share it unchanged
        t0 = time.perf_counter()
        results[memo] = refiner.refine(views)
        timings[memo] = time.perf_counter() - t0
    off, on = results[False], results[True]
    if [o.as_tuple() for o in off.orientations] != [o.as_tuple() for o in on.orientations]:
        raise AssertionError("memo-on orientations diverged from memo-off")
    if not np.array_equal(off.distances, on.distances):
        raise AssertionError("memo-on distances diverged from memo-off")
    assert off.perf is not None and on.perf is not None
    return {
        "memo_off_seconds": round(timings[False], 3),
        "memo_on_seconds": round(timings[True], 3),
        "speedup": round(timings[False] / timings[True], 2),
        "memo_off_gathers": off.perf.gathers,
        "memo_on_gathers": on.perf.gathers,
        "memo_hit_rate": round(on.perf.memo_hit_rate(), 4),
        "identical_results": True,
    }


def measure_memo_on_vs_off(
    size: int = 64,
    n_views: int = 2,
    r_max: float | None = None,
    seed: int = 0,
    symmetric_size: int = 32,
    symmetric_views: int = 4,
) -> dict:
    """The batched engine with the orientation memo on vs off.

    Same problem and schedule as :func:`measure_batched_vs_reference`,
    plus a ``symmetric`` row: an icosahedral phantom refined under
    ``symmetry.mode = "fixed:I"``, where the memo keys on the same exact
    floats and must be bit-identical on and off too (DESIGN.md §13).
    Records both wall times and the candidates actually computed in each
    run.
    """
    from repro.imaging.simulate import simulate_views
    from repro.pipeline.datasets import phantom_for

    density, views = _make_problem(size, n_views, seed)
    row = {
        "size": size,
        "n_views": n_views,
        "r_max": size // 2 if r_max is None else r_max,
        "schedule": "default (1.0, 0.1, 0.01, 0.002 deg)",
        **_memo_on_vs_off(density, views, {"r_max": r_max}),
    }
    capsid = phantom_for("sindbis", symmetric_size, seed=seed)
    capsid_views = simulate_views(
        capsid, symmetric_views, initial_angle_error_deg=2.0, center_sigma_px=0.5, seed=seed
    )
    row["symmetric"] = {
        "size": symmetric_size,
        "n_views": symmetric_views,
        "symmetry": "fixed:I",
        "schedule": "default (1.0, 0.1, 0.01, 0.002 deg)",
        **_memo_on_vs_off(capsid, capsid_views, {"symmetry": {"mode": "fixed:I"}}),
    }
    return row


def measure_pruned_vs_batched(
    size: int = 64,
    n_views: int = 2,
    r_max: float | None = None,
    seed: int = 0,
) -> dict:
    """Pruned search + continuous polish vs the exhaustive batched engine.

    Three runs on the full default schedule:

    1. the batched engine (the previous best) — the baseline,
    2. pruning alone (``top_k=None``) — must be *bit-identical* to the
       baseline (the early-termination bound is exact; a mismatch raises),
    3. pruning + polish — the fine 0.01°/0.002° levels replaced by the
       damped Gauss–Newton descent; gated by objective non-regression
       (every polished distance ≤ the baseline's) rather than bit
       identity, with the angular deviation recorded.

    ``candidates_evaluated`` counts candidates scored to a *full* §3
    distance (the perf counters' ``evaluated``); abandoned candidates pay
    only their first shell groups.
    """
    from repro.engine.config import EngineConfig
    from repro.refine.refiner import OrientationRefiner

    density, views = _make_problem(size, n_views, seed)

    def run(config_patch: dict | None):
        refiner = OrientationRefiner(density, r_max=r_max)
        if config_patch is not None:
            config = EngineConfig.from_dict({**refiner.config.to_dict(), **config_patch})
            refiner = OrientationRefiner(density, r_max=r_max, config=config)
        refiner.volume_ft()  # step a excluded: all three runs share it unchanged
        t0 = time.perf_counter()
        result = refiner.refine(views)
        return result, time.perf_counter() - t0

    base, base_dt = run(None)
    assert base.perf is not None
    base_evaluated = base.perf.evaluated

    pruned, pruned_dt = run({"prune": {"enabled": True}})
    assert pruned.perf is not None
    if [o.as_tuple() for o in pruned.orientations] != [
        o.as_tuple() for o in base.orientations
    ]:
        raise AssertionError("pruned search diverged from batched orientations")
    if not np.array_equal(pruned.distances, base.distances):
        raise AssertionError("pruned search diverged from batched distances")

    polish, polish_dt = run(
        {"prune": {"enabled": True}, "polish": {"enabled": True}}
    )
    assert polish.perf is not None
    if np.any(np.asarray(polish.distances) > np.asarray(base.distances) * (1 + 1e-12)):
        raise AssertionError(
            "polish regressed the objective vs the brute-force fine tail"
        )
    angle_err = max(
        abs(float(g) - float(w))
        for got, want in zip(polish.orientations, base.orientations)
        for g, w in zip(got.as_tuple()[:3], want.as_tuple()[:3])
    )
    return {
        "size": size,
        "n_views": n_views,
        "r_max": size // 2 if r_max is None else r_max,
        "schedule": "default (1.0, 0.1, 0.01, 0.002 deg)",
        "batched_seconds": round(base_dt, 3),
        "batched_candidates_evaluated": base_evaluated,
        "pruned_identity": {
            "seconds": round(pruned_dt, 3),
            "candidates_evaluated": pruned.perf.evaluated,
            "candidates_pruned": pruned.perf.pruned,
            "eval_reduction": round(base_evaluated / pruned.perf.evaluated, 2),
            "identical_results": True,
        },
        "pruned_polish": {
            "seconds": round(polish_dt, 3),
            "speedup": round(base_dt / polish_dt, 2),
            "candidates_evaluated": polish.perf.evaluated,
            "eval_reduction": round(base_evaluated / polish.perf.evaluated, 2),
            "polish_views": polish.perf.polish_calls,
            "polish_iters": polish.perf.polish_iters,
            "max_angular_deviation_deg": round(angle_err, 6),
            "replaced_tail_step_deg": 0.002,
            "distances_dominate_batched": True,
        },
    }


def measure_symmetric_vs_full(
    size: int = 64,
    res_deg: float = 6.0,
    omega_step_deg: float = 30.0,
    seed: int = 0,
) -> dict:
    """Asymmetric-unit-restricted global search vs the full-sphere scan.

    An icosahedral (|G| = 60) phantom at the paper-scale view size: the
    restricted search scores the sin(θ)-corrected global grid cut to one
    asymmetric unit; the full search scores that grid's complete orbit
    expansion ``{g·r}`` — exactly |G|× the candidate evaluations, through
    the identical batched kernel.  The view is generated at a restricted
    grid orientation, so both searches have an unambiguous minimum; the
    full scan's argmin must equal the restricted argmin *modulo the
    group* (the §13 contract — bit-identity cannot hold because
    G-equivalent candidates gather different lattice neighborhoods).
    """
    from repro.align.distance import DistanceComputer
    from repro.align.fused import get_match_plan
    from repro.fourier.slicing import extract_slice
    from repro.geometry.euler import Orientation, euler_to_matrix
    from repro.geometry.symmetry import icosahedral_group
    from repro.pipeline.datasets import phantom_for
    from repro.refine.restrict import SymmetryRestriction
    from repro.refine.stats import angular_errors

    group = icosahedral_group()
    restriction = SymmetryRestriction.from_group(group)
    density = phantom_for("sindbis", size, seed=seed)
    volume_ft = density.fourier_oversampled(2)

    views_au = restriction.restricted_views(res_deg)
    omegas = np.arange(0.0, 360.0, omega_step_deg)
    thetas = np.repeat([v[0] for v in views_au], len(omegas))
    phis = np.repeat([v[1] for v in views_au], len(omegas))
    oms = np.tile(omegas, len(views_au))
    rots_au = euler_to_matrix(thetas, phis, oms)
    rots_full = np.einsum(
        "gij,wjk->gwik", np.asarray(group.matrices), rots_au
    ).reshape(-1, 3, 3)

    # the probe view: a central cut at one restricted grid orientation
    truth_idx = len(rots_au) // 3
    view_ft = extract_slice(volume_ft, rots_au[truth_idx], out_size=size)
    dc = DistanceComputer(size)
    plan = get_match_plan(dc, volume_ft.shape[0], "trilinear")
    view_band = plan.gather_view(view_ft)

    t0 = time.perf_counter()
    d_au = np.asarray(plan.match_window(volume_ft, view_band, rots_au))
    restricted_dt = time.perf_counter() - t0
    t0 = time.perf_counter()
    d_full = np.asarray(plan.match_window(volume_ft, view_band, rots_full))
    full_dt = time.perf_counter() - t0

    o_au = Orientation.from_matrix(rots_au[int(np.argmin(d_au))])
    o_full = Orientation.from_matrix(rots_full[int(np.argmin(d_full))])
    argmin_err = float(angular_errors([o_full], [o_au], symmetry=group)[0])
    if argmin_err > 1e-6:
        raise AssertionError(
            "restricted argmin differs from the exhaustive argmin modulo "
            f"the group by {argmin_err:.3g} deg"
        )
    eval_reduction = len(rots_full) / len(rots_au)
    if eval_reduction < 10.0:
        raise AssertionError(
            f"candidate-evaluation reduction {eval_reduction:.1f}x below the 10x bar"
        )
    return {
        "size": size,
        "group": group.name,
        "group_order": group.order,
        "resolution_deg": res_deg,
        "omega_step_deg": omega_step_deg,
        "restricted_candidates": len(rots_au),
        "full_candidates": len(rots_full),
        "candidate_eval_reduction": round(eval_reduction, 2),
        "grid_reduction_factor": round(restriction.reduction_factor(res_deg), 2),
        "restricted_seconds": round(restricted_dt, 3),
        "full_seconds": round(full_dt, 3),
        "speedup": round(full_dt / restricted_dt, 2),
        "argmin_error_mod_group_deg": argmin_err,
        "argmin_equal_mod_group": True,
    }


def measure_symmetry_detect(size: int = 24) -> dict:
    """Symmetry detection on the Sindbis-like map at the engine's detect defaults.

    Records the wall time, the number of real-space scorer evaluations
    (counted by wrapping ``score_rotation_real``, through which every
    score goes) and the detected group, which must be I.
    """
    from repro.density import sindbis_like_phantom
    from repro.engine.config import SymmetryConfig
    from repro.refine import symmetry_detect

    cfg = SymmetryConfig(mode="detect")
    density = sindbis_like_phantom(size).normalized()
    real = symmetry_detect.score_rotation_real
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    symmetry_detect.score_rotation_real = counting
    try:
        t0 = time.perf_counter()
        result = symmetry_detect.detect_symmetry(
            density,
            max_order=cfg.detect_max_order,
            n_axes=cfg.detect_n_axes,
            accept_factor=cfg.detect_accept_factor,
            seed=cfg.detect_seed,
        )
        dt = time.perf_counter() - t0
    finally:
        symmetry_detect.score_rotation_real = real
    if result.group_name != "I":
        raise AssertionError(f"detected {result.group_name} on the Sindbis-like map, not I")
    return {
        "size": size,
        "max_order": cfg.detect_max_order,
        "n_axes": cfg.detect_n_axes,
        "detect_seconds": round(dt, 3),
        "score_evaluations": calls,
        "group": result.group_name,
        "group_order": result.group.order,
    }


def measure_worker_scaling(
    size: int = 32,
    n_views: int = 8,
    worker_counts: tuple[int, ...] = (1, 2),
    seed: int = 0,
) -> dict:
    """Wall time of the refinement at each worker count.

    Results must be bit-identical at every count.  The speedup column is
    recorded as measured; on a host with a single CPU a multi-worker
    measurement is meaningless (the pool can only add overhead), so the
    run is skipped and recorded as a structured
    ``{"status": "skipped", "reason": "insufficient cpus"}`` record that
    downstream tooling can branch on without string-parsing.
    """
    from repro.refine.refiner import OrientationRefiner

    host_cpus = os.cpu_count() or 1
    if host_cpus < 2 and any(n > 1 for n in worker_counts):
        return {
            "status": "skipped",
            "reason": "insufficient cpus",
            "size": size,
            "n_views": n_views,
            "host_cpus": host_cpus,
        }
    density, views = _make_problem(size, n_views, seed)
    baseline = None
    rows = []
    for n in worker_counts:
        refiner = OrientationRefiner(density, n_workers=n)
        refiner.volume_ft()
        t0 = time.perf_counter()
        result = refiner.refine(views)
        dt = time.perf_counter() - t0
        if baseline is None:
            baseline = result
            base_dt = dt
        else:
            if [o.as_tuple() for o in result.orientations] != [
                o.as_tuple() for o in baseline.orientations
            ]:
                raise AssertionError(f"n_workers={n} diverged from serial orientations")
            if not np.array_equal(result.distances, baseline.distances):
                raise AssertionError(f"n_workers={n} diverged from serial distances")
        rows.append(
            {
                "n_workers": n,
                "seconds": round(dt, 3),
                "speedup_vs_serial": round(base_dt / dt, 2),
            }
        )
    return {
        "status": "ok",
        "size": size,
        "n_views": n_views,
        "host_cpus": os.cpu_count(),
        "identical_results": True,
        "rows": rows,
    }


def engine_fingerprint() -> str:
    """Fingerprint of the engine config the benchmarks run under.

    All measurements use the engine defaults; the kernel selector and
    worker count are the independent variables being compared, and every
    compared pair is asserted bit-identical, so the default-config
    fingerprint identifies the numerical configuration of the whole file.
    """
    from repro.engine.config import EngineConfig

    return EngineConfig().fingerprint()


def run_all() -> dict:
    return {
        "engine_fingerprint": engine_fingerprint(),
        "batched_vs_reference": measure_batched_vs_reference(),
        "memo_on_vs_off": measure_memo_on_vs_off(),
        "pruned_vs_batched": measure_pruned_vs_batched(),
        "symmetric_vs_full": measure_symmetric_vs_full(),
        "symmetry_detect": measure_symmetry_detect(),
        "worker_scaling": measure_worker_scaling(),
    }


def main() -> None:
    data = run_all()
    BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(data, indent=2))
    print(f"\nwrote {BENCH_FILE}")


if __name__ == "__main__":
    main()

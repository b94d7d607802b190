"""The scenario matrix: the repo's accuracy-regression harness (DESIGN.md §12).

Every other gate guards *speed* or *bit-identity*; this one guards
*accuracy* across realistic workloads — the regimes the paper actually
ran: low-SNR cryo-EM views, per-micrograph defocus groups, symmetric and
asymmetric particles, and ab-initio-like starts far from the truth.  A
:class:`Scenario` is a declarative spec (phantom, box size, noise model,
CTF defocus groups, symmetry class, initial-orientation perturbation,
engine overrides, pass thresholds); the :class:`ScenarioRunner` executes
it through :class:`~repro.engine.core.RefinementEngine`, scores it with
:mod:`repro.refine.stats` (angular/center error, modulo the particle's
point group) and :mod:`repro.reconstruct.resolution` (half-map FSC 0.5
crossing), and emits a schema-versioned record into
``BENCH_scenarios.json``.

Paper-scale workloads (l=331/511) cannot run in CI; they enter the matrix
as :class:`CostModelScenario` entries instead — the analytic
:class:`~repro.parallel.perf_model.PerformanceModel` calibrated against
one Table-1 cell and asserted to reproduce the tables' structure
(calibration fidelity, monotonicity in matchings, total-hours envelope).

Determinism contract: every refinement scenario is fully seeded — the
dataset (phantom, projections, noise, boxing errors) derives from
``Scenario.seed`` and the initial-orientation perturbation from its *own*
``PerturbationSpec.seed``.  The two streams are deliberately independent
so the perturbation seed can be varied (hypothesis-tested) without
changing a single image byte.  Record comparison for resume-identity
drops only the wall-clock ``timing`` section and the execution-strategy
engine keys; everything else must match bit-for-bit.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.ctf.model import defocus_group_params
from repro.engine.config import EngineConfig, ScheduleConfig
from repro.engine.core import RefinementEngine
from repro.geometry.euler import Orientation
from repro.geometry.symmetry import SymmetryGroup, group_from_name
from repro.imaging.simulate import SimulatedViews, simulate_views
from repro.parallel.perf_model import (
    PaperWorkload,
    PerformanceModel,
    REO_WORKLOAD,
    SINDBIS_WORKLOAD,
)
from repro.pipeline.datasets import phantom_for
from repro.reconstruct.resolution import fsc_crossing
from repro.refine.refiner import STEP_SYMMETRY
from repro.refine.stats import angular_errors, center_errors
from repro.utils import Timer, default_rng

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "CostModelScenario",
    "PerturbationSpec",
    "Scenario",
    "ScenarioRecord",
    "ScenarioRunner",
    "ScenarioThresholds",
    "default_matrix",
    "load_bench",
    "perturb_orientations",
    "symmetry_group_for",
    "validate_bench_payload",
    "write_bench",
]

#: Version of the ``BENCH_scenarios.json`` record schema.  Bump when a
#: record field is added, removed, or changes meaning; the validator
#: refuses payloads from another version.
#: v2: refinement metrics gained ``detected_symmetry_group`` and
#: ``candidate_reduction_factor`` (the symmetry-restricted search).
#: v3: new ``determination`` record type — the outer refine→reconstruct
#: loop run end to end, with its per-iteration FSC trajectory.
SCENARIO_SCHEMA_VERSION = 3

PERTURBATION_MODES = ("none", "gaussian", "uniform")

#: The mini three-level schedule most refinement scenarios run (1° →
#: 0.5° → 0.25°, center steps tracking, ±half_steps windows as listed).
MINI_LEVELS: tuple[tuple[float, float, int, int], ...] = (
    (1.0, 1.0, 3, 1),
    (0.5, 0.5, 2, 1),
    (0.25, 0.25, 2, 1),
)

#: Engine sections that describe *how* a run executes, never *what* it
#: computes — stripped from records before resume-identity comparison,
#: mirroring :meth:`EngineConfig.fingerprint`'s exclusions.
_EXECUTION_SECTIONS = ("parallel", "fault", "checkpoint")


def symmetry_group_for(name: str) -> SymmetryGroup | None:
    """The point group to score angular errors modulo, or ``None`` for C1.

    Accepted spellings: ``"C1"`` (asymmetric), ``"C<n>"``, ``"D<n>"``,
    ``"T"``, ``"O"``, ``"I"`` — the same names
    :func:`repro.geometry.symmetry.group_from_name` builds.
    """
    if name == "C1":
        return None
    try:
        return group_from_name(name)
    except ValueError:
        raise ValueError(f"unknown symmetry class {name!r}") from None


@dataclass(frozen=True)
class PerturbationSpec:
    """How a scenario's initial orientations are derived from the truth.

    ``gaussian`` jitters each Euler angle by N(0, angle_deg) — the classic
    "old method output" starting point; ``uniform`` draws each angle error
    from U(−angle_deg, +angle_deg) — the ab-initio-like start where the
    initial guess can sit anywhere in a wide box around the truth;
    ``none`` starts from the exact truth (centers still reset to zero, as
    the refinement never sees the true boxing error).  ``center_px``
    optionally jitters the initial center estimates the same way.

    The spec's ``seed`` drives an RNG *independent* of the dataset seed,
    so changing it regenerates the starts but not one pixel of the images.
    """

    mode: str = "gaussian"
    angle_deg: float = 2.0
    center_px: float = 0.0
    seed: int = 101

    def __post_init__(self) -> None:
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(
                f"perturbation.mode must be one of {PERTURBATION_MODES}, "
                f"got {self.mode!r}"
            )
        if self.angle_deg < 0 or self.center_px < 0:
            raise ValueError("perturbation magnitudes must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "angle_deg": self.angle_deg,
            "center_px": self.center_px,
            "seed": self.seed,
        }


def perturb_orientations(
    orientations: Sequence[Orientation], spec: PerturbationSpec
) -> list[Orientation]:
    """Initial-orientation set for a scenario: truth jittered per ``spec``.

    Draw order is fixed (per orientation: θ, φ, ω, then cx, cy when
    ``center_px > 0``) so the gaussian mode reproduces the historical
    figure-experiment perturbation stream bit-for-bit.
    """
    if spec.mode == "none":
        return [o.with_center(0.0, 0.0) for o in orientations]
    rng = default_rng(spec.seed)
    if spec.mode == "gaussian":
        def draw(scale: float) -> float:
            return float(rng.normal(0.0, scale))
    else:  # uniform
        def draw(scale: float) -> float:
            return float(rng.uniform(-scale, scale))
    out: list[Orientation] = []
    for o in orientations:
        theta = o.theta + draw(spec.angle_deg)
        phi = o.phi + draw(spec.angle_deg)
        omega = o.omega + draw(spec.angle_deg)
        cx = draw(spec.center_px) if spec.center_px > 0 else 0.0
        cy = draw(spec.center_px) if spec.center_px > 0 else 0.0
        out.append(Orientation(theta, phi, omega, cx, cy))
    return out


@dataclass(frozen=True)
class ScenarioThresholds:
    """Per-scenario pass criteria; ``None`` disables a check.

    Thresholds are *regression pins*: each bound is the measured value of
    the current implementation plus ~20–50% headroom for cross-platform
    numeric drift, not an absolute claim about convergence.  A threshold
    trip therefore means "a change degraded accuracy on this workload",
    exactly like a bench regression means "a change degraded speed".
    Wall-clock is deliberately *not* a threshold here (it would make pass
    status machine-dependent); the suite's time budget is asserted by the
    ``tools/check.py`` stage instead.
    """

    max_median_angular_error_deg: float | None = None
    max_p90_angular_error_deg: float | None = None
    max_median_center_error_px: float | None = None
    max_fsc_crossing_angstrom: float | None = None
    min_improvement_ratio: float | None = None
    # cost-model scenarios only
    max_total_hours: float | None = None
    min_total_hours: float | None = None
    max_calibration_rel_error: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out = {
            "max_median_angular_error_deg": self.max_median_angular_error_deg,
            "max_p90_angular_error_deg": self.max_p90_angular_error_deg,
            "max_median_center_error_px": self.max_median_center_error_px,
            "max_fsc_crossing_angstrom": self.max_fsc_crossing_angstrom,
            "min_improvement_ratio": self.min_improvement_ratio,
            "max_total_hours": self.max_total_hours,
            "min_total_hours": self.min_total_hours,
            "max_calibration_rel_error": self.max_calibration_rel_error,
        }
        return {k: v for k, v in out.items() if v is not None}


#: (threshold field, metric key, direction) — ``"max"`` fails when the
#: metric exceeds the bound, ``"min"`` when it falls short.
_THRESHOLD_CHECKS: tuple[tuple[str, str, str], ...] = (
    ("max_median_angular_error_deg", "median_angular_error_deg", "max"),
    ("max_p90_angular_error_deg", "p90_angular_error_deg", "max"),
    ("max_median_center_error_px", "median_center_error_px", "max"),
    ("max_fsc_crossing_angstrom", "fsc_crossing_angstrom", "max"),
    ("min_improvement_ratio", "improvement_ratio", "min"),
    ("max_total_hours", "total_hours", "max"),
    ("min_total_hours", "total_hours", "min"),
    ("max_calibration_rel_error", "calibration_rel_error", "max"),
)


def evaluate_thresholds(
    metrics: Mapping[str, Any], thresholds: ScenarioThresholds
) -> list[str]:
    """Human-readable failure strings for every tripped threshold."""
    failures: list[str] = []
    for t_field, m_key, direction in _THRESHOLD_CHECKS:
        bound = getattr(thresholds, t_field)
        if bound is None:
            continue
        if m_key not in metrics:
            failures.append(f"{t_field}: metric {m_key!r} missing from record")
            continue
        value = float(metrics[m_key])
        if direction == "max" and value > bound:
            failures.append(f"{t_field}: {value:.6g} > {bound:.6g}")
        elif direction == "min" and value < bound:
            failures.append(f"{t_field}: {value:.6g} < {bound:.6g}")
    return failures


@dataclass(frozen=True)
class Scenario:
    """One refinement workload of the accuracy matrix.

    The spec is declarative and fully seeded: phantom ``kind``/``size``
    (as in :func:`repro.pipeline.datasets.phantom_for`), view count, SNR
    (``inf`` = noiseless; realized exactly when ``exact_snr``), CTF
    defocus groups (empty = no CTF), the particle's point-group symmetry
    (scoring is modulo this group), the initial-orientation perturbation,
    per-view boxing error, matching knobs, an optional partial
    ``EngineConfig`` override dict, and the pass thresholds.
    """

    name: str
    kind: str = "asymmetric"
    size: int = 24
    n_views: int = 6
    snr: float = math.inf
    exact_snr: bool = True
    defocus_groups: tuple[float, ...] = ()
    symmetry: str = "C1"
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    center_sigma_px: float = 0.0
    seed: int = 3
    r_max: float = 8.0
    max_slides: int = 4
    schedule_levels: tuple[tuple[float, float, int, int], ...] = MINI_LEVELS
    engine: Mapping[str, Any] = field(default_factory=dict)
    thresholds: ScenarioThresholds = field(default_factory=ScenarioThresholds)
    #: > 0 runs the full structure-determination loop for that many outer
    #: iterations (a ``determination`` record with an FSC trajectory)
    #: instead of a single refinement against the ground-truth map.
    loop_iterations: int = 0

    def __post_init__(self) -> None:
        if self.loop_iterations < 0:
            raise ValueError("loop_iterations must be >= 0 (0 = single refinement)")
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.size < 8:
            raise ValueError("scenario box size must be >= 8")
        if self.n_views < 2:
            raise ValueError("need >= 2 views (the FSC splits odd/even)")
        if self.snr <= 0:
            raise ValueError("snr must be positive (inf = noiseless)")
        if any(d <= 0 for d in self.defocus_groups):
            raise ValueError("defocus groups must be positive (Å underfocus)")
        if self.center_sigma_px < 0:
            raise ValueError("center_sigma_px must be non-negative")
        symmetry_group_for(self.symmetry)  # raises on an unknown class

    def spec_dict(self) -> dict[str, Any]:
        """The JSON-safe spec half of this scenario's record."""
        return {
            "kind": self.kind,
            "size": self.size,
            "n_views": self.n_views,
            "snr": None if math.isinf(self.snr) else self.snr,
            "exact_snr": self.exact_snr,
            "defocus_groups": list(self.defocus_groups),
            "symmetry": self.symmetry,
            "perturbation": self.perturbation.to_dict(),
            "center_sigma_px": self.center_sigma_px,
            "seed": self.seed,
            "r_max": self.r_max,
            "max_slides": self.max_slides,
            "schedule_levels": [list(level) for level in self.schedule_levels],
            "engine": _jsonify(self.engine),
            "loop_iterations": self.loop_iterations,
        }


@dataclass(frozen=True)
class CostModelScenario:
    """A paper-scale workload priced by the calibrated analytic model.

    The model is calibrated once against a known Table-1 cell (Sindbis
    level-0 refinement = 4053 s on the SP2-like machine) and then asked to
    reproduce the table for ``workload``; the record checks calibration
    fidelity, monotonicity of refinement time in the per-view matching
    count, and a total-hours envelope around the paper's figures.
    """

    name: str
    workload: str = "sindbis"
    calibrate_level: int = 0
    calibrate_seconds: float = 4053.0
    thresholds: ScenarioThresholds = field(default_factory=ScenarioThresholds)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.workload not in ("sindbis", "reo"):
            raise ValueError(f"workload must be 'sindbis' or 'reo', got {self.workload!r}")
        if not 0 <= self.calibrate_level < len(SINDBIS_WORKLOAD.levels):
            raise ValueError("calibrate_level out of range")
        if self.calibrate_seconds <= 0:
            raise ValueError("calibrate_seconds must be positive")

    def paper_workload(self) -> PaperWorkload:
        return SINDBIS_WORKLOAD if self.workload == "sindbis" else REO_WORKLOAD

    def spec_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "image_size": self.paper_workload().image_size,
            "n_views": self.paper_workload().n_views,
            "calibrate_level": self.calibrate_level,
            "calibrate_seconds": self.calibrate_seconds,
        }


def _jsonify(value: Any) -> Any:
    """Recursively coerce a spec fragment into JSON-native types."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


@dataclass
class ScenarioRecord:
    """One scored entry of ``BENCH_scenarios.json``.

    ``spec``/``metrics``/``thresholds``/``failures``/``passed``/
    ``fingerprint`` are deterministic functions of the scenario and the
    code; ``perf`` (counter totals) is deterministic for a fixed execution
    strategy but not across them; ``timing`` is wall-clock and never
    comparable.  :meth:`comparable` keeps exactly the deterministic core.
    """

    name: str
    type: str  # "refinement" | "cost_model"
    spec: dict[str, Any]
    metrics: dict[str, Any]
    thresholds: dict[str, Any]
    failures: list[str]
    passed: bool
    fingerprint: str
    perf: dict[str, Any] = field(default_factory=dict)
    timing: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": self.type,
            "spec": self.spec,
            "metrics": self.metrics,
            "thresholds": self.thresholds,
            "failures": list(self.failures),
            "passed": self.passed,
            "fingerprint": self.fingerprint,
            "perf": self.perf,
            "timing": self.timing,
        }

    def comparable(self) -> dict[str, Any]:
        """The resume-identity view: no wall clock, no execution strategy.

        A scenario killed at a level boundary and resumed from its
        checkpoint must produce a record identical under this view to an
        uninterrupted run (the checkpoint-section override and the perf
        counters of the skipped levels are execution detail, mirroring
        what :meth:`EngineConfig.fingerprint` excludes).
        """
        out = self.to_dict()
        out.pop("timing")
        out.pop("perf")
        engine = dict(out["spec"].get("engine", {}))
        for section in _EXECUTION_SECTIONS:
            engine.pop(section, None)
        out["spec"] = {**out["spec"], "engine": engine}
        return out


def _candidate_reduction(run: Any, scenario: Scenario) -> float:
    """Measured |full grid| / |AU grid| for the run's applied restriction.

    1.0 when no restriction was applied (symmetry off, or detection found
    C1).  Evaluated at the scenario's coarsest scheduled resolution — the
    level where the global candidate grid (and therefore the |G|-fold cut)
    lives.
    """
    if run.symmetry_order <= 1 or not run.symmetry_group:
        return 1.0
    from repro.refine.restrict import SymmetryRestriction

    coarsest = max(level[0] for level in scenario.schedule_levels)
    restriction = SymmetryRestriction.from_group(group_from_name(run.symmetry_group))
    return float(restriction.reduction_factor(coarsest))


class ScenarioRunner:
    """Executes scenarios through the engine and scores them.

    Stateless between scenarios: every run rebuilds its dataset from the
    spec's seeds, so records are reproducible in isolation and the matrix
    order never matters.
    """

    def __init__(self, base_config: EngineConfig | None = None) -> None:
        self.base_config = base_config if base_config is not None else EngineConfig()

    # -- dataset & config ----------------------------------------------------
    def dataset(self, scenario: Scenario) -> SimulatedViews:
        """The simulated views for a scenario, perturbation applied.

        The dataset stream (orientations, projections, boxing errors,
        noise) is driven by ``scenario.seed``; the initial-orientation
        perturbation by ``scenario.perturbation.seed`` — independent by
        construction.
        """
        density = phantom_for(scenario.kind, scenario.size, seed=scenario.seed)
        ctf = (
            defocus_group_params(scenario.defocus_groups, scenario.n_views)
            if scenario.defocus_groups
            else None
        )
        views = simulate_views(
            density,
            scenario.n_views,
            snr=scenario.snr,
            ctf=ctf,
            center_sigma_px=scenario.center_sigma_px,
            initial_angle_error_deg=0.0,
            seed=scenario.seed,
            exact_snr=scenario.exact_snr,
        )
        views.initial_orientations = perturb_orientations(
            views.true_orientations, scenario.perturbation
        )
        return views

    def engine_config(self, scenario: Scenario) -> EngineConfig:
        """The base config specialized to a scenario, overrides merged."""
        cfg = replace(
            self.base_config,
            schedule=ScheduleConfig(levels=scenario.schedule_levels),
            r_max=scenario.r_max,
            max_slides=scenario.max_slides,
        )
        if scenario.engine:
            cfg = cfg.merged(scenario.engine)
        return cfg

    # -- execution -----------------------------------------------------------
    def run_scenario(self, scenario: Scenario, *, fault_plan: Any = None) -> ScenarioRecord:
        """Run one refinement scenario end to end and score it.

        ``fault_plan`` (a :class:`repro.faults.plan.FaultPlan`) reaches the
        engine unchanged — the resume tests kill a run at a level barrier
        through it.  Injected faults propagate; no record is produced for
        a killed run.
        """
        views = self.dataset(scenario)
        config = self.engine_config(scenario)
        engine = RefinementEngine(config)
        timer = Timer().start()
        run = engine.run(
            views,
            views.ground_truth,
            initial_orientations=views.initial_orientations,
            fault_plan=fault_plan,
        )
        wall = timer.stop()

        group = symmetry_group_for(scenario.symmetry)
        refined = run.orientations
        truth = views.true_orientations
        errors = angular_errors(refined, truth, symmetry=group)
        initial_errors = angular_errors(views.initial_orientations, truth, symmetry=group)
        c_errors = center_errors(refined, truth)
        median = float(np.median(errors))
        initial_median = float(np.median(initial_errors))
        metrics: dict[str, Any] = {
            "n_views": len(views),
            "median_angular_error_deg": median,
            "p90_angular_error_deg": float(np.percentile(errors, 90)),
            "initial_median_angular_error_deg": initial_median,
            "improvement_ratio": initial_median / max(median, 1e-12),
            "median_center_error_px": float(np.median(c_errors)),
            "fsc_crossing_angstrom": float(
                fsc_crossing(
                    views.images,
                    refined,
                    apix=views.apix,
                    pad_factor=config.pad_factor,
                    ctf_params=views.ctf_params,
                )
            ),
            "initial_fsc_crossing_angstrom": float(
                fsc_crossing(
                    views.images,
                    views.initial_orientations,
                    apix=views.apix,
                    pad_factor=config.pad_factor,
                    ctf_params=views.ctf_params,
                )
            ),
            # Symmetry-restricted search (DESIGN.md §13): the group the
            # engine restricted by (None = symmetry handling off, "C1" =
            # detection ran and found nothing) and the measured |full
            # grid| / |asymmetric-unit grid| ratio at the coarsest
            # scheduled resolution (1.0 when no restriction applied).
            "detected_symmetry_group": run.symmetry_group,
            "candidate_reduction_factor": _candidate_reduction(run, scenario),
        }
        failures = evaluate_thresholds(metrics, scenario.thresholds)

        perf: dict[str, Any] = {"backend": run.backend}
        if run.perf is not None:
            perf.update(
                window_calls=run.perf.window_calls,
                candidates=run.perf.candidates,
                evaluated=run.perf.evaluated,
                pruned=run.perf.pruned,
                memo_lookups=run.perf.memo_lookups,
                memo_hits=run.perf.memo_hits,
                memo_hit_rate=run.perf.memo_hit_rate(),
                polish_calls=run.perf.polish_calls,
            )
        timing = {"wall_seconds": wall}
        if run.result is not None and STEP_SYMMETRY in run.result.timer.totals:
            timing["detect_seconds"] = float(run.result.timer.totals[STEP_SYMMETRY])
        if run.perf is not None and run.perf.level_seconds:
            timing["level_seconds"] = {
                label: float(s) for label, s in run.perf.level_seconds.items()
            }

        return ScenarioRecord(
            name=scenario.name,
            type="refinement",
            spec=scenario.spec_dict(),
            metrics=metrics,
            thresholds=scenario.thresholds.to_dict(),
            failures=failures,
            passed=not failures,
            fingerprint=run.fingerprint,
            perf=perf,
            timing=timing,
        )

    def run_determination(
        self, scenario: Scenario, *, fault_plan: Any = None
    ) -> ScenarioRecord:
        """Run the outer refine→reconstruct loop end to end and score it.

        Unlike :meth:`run_scenario`, the loop never sees the ground-truth
        map: iteration 0 seeds from a direct-Fourier reconstruction at the
        *perturbed* initial orientations, so the record measures whether
        alternating steps B and C actually pulls both the orientations and
        the map toward the truth.  The per-iteration FSC-crossing
        trajectory is the record's headline metric.
        """
        from repro.reconstruct.direct_fourier import reconstruct_from_views
        from repro.reconstruct.iterate import determine_structure

        views = self.dataset(scenario)
        config = self.engine_config(scenario)
        config = replace(
            config,
            iteration=replace(
                config.iteration, max_iterations=scenario.loop_iterations
            ),
        )
        timer = Timer().start()
        initial_map = reconstruct_from_views(
            views.images,
            views.initial_orientations,
            apix=views.apix,
            pad_factor=config.pad_factor,
            ctf_params=views.ctf_params,
        )
        initial_fsc = float(
            fsc_crossing(
                views.images,
                views.initial_orientations,
                apix=views.apix,
                pad_factor=config.pad_factor,
                ctf_params=views.ctf_params,
            )
        )
        result = determine_structure(views, initial_map, config, fault_plan=fault_plan)
        wall = timer.stop()

        group = symmetry_group_for(scenario.symmetry)
        truth = views.true_orientations
        errors = angular_errors(result.final_orientations, truth, symmetry=group)
        initial_errors = angular_errors(
            views.initial_orientations, truth, symmetry=group
        )
        median = float(np.median(errors))
        initial_median = float(np.median(initial_errors))
        metrics: dict[str, Any] = {
            "n_views": len(views),
            "iterations_run": len(result.history),
            "stop_reason": result.stop_reason,
            "fsc_trajectory_angstrom": [float(r) for r in result.resolutions],
            "fsc_crossing_angstrom": float(result.resolutions[-1]),
            "initial_fsc_crossing_angstrom": initial_fsc,
            "mean_distance_trajectory": [
                float(rec.mean_distance) for rec in result.history
            ],
            "median_angular_error_deg": median,
            "p90_angular_error_deg": float(np.percentile(errors, 90)),
            "initial_median_angular_error_deg": initial_median,
            "improvement_ratio": initial_median / max(median, 1e-12),
        }
        failures = evaluate_thresholds(metrics, scenario.thresholds)

        perf: dict[str, Any] = {"backend": config.parallel.backend}
        if result.perf is not None:
            perf.update(
                window_calls=result.perf.window_calls,
                candidates=result.perf.candidates,
                evaluated=result.perf.evaluated,
                pruned=result.perf.pruned,
                memo_lookups=result.perf.memo_lookups,
                memo_hits=result.perf.memo_hits,
                memo_hit_rate=result.perf.memo_hit_rate(),
                polish_calls=result.perf.polish_calls,
            )
        return ScenarioRecord(
            name=scenario.name,
            type="determination",
            spec=scenario.spec_dict(),
            metrics=metrics,
            thresholds=scenario.thresholds.to_dict(),
            failures=failures,
            passed=not failures,
            fingerprint=config.fingerprint(),
            perf=perf,
            timing={"wall_seconds": wall},
        )

    def run_cost_model(self, scenario: CostModelScenario) -> ScenarioRecord:
        """Price one paper-scale workload with the calibrated model."""
        timer = Timer().start()
        model = PerformanceModel()
        calib_level = SINDBIS_WORKLOAD.levels[scenario.calibrate_level]
        model.calibrate(
            SINDBIS_WORKLOAD, scenario.calibrate_level, scenario.calibrate_seconds
        )
        recomputed = model.time_refinement_level(SINDBIS_WORKLOAD, calib_level)
        rel_err = abs(recomputed - scenario.calibrate_seconds) / scenario.calibrate_seconds

        workload = scenario.paper_workload()
        rows = model.predict_table(workload)
        levels = [
            {
                "angular_resolution_deg": row["angular_resolution_deg"],
                "matchings_per_view": row["search_range"],
                "refinement_seconds": row["Orientation refinement"],
                "total_seconds": row["Total"],
            }
            for row in rows
        ]
        by_matchings = sorted(levels, key=lambda r: r["matchings_per_view"])
        monotone = all(
            a["refinement_seconds"] <= b["refinement_seconds"]
            for a, b in zip(by_matchings, by_matchings[1:])
        )
        total_seconds = float(sum(row["Total"] for row in rows))
        metrics: dict[str, Any] = {
            "levels": levels,
            "refinement_seconds_total": float(
                sum(row["Orientation refinement"] for row in rows)
            ),
            "total_seconds": total_seconds,
            "total_hours": total_seconds / 3600.0,
            "calibration_rel_error": float(rel_err),
            "refinement_monotone_in_matchings": monotone,
            "flops_per_match_sample": float(model.flops_per_match_sample),
        }
        failures = evaluate_thresholds(metrics, scenario.thresholds)
        if not monotone:
            failures.append(
                "refinement_monotone_in_matchings: refinement time must not "
                "decrease as matchings per view grow"
            )
        return ScenarioRecord(
            name=scenario.name,
            type="cost_model",
            spec=scenario.spec_dict(),
            metrics=metrics,
            thresholds=scenario.thresholds.to_dict(),
            failures=failures,
            passed=not failures,
            fingerprint=f"perf-model:{workload.name}",
            perf={},
            timing={"wall_seconds": timer.stop()},
        )

    def run(self, scenario: "Scenario | CostModelScenario") -> ScenarioRecord:
        if isinstance(scenario, Scenario):
            if scenario.loop_iterations > 0:
                return self.run_determination(scenario)
            return self.run_scenario(scenario)
        return self.run_cost_model(scenario)

    def run_matrix(
        self, scenarios: Sequence["Scenario | CostModelScenario"]
    ) -> list[ScenarioRecord]:
        """Run every scenario, in order; duplicate names are rejected."""
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names in matrix: {names}")
        return [self.run(s) for s in scenarios]


# -- the default matrix ------------------------------------------------------

def default_matrix() -> tuple["Scenario | CostModelScenario", ...]:
    """The gated accuracy matrix (DESIGN.md §12 documents each entry).

    Thresholds are measured values of the current implementation plus
    headroom (see :class:`ScenarioThresholds`); the ``clean`` scenario's
    p90 bound doubles as the degraded-kernel tripwire — deflating the
    prune bound past its safe margin must fail it.
    """
    return (
        # The bit-identity workhorse: noiseless asymmetric particle,
        # moderate start error, boxing error, pruning enabled (pruned
        # search is bit-identical to exhaustive, so these thresholds pin
        # both paths at once).
        Scenario(
            name="clean",
            kind="asymmetric",
            snr=math.inf,
            center_sigma_px=0.5,
            perturbation=PerturbationSpec(mode="gaussian", angle_deg=2.0, seed=101),
            engine={"prune": {"enabled": True}},
            thresholds=ScenarioThresholds(
                max_median_angular_error_deg=3.3,
                max_p90_angular_error_deg=3.8,
                max_median_center_error_px=0.35,
                max_fsc_crossing_angstrom=12.8,
                min_improvement_ratio=1.1,
            ),
        ),
        # The Rangan–Greengard regime: SNR 0.5 over the whole box.  At
        # this box size refinement holds rather than improves; the pin
        # guards against *further* degradation.
        Scenario(
            name="low_snr",
            kind="asymmetric",
            snr=0.5,
            r_max=6.0,
            center_sigma_px=0.5,
            perturbation=PerturbationSpec(mode="gaussian", angle_deg=2.0, seed=101),
            thresholds=ScenarioThresholds(
                max_median_angular_error_deg=7.5,
                max_p90_angular_error_deg=16.0,
            ),
        ),
        # Two defocus groups dealt round-robin across the views: the
        # matcher must stay accurate under per-view CTF correction.
        Scenario(
            name="defocus_groups",
            kind="asymmetric",
            n_views=8,
            snr=5.0,
            defocus_groups=(9000.0, 15000.0),
            r_max=6.0,
            center_sigma_px=0.3,
            perturbation=PerturbationSpec(mode="gaussian", angle_deg=2.0, seed=101),
            thresholds=ScenarioThresholds(
                max_median_angular_error_deg=4.5,
                max_p90_angular_error_deg=6.5,
            ),
        ),
        # A symmetric particle: errors are only defined modulo the
        # icosahedral group, which is exactly how they are scored.  The
        # engine runs with symmetry *detection* in the loop: it must find
        # the icosahedral group on the current map, restrict the search to
        # one asymmetric unit, and still hit the same accuracy bars — the
        # record's candidate_reduction_factor documents the |G|-fold cut.
        Scenario(
            name="icosahedral",
            kind="sindbis",
            symmetry="I",
            snr=math.inf,
            center_sigma_px=0.5,
            perturbation=PerturbationSpec(mode="gaussian", angle_deg=2.0, seed=101),
            engine={"symmetry": {"mode": "detect"}},
            # Bars re-measured under AU restriction: the rendered phantom
            # is only approximately G-symmetric on the discrete grid, so
            # matching in the asymmetric unit instead of near the
            # generating orientation costs ~0.2–1° at this tiny box size
            # (measured 3.36 / 4.50 at size 24; 3.2 / 5.0 unrestricted).
            thresholds=ScenarioThresholds(
                max_median_angular_error_deg=3.8,
                max_p90_angular_error_deg=5.0,
            ),
        ),
        # Ab-initio-like start: every angle uniformly wrong by up to 10°,
        # far outside the first window — the sliding search has to walk
        # there (§5), on a coarser schedule with a deeper slide budget.
        Scenario(
            name="ab_initio",
            kind="asymmetric",
            snr=math.inf,
            max_slides=12,
            schedule_levels=((2.0, 2.0, 3, 1), (1.0, 1.0, 2, 1), (0.5, 0.5, 2, 1)),
            perturbation=PerturbationSpec(mode="uniform", angle_deg=10.0, seed=202),
            thresholds=ScenarioThresholds(
                max_median_angular_error_deg=2.5,
                max_p90_angular_error_deg=3.1,
                min_improvement_ratio=2.0,
            ),
        ),
        # The outer loop end to end (DESIGN.md §14): seed the map from the
        # *perturbed* orientations, then alternate refine ↔ reconstruct
        # for two iterations with streaming accumulation.  The record's
        # FSC trajectory is the headline: it must land at a resolution and
        # angular accuracy only reachable if the loop actually converges.
        # Bars measured on the current implementation (3.57° / 5.17 Å,
        # ratio 1.05) plus headroom; the gauge of the self-seeded map
        # bounds how far truth-frame angular error can drop, so the pins
        # guard "the loop must not degrade the starts and must land a
        # sound map", not a convergence miracle.
        Scenario(
            name="loop_clean",
            kind="asymmetric",
            n_views=16,
            snr=math.inf,
            r_max=6.0,
            perturbation=PerturbationSpec(mode="gaussian", angle_deg=2.0, seed=303),
            schedule_levels=((1.0, 1.0, 3, 1), (0.5, 0.5, 2, 1)),
            loop_iterations=2,
            thresholds=ScenarioThresholds(
                max_median_angular_error_deg=4.5,
                max_fsc_crossing_angstrom=6.5,
                min_improvement_ratio=0.9,
            ),
        ),
        # Paper-scale cost models: Table 1 (Sindbis, l=331) and Table 2
        # (reovirus, l=511), calibrated on the Sindbis level-0 cell.  The
        # hour envelopes bracket the paper's totals (~11.5 h / ~70 h).
        CostModelScenario(
            name="paper_scale_sindbis",
            workload="sindbis",
            thresholds=ScenarioThresholds(
                min_total_hours=8.0,
                max_total_hours=16.0,
                max_calibration_rel_error=1e-6,
            ),
        ),
        CostModelScenario(
            name="paper_scale_reo",
            workload="reo",
            thresholds=ScenarioThresholds(
                min_total_hours=50.0,
                max_total_hours=100.0,
                max_calibration_rel_error=1e-6,
            ),
        ),
    )


# -- BENCH_scenarios.json ----------------------------------------------------

_RECORD_FIELDS: tuple[tuple[str, type], ...] = (
    ("name", str),
    ("type", str),
    ("spec", dict),
    ("metrics", dict),
    ("thresholds", dict),
    ("failures", list),
    ("passed", bool),
    ("fingerprint", str),
    ("perf", dict),
    ("timing", dict),
)

_REFINEMENT_METRIC_KEYS = (
    "n_views",
    "median_angular_error_deg",
    "p90_angular_error_deg",
    "initial_median_angular_error_deg",
    "improvement_ratio",
    "median_center_error_px",
    "fsc_crossing_angstrom",
    "initial_fsc_crossing_angstrom",
    "detected_symmetry_group",
    "candidate_reduction_factor",
)

_DETERMINATION_METRIC_KEYS = (
    "n_views",
    "iterations_run",
    "stop_reason",
    "fsc_trajectory_angstrom",
    "fsc_crossing_angstrom",
    "initial_fsc_crossing_angstrom",
    "mean_distance_trajectory",
    "median_angular_error_deg",
    "p90_angular_error_deg",
    "initial_median_angular_error_deg",
    "improvement_ratio",
)

_COST_MODEL_METRIC_KEYS = (
    "levels",
    "refinement_seconds_total",
    "total_seconds",
    "total_hours",
    "calibration_rel_error",
    "refinement_monotone_in_matchings",
    "flops_per_match_sample",
)


def validate_bench_payload(payload: Any) -> list[str]:
    """Schema-check a ``BENCH_scenarios.json`` payload; [] means valid."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    version = payload.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCENARIO_SCHEMA_VERSION}, got {version!r}"
        )
    records = payload.get("scenarios")
    if not isinstance(records, list) or not records:
        problems.append("scenarios must be a non-empty list")
        return problems
    names: list[str] = []
    for i, record in enumerate(records):
        where = f"scenarios[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: must be an object")
            continue
        for fname, ftype in _RECORD_FIELDS:
            if fname not in record:
                problems.append(f"{where}: missing field {fname!r}")
            elif not isinstance(record[fname], ftype):
                problems.append(
                    f"{where}.{fname}: expected {ftype.__name__}, "
                    f"got {type(record[fname]).__name__}"
                )
        unknown = sorted(set(record) - {f for f, _ in _RECORD_FIELDS})
        if unknown:
            problems.append(f"{where}: unknown field(s) {', '.join(unknown)}")
        rtype = record.get("type")
        if rtype not in ("refinement", "determination", "cost_model"):
            problems.append(
                f"{where}.type: must be 'refinement', 'determination' or 'cost_model'"
            )
        elif isinstance(record.get("metrics"), dict):
            required = {
                "refinement": _REFINEMENT_METRIC_KEYS,
                "determination": _DETERMINATION_METRIC_KEYS,
                "cost_model": _COST_MODEL_METRIC_KEYS,
            }[rtype]
            for key in required:
                if key not in record["metrics"]:
                    problems.append(f"{where}.metrics: missing {key!r}")
        if isinstance(record.get("failures"), list) and isinstance(
            record.get("passed"), bool
        ):
            if record["passed"] != (not record["failures"]):
                problems.append(f"{where}: passed flag contradicts failures list")
        if isinstance(record.get("name"), str):
            names.append(record["name"])
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        problems.append(f"duplicate scenario names: {', '.join(dupes)}")
    counts = payload.get("counts")
    if not isinstance(counts, dict):
        problems.append("counts must be an object")
    return problems


def bench_payload(records: Sequence[ScenarioRecord]) -> dict[str, Any]:
    """Assemble (and self-validate) the ``BENCH_scenarios.json`` payload."""
    payload = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "counts": {
            "total": len(records),
            "passed": sum(1 for r in records if r.passed),
            "failed": sum(1 for r in records if not r.passed),
        },
        "scenarios": [r.to_dict() for r in records],
    }
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError("invalid scenario payload: " + "; ".join(problems))
    return payload


def write_bench(records: Sequence[ScenarioRecord], path: str | Path) -> dict[str, Any]:
    """Atomically write the scenario trajectory; returns the payload."""
    payload = bench_payload(records)
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=str(target.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return payload


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and schema-check a ``BENCH_scenarios.json`` file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError(f"{path}: invalid scenario payload: " + "; ".join(problems))
    return payload

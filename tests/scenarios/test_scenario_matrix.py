"""The accuracy gate: run the default scenario matrix and persist it.

These tests are the ``scenarios`` tools/check.py stage (DESIGN.md §12).
The full-matrix test *rewrites* ``BENCH_scenarios.json`` at the repo root
— the trajectory artifact CI uploads — and asserts every scenario passes
its thresholds; the degraded-kernel test proves the thresholds have
teeth by breaking the prune bound's safety and watching the clean
scenario fail.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.pipeline.scenarios import (
    SCENARIO_SCHEMA_VERSION,
    CostModelScenario,
    Scenario,
    ScenarioRunner,
    default_matrix,
    load_bench,
    validate_bench_payload,
    write_bench,
)
from repro.refine import prune as prune_mod

pytestmark = pytest.mark.scenarios

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_scenarios.json"

#: The workload classes the acceptance gate requires the matrix to cover.
REQUIRED_SCENARIOS = {
    "clean",
    "low_snr",
    "defocus_groups",
    "icosahedral",
    "ab_initio",
    "loop_clean",
    "paper_scale_sindbis",
    "paper_scale_reo",
}


def test_full_matrix_passes_and_rewrites_bench():
    matrix = default_matrix()
    assert {s.name for s in matrix} >= REQUIRED_SCENARIOS
    assert len(matrix) >= 6

    runner = ScenarioRunner()
    records = runner.run_matrix(matrix)
    payload = write_bench(records, BENCH_PATH)

    assert validate_bench_payload(payload) == []
    assert payload["schema_version"] == SCENARIO_SCHEMA_VERSION
    failed = {r.name: r.failures for r in records if not r.passed}
    assert not failed, f"scenario thresholds tripped: {failed}"

    # symmetry detection is timed in its own record entry (wall clock only)
    by_name = {r.name: r for r in records}
    assert by_name["icosahedral"].timing["detect_seconds"] > 0
    assert "detect_seconds" not in by_name["clean"].timing

    # the written artifact round-trips through the schema check
    loaded = load_bench(BENCH_PATH)
    assert [r["name"] for r in loaded["scenarios"]] == [r.name for r in records]
    assert loaded["counts"] == {"total": len(records), "passed": len(records), "failed": 0}


def test_matrix_covers_both_record_types():
    matrix = default_matrix()
    kinds = {type(s) for s in matrix}
    assert kinds == {Scenario, CostModelScenario}
    # at least one scenario exercises each axis the gate promises
    by_name = {s.name: s for s in matrix}
    assert math.isinf(by_name["clean"].snr)
    assert by_name["low_snr"].snr < 1.0
    assert by_name["defocus_groups"].defocus_groups
    assert by_name["icosahedral"].symmetry == "I"
    assert by_name["ab_initio"].perturbation.mode == "uniform"


def test_cost_model_records_reproduce_paper_structure():
    runner = ScenarioRunner()
    matrix = {s.name: s for s in default_matrix()}
    sindbis = runner.run(matrix["paper_scale_sindbis"])
    reo = runner.run(matrix["paper_scale_reo"])
    assert sindbis.passed and reo.passed

    # calibration cell reproduced exactly (Table 1 level 0 = 4053 s)
    level0 = sindbis.metrics["levels"][0]
    assert level0["refinement_seconds"] == pytest.approx(4053.0, rel=1e-9)

    # model self-consistency: per-view level-0 matching cost scales with
    # the in-band sample count (the reo band sits near Nyquist)
    from repro.parallel.perf_model import REO_WORKLOAD, SINDBIS_WORKLOAD

    per_view_sindbis = level0["refinement_seconds"] / SINDBIS_WORKLOAD.n_views
    per_view_reo = reo.metrics["levels"][0]["refinement_seconds"] / REO_WORKLOAD.n_views
    band_ratio = REO_WORKLOAD.band_samples / SINDBIS_WORKLOAD.band_samples
    # within the <0.4% discretization of ceil(n_views / n_processors)
    assert per_view_reo / per_view_sindbis == pytest.approx(band_ratio, rel=5e-3)


def test_degraded_kernel_trips_a_threshold(monkeypatch):
    """Break the prune bound's safety margin: at least one scenario fails.

    The healthy bound only ever *loosens* the k-th best partial distance
    (margin >= 0), which keeps pruned search bit-identical to exhaustive.
    Deflating it abandons candidates that could have won; with a seed
    chunk of 1 nothing is exempt, so the search degrades and the clean
    scenario's thresholds must catch it.
    """
    clean = next(s for s in default_matrix() if s.name == "clean")
    tight = replace(
        clean, engine={"prune": {"enabled": True, "seed_chunk": 1, "chunk": 1}}
    )
    runner = ScenarioRunner()

    healthy = runner.run_scenario(tight)
    assert healthy.passed, healthy.failures

    orig = prune_mod.PruneSearch.bound

    def deflated(self):
        b = orig(self)
        return b * 0.05 if math.isfinite(b) else b

    monkeypatch.setattr(prune_mod.PruneSearch, "bound", deflated)
    degraded = runner.run_scenario(tight)
    assert not degraded.passed
    assert any("angular_error" in f for f in degraded.failures)
    assert (
        degraded.metrics["p90_angular_error_deg"]
        > healthy.metrics["p90_angular_error_deg"]
    )


def test_matrix_rejects_duplicate_names():
    clean = next(s for s in default_matrix() if s.name == "clean")
    with pytest.raises(ValueError, match="duplicate"):
        ScenarioRunner().run_matrix((clean, clean))

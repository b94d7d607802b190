"""Metric names and units, and the per-layer figures one traced repetition yields.

``BENCHMARK.json`` lists the same names; ``tests/test_helpers.py`` keeps
the two in step.  A layer that a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Any

from tracer import Span, coverage, outermost

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "views_per_s": "views/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "median_angular_error_deg": "deg",
    "fsc_crossing_angstrom": "A",
}

#: Schedule steps any workload runs, in the ``run_level`` span's label form.
LEVEL_STEPS = ("1deg", "0.5deg", "0.25deg", "0.1deg", "0.01deg", "0.002deg")

#: Span names reported as ``<name>_s`` (inclusive seconds) and, where
#: listed in ``CALLS``, ``<name>.calls``.
TIMED = (
    "engine.backend_start",
    "engine.run_level",
    "engine.run_polish",
    "engine.run_tasks",
    "engine.backend_close",
    "parallel.shared_volume",
    "align.match_window",
    "align.match_window_pruned",
    "align.distance_band",
    "align.memo",
    "refine.detect",
    "refine.detect.score",
    "refine.prepare_views",
    "fourier.volume_ft",
    "fourier.insert_slice",
    "reconstruct.map",
    "reconstruct.fsc",
    "reconstruct.initial_map",
    "faults.checkpoint",
)
CALLS = (
    "engine.run_level",
    "parallel.shared_volume",
    "align.match_window",
    "align.match_window_pruned",
    "align.distance_band",
    "fourier.volume_ft",
    "fourier.insert_slice",
)
#: Layers whose spans count in the set-up phase as well as the timed call.
SETUP_SIDE = {"engine.backend_start", "fourier.volume_ft", "reconstruct.initial_map"}

PER_LAYER: dict[str, str] = {}
for _name in TIMED:
    PER_LAYER[f"{_name}_s"] = "s"
for _name in CALLS:
    PER_LAYER[f"{_name}.calls"] = "count"
for _step in LEVEL_STEPS:
    PER_LAYER[f"refine.level_s.{_step}"] = "s"
PER_LAYER.update({
    "parallel.worker_cpu_s": "s",
    "parallel.utilization": "ratio",
    "parallel.fault_events": "count",
    "align.memo.hit_rate": "ratio",
    "align.memo.lookups": "count",
    "align.candidates": "count",
    "align.evaluated": "count",
    "align.eval_ratio": "ratio",
    "align.gather_bytes_computed": "bytes",
    "refine.sliding_window.calls": "count",
    "refine.window_slides": "slides/call",
    "refine.polish.iters": "count",
    "refine.detect.score_calls": "count",
    "reconstruct.deposit_s": "s",
    "reconstruct.push.calls": "count",
    "faults.checkpoint.writes": "count",
    "faults.checkpoint.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
})

#: Bytes one trilinear band sample reads: 8 corners × complex128.
GATHER_BYTES_PER_SAMPLE = 8 * 16


def phases(spans: list[Span], master_pid: int) -> list[str]:
    """The root span name ("setup" / "solve") each span belongs to; worker spans are "solve"."""
    out = []
    for s in spans:
        if s.pid != master_pid:
            out.append("solve")
            continue
        p = s
        while p.parent is not None:
            p = spans[p.parent]
        out.append(p.name)
    return out


def layer_metrics(
    spans: list[Span],
    solve_root: int,
    *,
    perf: Any,
    band_samples: int,
    worker_cpu_s: float,
    n_workers: int,
    fault_events: int,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` figure except ``trace.overhead`` for one traced repetition.

    ``perf`` is the program's merged ``PerfCounters`` (worker-side counts
    included); spans come from the benchmark's own wrappers.
    """
    master = spans[solve_root].pid
    phase = {id(s): ph for s, ph in zip(spans, phases(spans, master))}

    def pick(*names: str) -> list[Span]:
        wanted = ("setup", "solve") if names[0] in SETUP_SIDE else ("solve",)
        return [s for s in outermost(spans, set(names)) if phase[id(s)] in wanted]

    out: dict[str, float] = {}
    for name in TIMED:
        chosen = pick(name)
        out[f"{name}_s"] = sum(s.duration for s in chosen)
        if name in CALLS:
            out[f"{name}.calls"] = float(len(chosen))
    for step in LEVEL_STEPS:
        out[f"refine.level_s.{step}"] = sum(
            s.duration for s in pick("engine.run_level") if s.args.get("step") == step
        )
    pool_wall = out["engine.run_level_s"] + out["engine.run_polish_s"]
    out["parallel.worker_cpu_s"] = worker_cpu_s
    out["parallel.utilization"] = (
        worker_cpu_s / (n_workers * pool_wall) if n_workers > 1 and pool_wall > 0 else 0.0
    )
    out["parallel.fault_events"] = float(fault_events)

    lookups = perf.memo_lookups if perf is not None else 0
    candidates = perf.candidates if perf is not None else 0
    evaluated = perf.evaluated if perf is not None else 0
    out["align.memo.hit_rate"] = perf.memo_hits / lookups if lookups else 0.0
    out["align.memo.lookups"] = float(lookups)
    out["align.candidates"] = float(candidates)
    out["align.evaluated"] = float(evaluated)
    out["align.eval_ratio"] = evaluated / candidates if candidates else 0.0
    out["align.gather_bytes_computed"] = float(
        (perf.gathers if perf is not None else 0) * band_samples * GATHER_BYTES_PER_SAMPLE
    )

    windows = pick("refine.sliding_window")
    out["refine.sliding_window.calls"] = float(len(windows))
    out["refine.window_slides"] = (
        sum(s.args.get("slides", 0) for s in windows) / len(windows) if windows else 0.0
    )
    out["refine.polish.iters"] = float(perf.polish_iters if perf is not None else 0)
    out["refine.detect.score_calls"] = float(len(pick("refine.detect.score")))

    deposits = pick("reconstruct.push", "reconstruct.push_remaining")
    out["reconstruct.deposit_s"] = sum(s.duration for s in deposits)
    out["reconstruct.push.calls"] = float(
        sum(1 for s in spans if s.name == "reconstruct.push" and phase[id(s)] == "solve")
    )

    writes = pick("faults.checkpoint")
    out["faults.checkpoint.writes"] = float(len(writes))
    out["faults.checkpoint.bytes"] = float(sum(s.args.get("bytes", 0) for s in writes))

    share, unattributed = coverage(spans, solve_root)
    out["trace.coverage"] = share
    out["trace.unattributed_s"] = unattributed
    return out

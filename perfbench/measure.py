"""Measured repetitions of one workload, in a process of the benchmark's own.

``run.py`` starts this script so that the peak-memory and CPU figures of
one workload never include another's, nor the fresh-interpreter set-up
probes.  It prints one JSON object as its last line.

Untraced (``--trace 0``): repetitions while the next one should still end
within ``--seconds`` (at least :data:`MIN_REPS`); each one builds its
set-up untimed, then times the solve call.  Traced (``--trace 1``):
untraced and traced repetitions alternate, so ``trace.overhead`` compares
neighbours; per-layer figures are medians over the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402
import envinfo  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

#: Repetitions of each kind (untraced; traced) a run makes at least: two
#: identical inputs are what the bit-identity check compares.
MIN_REPS = 2
#: No repetition starts after this many seconds of measuring.
HARD_STOP_S = 110.0


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def own_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


@dataclass
class Rep:
    """One repetition's result, timings and (traced) spans; ``outcome`` is None if it raised."""

    outcome: W.Outcome | None
    wall_s: float
    cpu_s: float
    worker_cpu_s: float
    error: str | None = None
    spans: list[tracer.Span] = field(default_factory=list)
    solve_root: int = -1


def run_rep(w: W.Workload, inputs: W.Inputs, workdir: str, k: int,
            rec: tracer.Recorder | None = None) -> Rep:
    """One repetition: set-up (untimed), then the timed solve call; traced when ``rec`` is given."""
    ckdir = os.path.join(workdir, f"rep{k}")
    os.makedirs(ckdir)
    phase = rec.span if rec is not None else (lambda name: contextlib.nullcontext(-1))
    try:
        if rec is not None:
            rec.spans = []
            rec.active = True
        with phase("setup"):
            prep = W.setup(w, inputs, os.path.join(ckdir, "loop"))
        with phase("solve") as solve_root:
            c_own, c_kids = own_cpu(), children_cpu()
            t0 = time.perf_counter()
            out = W.solve(w, prep, inputs)
            wall = time.perf_counter() - t0
            worker_cpu = children_cpu() - c_kids
            cpu = own_cpu() - c_own + worker_cpu
        rep = Rep(out, wall, cpu, worker_cpu)
        if rec is not None:
            rec.active = False
            rec.collect_workers()
            rep.spans, rep.solve_root = rec.spans, solve_root
        return rep
    except Exception as exc:  # a failing run is reported, not fatal to the benchmark
        return Rep(None, 0.0, 0.0, 0.0, error=f"{type(exc).__name__}: {exc}")
    finally:
        if rec is not None:
            rec.active = False
        shutil.rmtree(ckdir, ignore_errors=True)


def account(reps: list[Rep], n_views: int, iterations: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, violations) over repetitions, in view-refinements.

    A repetition that raised, or whose result is not bit-identical to the
    first one's, fails all its views; otherwise missing or non-finite
    per-view results fail.  ``iterations`` is the loop length a failed
    repetition was meant to run.
    """
    reference = reps[0].outcome
    attempted = failed = 0
    violations: list[str] = []
    for i, rep in enumerate(reps):
        done = rep.outcome.iterations if rep.outcome is not None else iterations
        attempted += n_views * done
        if rep.error is not None:
            violations.append(f"rep {i} raised {rep.error}")
            failed += n_views * done
        elif reference is None or not W.same_result(rep.outcome, reference):
            violations.append(f"rep {i} is not bit-identical to rep 0")
            failed += n_views * done
        else:
            failed += W.failed_views(rep.outcome, n_views) * done
    return attempted, failed, violations


def band_samples(w: W.Workload) -> int:
    from repro.align.distance import DistanceComputer

    return int(DistanceComputer(w.size, r_max=w.r_max).n_samples)


def fault_events(rep: Rep) -> int:
    for s in rep.spans:
        backend = s.args.get("backend") if s.name == "engine.backend_start" else None
        log = getattr(backend, "fault_log", None)
        if log is not None:
            return len(log.events)
    return 0


def measure(w: W.Workload, seed: int, seconds: float, trace: bool, workdir: str,
            outdir: str) -> dict[str, Any]:
    inputs = W.make_inputs(w, seed)
    inputs.save(os.path.join(workdir, "inputs.npz"))
    cfg = W.engine_config(w)
    n_workers = cfg.parallel.n_workers

    rec = tracer.Recorder(worker_dir=workdir) if trace else None
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if plain and elapsed >= HARD_STOP_S:
            break
        if len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS):
            # start another repetition only if it should end within the budget
            if elapsed + elapsed / k > seconds:
                break
        if trace and k % 2 == 1:
            undo = tracer.install(rec)
            try:
                traced.append(run_rep(w, inputs, workdir, k, rec))
            finally:
                undo()
        else:
            plain.append(run_rep(w, inputs, workdir, k))
        k += 1

    reps = plain + traced
    reference = reps[0].outcome
    attempted, failed, violations = account(reps, w.n_views, max(1, w.loop_iterations))

    result: dict[str, Any] = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "environment": envinfo.record({w.name: cfg.fingerprint()}),
    }
    if reference is not None:
        acc = W.accuracy(w, reference, inputs)
        broken = W.limit_violations(w, acc, reference)
        if broken:
            violations.extend(broken)
            failed = attempted
        result["accuracy"] = acc
        result["symmetry_group"] = reference.symmetry_group
    ok = [r for r in plain if r.outcome is not None]
    if ok:
        result["samples"] = {
            "wall_s": [r.wall_s for r in ok],
            "cpu_s": [r.cpu_s for r in ok],
            "views_per_s": [w.n_views * r.outcome.iterations / r.wall_s for r in ok],
        }
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + kids) / 1024.0
    result["peak_rss_worker_mb"] = kids / 1024.0

    traced_ok = [r for r in traced if r.outcome is not None]
    if ok and traced_ok:
        samples = band_samples(w)
        per_rep = [
            metrics.layer_metrics(
                rep.spans, rep.solve_root, perf=rep.outcome.perf, band_samples=samples,
                worker_cpu_s=rep.worker_cpu_s, n_workers=n_workers,
                fault_events=fault_events(rep),
            )
            for rep in traced_ok
        ]
        layers = {name: benchstats.median([m[name] for m in per_rep]) for name in per_rep[0]}
        layers["trace.overhead"] = (
            benchstats.median([r.wall_s for r in traced_ok])
            / benchstats.median([r.wall_s for r in ok]) - 1.0
        )
        result["layers"] = layers
        result["self_s"] = self_time_table(traced_ok)
        result["trace_file"] = write_trace(traced_ok, w, seed, outdir)
    result["violations"] = violations
    result["attempted"] = attempted
    result["failed"] = failed
    result["correct"] = not violations and failed == 0
    return result


def self_time_table(reps: list[Rep]) -> dict[str, float]:
    """Median over repetitions of each span name's summed self time (master and workers)."""
    per_rep = []
    for rep in reps:
        table: dict[str, float] = {}
        for s, own in zip(rep.spans, tracer.self_times(rep.spans)):
            table[s.name] = table.get(s.name, 0.0) + own
        per_rep.append(table)
    names = sorted({n for t in per_rep for n in t})
    return {n: benchstats.median([t.get(n, 0.0) for t in per_rep]) for n in names}


def write_trace(reps: list[Rep], w: W.Workload, seed: int, outdir: str) -> str:
    """All traced repetitions as one Chrome trace-event file; each repetition is one run id."""
    events: list[dict[str, Any]] = []
    t0 = min(s.start for rep in reps for s in rep.spans)
    for k, rep in enumerate(reps):
        if not rep.spans:
            continue
        master = rep.spans[rep.solve_root].pid
        labels = {s.pid: ("master" if s.pid == master else f"worker {s.pid}") for s in rep.spans}
        doc = tracer.chrome_trace(rep.spans, f"{w.name}-seed{seed}-rep{k}", labels, t0)
        events.extend(doc["traceEvents"])
    path = os.path.join(outdir, f"trace-{w.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)
    result = measure(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     args.workdir, args.outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

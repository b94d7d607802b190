"""The repository benchmark: one workload, measured end to end or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload refine_full_schedule --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``refine_full_schedule``,
``detect_icos``, ``determine_pool``.  Inputs are generated from ``--seed``
with the program's public phantom and ``simulate_views`` API.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh-interpreter set-up probes), and from the timed repetitions the
median ``wall_s``, ``views_per_s`` and ``cpu_s``, plus ``peak_rss_mb``,
``median_angular_error_deg`` and ``fsc_crossing_angstrom``.  ``--trace 1``
reports the per-layer metrics of ``perfbench/metrics.py`` and writes a
Chrome trace-event file.  Both print, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``, where attempted/failed
count view-refinements (their ratio is the failed fraction).  A detailed
record (samples, tail percentiles, environment) goes to
``.perfbench_out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("refine_full_schedule", "detect_icos", "determine_pool")
#: Fresh-interpreter set-up probes per run (after one untimed warm-up).
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 60


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")


def setup_samples(root: str, workload: str, workdir: str, env: dict[str, str]) -> list[dict]:
    inputs = os.path.join(workdir, "inputs.npz")
    samples = []
    for k in range(SETUP_PROBES + 1):
        probe_dir = os.path.join(workdir, f"probe{k}")
        os.makedirs(probe_dir)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, inputs, probe_dir],
            cwd=root, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        if k > 0:  # the first probe only warms the bytecode and page caches
            samples.append(last_json_line(proc.stdout))
    return samples


def end_to_end(child: dict, probes: list[dict]) -> dict[str, float]:
    samples = child["samples"]
    acc = child["accuracy"]
    return {
        "setup_s": benchstats.median([p["setup_s"] for p in probes]),
        "wall_s": benchstats.median(samples["wall_s"]),
        "views_per_s": benchstats.median(samples["views_per_s"]),
        "cpu_s": benchstats.median(samples["cpu_s"]),
        "peak_rss_mb": child["peak_rss_mb"],
        "median_angular_error_deg": acc["median_angular_error_deg"],
        "fsc_crossing_angstrom": acc["fsc_crossing_angstrom"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    outdir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(workdir)
    env = child_env(root)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "measure.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--outdir", outdir],
            cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(proc.stderr[-4000:], file=sys.stderr)
            raise RuntimeError(f"measurement exited with code {proc.returncode}")
        child = last_json_line(proc.stdout)
        probes = [] if args.trace else setup_samples(root, args.workload, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    correct = bool(child["correct"])
    if args.trace:
        names, values = PER_LAYER, child.get("layers", {})
    else:
        names, values = END_TO_END, end_to_end(child, probes) if "samples" in child else {}
    metrics = {n: {"value": values[n], "unit": u} for n, u in names.items() if n in values}
    if len(metrics) != len(names):
        correct = False
    record = dict(child)
    record["metrics"] = metrics
    record["failed_fraction"] = benchstats.failed_fraction(child["failed"], child["attempted"])
    if not args.trace and "samples" in child:
        record["summaries"] = {k: benchstats.summary(v) for k, v in child["samples"].items()}
        record["summaries"]["setup_s"] = benchstats.summary([p["setup_s"] for p in probes])
        record["setup_probes"] = probes
    record_path = os.path.join(
        outdir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    for v in child.get("violations", []):
        print(f"perfbench: check failed: {v}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""The repo's one-command quality gate.

Runs, in order:

1. ``ruff check`` (skipped when ruff is not installed),
2. ``mypy`` over the strict-typed core (skipped when mypy is not installed),
3. ``repro-lint`` — the AST invariant checker in :mod:`repro.analysis`:
   the per-module rules, the whole-program call-graph passes
   (``repro-lint-wp``, RL013–RL015), and the stale-waiver audit
   (``waivers`` — strict here: a stale ``allow[...]`` fails the gate),
4. ``config-gate`` — every ``examples/*.toml``/``*.json`` engine config
   must load and validate, and repro-lint RL011 must find no environment
   reads outside ``repro/engine/`` (:mod:`repro.engine.gate`),
5. the tier-1 pytest suite (``-m "not chaos"``) with
   ``REPRO_CHECK_CONTRACTS=1`` so every
   :func:`repro.analysis.contracts.array_contract` declaration is enforced
   while the tests exercise the kernels,
6. the bench-smoke subset (``-m bench_smoke``) as its own named step — the
   tiny batched-vs-reference equivalence slice of the kernel benchmarks,
   so a kernel regression is attributed to the right gate line,
7. the symmetry-smoke subset (``-m symmetry_smoke``) as its own named
   step — the tiny asymmetric-unit-restriction equivalence slice of the
   symmetry benchmark (restricted argmin == full-orbit argmin modulo the
   group, DESIGN.md §13),
8. the accuracy-gate subset (``-m accuracy_gate``) as its own named step —
   the toleranced gate the continuous polish ships under (objective
   non-regression vs the brute-force fine tail + step-resolution bound,
   DESIGN.md §11), kept apart from the bit-identity suites because its
   contract is a tolerance, not equality,
8b. the iterate-smoke subset (``-m iterate_smoke``) as its own named step
   — the tiny end-to-end slice of the outer refine↔reconstruct loop
   (streaming == barriered == checkpoint-resumed, DESIGN.md §14),
8c. the benchmark's own tests (``perfbench/tests``) as a named step —
   they install every tracer wrapper the benchmark puts on ``src/``, so
   renaming a traced symbol fails here rather than in a benchmark run,
9. the scenario matrix (``-m scenarios``, tests/scenarios/) as its own
   named step — the accuracy-regression harness of DESIGN.md §12, which
   rewrites ``BENCH_scenarios.json`` and fails if any workload trips its
   thresholds; the step also asserts the suite's wall-clock budget so the
   matrix stays cheap enough to gate every change,
10. the chaos subset (``-m chaos``, tests/chaos/) separately — fault
   injection kills workers and restarts pools, so it runs apart from the
   main suite but under the same runtime contracts.

Exit status is nonzero if any ran-and-failed step fails; skipped tools do
not fail the gate (the container may not ship them).  Usage::

    python tools/check.py            # everything
    python tools/check.py --no-tests # static checks only
    python tools/check.py --no-chaos # skip the fault-injection subset
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Wall-clock budget for the scenario-matrix step.  The matrix itself
#: runs in a few seconds; the generous bound only exists to catch a
#: scenario accidentally scaled to non-gateable size (a paper-scale l
#: sneaking into a refinement scenario instead of the cost model).
SCENARIOS_BUDGET_S = 420.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-tests", action="store_true", help="skip the pytest steps")
    parser.add_argument(
        "--no-chaos", action="store_true", help="skip the fault-injection subset"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from repro.analysis.gate import run_gate
    from repro.engine.gate import run_config_gate

    failed = False
    results = list(run_gate(root=ROOT, strict_waivers=True))
    results.append(run_config_gate(root=ROOT))
    for result in results:
        print(f"[{result.status:>7}] {result.name}")
        if result.status == "failed":
            failed = True
            if result.detail:
                for line in result.detail.splitlines():
                    print(f"    {line}")

    if not args.no_tests:
        env = dict(os.environ)
        env["REPRO_CHECK_CONTRACTS"] = "1"
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        suites = [
            ("pytest", ["-x", "-q", "-m", "not chaos and not scenarios"]),
            ("pytest[bench-smoke]", ["-x", "-q", "-m", "bench_smoke"]),
            ("pytest[symmetry-smoke]", ["-x", "-q", "-m", "symmetry_smoke"]),
            ("pytest[accuracy-gate]", ["-x", "-q", "-m", "accuracy_gate"]),
            ("pytest[iterate-smoke]", ["-x", "-q", "-m", "iterate_smoke"]),
            ("pytest[perfbench]", ["-x", "-q", "perfbench/tests"]),
            ("pytest[scenarios]", ["-x", "-q", "-m", "scenarios"]),
        ]
        if not args.no_chaos:
            suites.append(("pytest[chaos]", ["-x", "-q", "-m", "chaos"]))
        for name, extra in suites:
            print(f"[    run] {name} (REPRO_CHECK_CONTRACTS=1)")
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *extra], cwd=ROOT, env=env
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"[ failed] {name}")
                failed = True
            elif name == "pytest[scenarios]" and wall > SCENARIOS_BUDGET_S:
                print(
                    f"[ failed] {name} blew its wall-clock budget: "
                    f"{wall:.1f}s > {SCENARIOS_BUDGET_S:.0f}s"
                )
                failed = True
            else:
                print(f"[     ok] {name} ({wall:.1f}s)")

    print("gate:", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

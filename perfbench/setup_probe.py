"""Time a workload's set-up in a fresh interpreter; prints one JSON object.

Timed: ``import repro`` and :func:`workloads.setup` (config build, then
``OrientationRefiner`` + D̂ + ``make_backend`` on the refine workloads, or
the seed map's ``reconstruct_from_views`` on ``determine_pool``).  Loading
the saved inputs in between is not timed.

Usage: ``python3 perfbench/setup_probe.py <workload> <inputs.npz> <work dir>``
"""

import time

_t0 = time.perf_counter()
import repro  # noqa: E402,F401

_import_s = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402


def main() -> int:
    name, inputs_path, probe_dir = sys.argv[1:4]
    w = W.WORKLOADS[name]
    inputs = W.Inputs.load(inputs_path)
    t0 = time.perf_counter()
    prep = W.setup(w, inputs, os.path.join(probe_dir, "loop"))
    build_s = time.perf_counter() - t0
    if prep.backend is not None:
        prep.backend.close()
    print(json.dumps({"setup_s": _import_s + build_s, "import_s": _import_s, "build_s": build_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

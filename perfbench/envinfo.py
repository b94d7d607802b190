"""The environment a run measured on: host, libraries, thread settings, engine fingerprints.

Thread variables are recorded as found and never set: the process pool's
BLAS oversubscription is part of what ``determine_pool`` measures.

Run ``PYTHONPATH=src python3 perfbench/envinfo.py`` from the repository root
to print the record.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> list[dict[str, str | None]]:
    out = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        out.append({
            "level": _read(os.path.join(d, "level")),
            "type": _read(os.path.join(d, "type")),
            "size": _read(os.path.join(d, "size")),
        })
    return out


def blas() -> dict[str, str | None]:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def record(fingerprints: dict[str, str] | None = None) -> dict:
    import numpy as np
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "engine_fingerprints": fingerprints or {},
    }


def engine_fingerprints() -> dict[str, str]:
    from workloads import WORKLOADS, engine_config

    return {name: engine_config(w).fingerprint() for name, w in WORKLOADS.items()}


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    json.dump(record(engine_fingerprints()), sys.stdout, indent=2)
    sys.stdout.write("\n")

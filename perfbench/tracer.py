"""Spans recorded from outside the program, around public functions of each layer.

:class:`Recorder` keeps spans in memory; :func:`install` wraps the layer
boundaries listed in :data:`LAYER_POINTS` with timers and returns an undo
callable.  Nothing in the program is edited: module attributes and class
attributes are swapped for wrappers and swapped back afterwards.

Pool workers forked while the wrappers are in place inherit them.  A
wrapper that finds itself in a new process starts a fresh span list and
registers a :mod:`multiprocessing` finalizer that writes the worker's spans
to ``<worker_dir>/worker-<pid>.json`` when the worker exits;
:meth:`Recorder.collect_workers` merges those files back.  Workers started
with ``spawn`` or ``forkserver`` import the program afresh and record
nothing.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: (module, qualified attribute, span name).  A dotted attribute names a
#: method, patched on its class; a plain one names a function, rebound in
#: every ``repro`` module that imported it by name.
LAYER_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.backends", "make_backend", "engine.backend_start"),
    ("repro.engine.backends", "SerialBackend.run_level", "engine.run_level"),
    ("repro.engine.backends", "ProcessBackend.run_level", "engine.run_level"),
    ("repro.engine.backends", "SerialBackend.run_polish", "engine.run_polish"),
    ("repro.engine.backends", "ProcessBackend.run_polish", "engine.run_polish"),
    ("repro.engine.backends", "SerialBackend.run_tasks", "engine.run_tasks"),
    ("repro.engine.backends", "ProcessBackend.run_tasks", "engine.run_tasks"),
    ("repro.engine.backends", "ExecutionBackend.close", "engine.backend_close"),
    ("repro.engine.backends", "ProcessBackend.close", "engine.backend_close"),
    ("repro.parallel.viewsched", "SharedVolume.__init__", "parallel.shared_volume"),
    ("repro.align.fused", "MatchPlan.match_window", "align.match_window"),
    ("repro.align.fused", "MatchPlan.match_window_pruned", "align.match_window_pruned"),
    ("repro.align.distance", "DistanceComputer.distance_band", "align.distance_band"),
    ("repro.align.memo", "OrientationMemo.lookup_block", "align.memo"),
    ("repro.align.memo", "OrientationMemo.store_block", "align.memo"),
    ("repro.refine.window", "sliding_window_search", "refine.sliding_window"),
    ("repro.refine.refiner", "OrientationRefiner.prepare_views", "refine.prepare_views"),
    ("repro.refine.symmetry_detect", "detect_symmetry", "refine.detect"),
    ("repro.refine.symmetry_detect", "score_rotation_real", "refine.detect.score"),
    ("repro.density.map", "DensityMap.fourier_oversampled", "fourier.volume_ft"),
    ("repro.fourier.insertion", "insert_slice", "fourier.insert_slice"),
    ("repro.reconstruct.stream", "HalfSetAccumulator.push", "reconstruct.push"),
    ("repro.reconstruct.stream", "HalfSetAccumulator.push_remaining", "reconstruct.push_remaining"),
    ("repro.reconstruct.stream", "HalfSetAccumulator.full_map", "reconstruct.map"),
    ("repro.reconstruct.stream", "HalfSetAccumulator.curve", "reconstruct.fsc"),
    ("repro.reconstruct.direct_fourier", "reconstruct_from_views", "reconstruct.initial_map"),
    ("repro.faults.checkpoint", "save_checkpoint", "faults.checkpoint"),
    ("repro.faults.checkpoint", "save_loop_checkpoint", "faults.checkpoint"),
    ("repro.refine.orientfile", "write_orientation_file", "faults.checkpoint"),
)


@dataclass
class Span:
    """One timed call.  ``parent`` is the index of the enclosing span in the same process."""

    name: str
    start: float
    end: float
    parent: int | None
    pid: int
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _level_step(args: tuple, kwargs: dict) -> dict[str, Any]:
    level = kwargs.get("level", args[5] if len(args) > 5 else None)
    return {} if level is None else {"step": f"{level.angular_step_deg:g}deg"}


def _checkpoint_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    path = args[0] if args else kwargs.get("path", kwargs.get("directory"))
    if path is not None and os.path.isdir(path):
        path = os.path.join(path, "loop.json")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


#: span name → hook(args, kwargs) giving span arguments at entry
ENTRY_ARGS: dict[str, Callable[[tuple, dict], dict[str, Any]]] = {
    "engine.run_level": _level_step,
}
#: span name → hook(args, kwargs, result) giving span arguments at exit
EXIT_ARGS: dict[str, Callable[[tuple, dict, Any], dict[str, Any]]] = {
    "refine.sliding_window": lambda a, k, r: {"slides": int(r.n_windows) - 1},
    "faults.checkpoint": _checkpoint_bytes,
    "engine.backend_start": lambda a, k, r: {"backend": r},
}


class Recorder:
    """In-memory span store; wrappers record only while ``active`` is set."""

    def __init__(self, worker_dir: str | None = None) -> None:
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.active = False

    def open(self, name: str, args: dict[str, Any] | None = None) -> int:
        if os.getpid() != self.pid:
            self._become_worker()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pid, args or {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[int]:
        idx = self.open(name, args)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- pool workers ---------------------------------------------------------
    def _become_worker(self) -> None:
        from multiprocessing import util

        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        if self.worker_dir is not None:
            util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.args] for s in self.spans], fh)

    def collect_workers(self) -> int:
        """Merge and delete the span files pool workers wrote; returns the file count."""
        if self.worker_dir is None:
            return 0
        paths = sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json")))
        for path in paths:
            pid = int(os.path.basename(path)[len("worker-"):-len(".json")])
            with open(path) as fh:
                rows = json.load(fh)
            base = len(self.spans)
            for name, start, end, parent, args in rows:
                self.spans.append(
                    Span(name, start, end, None if parent is None else base + parent, pid, args)
                )
            os.unlink(path)
        return len(paths)


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    entry = ENTRY_ARGS.get(name)
    exit_ = EXIT_ARGS.get(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name, entry(args, kwargs) if entry else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if exit_:
            rec.spans[idx].args.update(exit_(args, kwargs, result))
        return result

    return wrapper


def install(rec: Recorder, points=LAYER_POINTS) -> Callable[[], None]:
    """Wrap every layer point with ``rec``'s timers; returns the undo function."""
    undo: list[Callable[[], None]] = []
    for module_name, attr, name in points:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(rec, name, orig))
            undo.append(functools.partial(setattr, cls, meth, orig))
            continue
        orig = getattr(module, attr)
        wrapped = _wrap(rec, name, orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and vars(mod).get(attr) is orig:
                setattr(mod, attr, wrapped)
                undo.append(functools.partial(setattr, mod, attr, orig))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


# -- analysis -----------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    return [
        s.duration
        - union_length(
            [(max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids.get(i, [])]
        )
        for i, s in enumerate(spans)
    ]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def coverage(spans: list[Span], root: int) -> tuple[float, float]:
    """(covered share, unattributed seconds) of span ``root`` by its direct children."""
    r = spans[root]
    covered = union_length([
        (max(s.start, r.start), min(s.end, r.end))
        for s in spans
        if s.parent == root and s.pid == r.pid
    ])
    if r.duration <= 0:
        return 0.0, 0.0
    return covered / r.duration, r.duration - covered


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def chrome_trace(
    spans: list[Span], run_id: str, labels: dict[int, str] | None = None, t0: float | None = None
) -> dict:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing); times relative to ``t0``."""
    events: list[dict[str, Any]] = []
    if t0 is None:
        t0 = min((s.start for s in spans), default=0.0)
    for pid, label in (labels or {}).items():
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": pid,
                       "args": {"name": label}})
    for i, s in enumerate(spans):
        args = {k: v for k, v in s.args.items() if isinstance(v, (int, float, str))}
        args.update(run_id=run_id, span_id=i, parent=s.parent)
        events.append({
            "ph": "X", "name": s.name, "cat": s.name.split(".")[0], "pid": s.pid, "tid": s.pid,
            "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"run_id": run_id}}

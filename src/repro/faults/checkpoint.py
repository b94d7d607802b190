"""Level-granular checkpoint/resume for the refinement drivers.

A checkpoint is written after every completed resolution level — the only
points where the algorithm's state is small and well-defined: the per-view
orientation set, the per-view distances, and the accumulated window/center
counters.  The on-disk format *is* the orientation-file format (steps c/o)
with a machine-readable meta header in comment lines, so a checkpoint
doubles as a valid partial result: ``repro reconstruct`` can consume a
checkpoint of a killed run directly.

Orientations are serialized at 17 significant digits (exact float64
round-trip), which is what makes a killed-then-resumed run *bit-identical*
to a fault-free one — the chaos harness asserts exactly that.  Writes are
atomic (temp file + :func:`os.replace` in the same directory), so a run
killed mid-write leaves the previous checkpoint intact, never a torn file.

The module also owns the *outer-loop* checkpoint of the structure
determination loop (DESIGN.md §14): a checkpoint **directory** holding a
``loop.json`` progress record plus one full-precision orientation file per
completed iteration (``iter_NNN.orient``) and the in-flight iteration's
level-granular inner checkpoint (``iter_NNN.refine.ckpt``).  The JSON
floats round-trip exactly (Python's ``json`` emits shortest-repr float64),
and each iteration's map is recorded as a SHA-256 digest so a resumed loop
can *prove* its deterministic rebuild matches the killed run's map bit for
bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from repro.arraytypes import Array
from repro.geometry.euler import Orientation
from repro.refine.orientfile import read_orientation_file, write_orientation_file
from repro.refine.stats import RefinementStats

__all__ = [
    "CHECKPOINT_FORMAT",
    "LOOP_CHECKPOINT_FORMAT",
    "MEMO_KEY_FORMAT",
    "CheckpointConfigMismatch",
    "LoopCheckpoint",
    "LoopIterationEntry",
    "RefinementCheckpoint",
    "density_digest",
    "iteration_checkpoint_path",
    "iteration_orientations_path",
    "load_checkpoint",
    "load_loop_checkpoint",
    "loop_checkpoint_path",
    "save_checkpoint",
    "save_loop_checkpoint",
    "try_load_checkpoint",
    "try_load_loop_checkpoint",
]

CHECKPOINT_FORMAT = "repro-checkpoint v1"
LOOP_CHECKPOINT_FORMAT = "repro-loop-checkpoint v1"
#: How the keys in a checkpoint's ``memo`` header were built.  Every path
#: now keys the memo on the exact candidate floats; checkpoints written
#: before this marker existed keyed symmetry-restricted runs on canonical,
#: rounded angles instead, which must never seed an exact-key memo.
MEMO_KEY_FORMAT = "exact"


@dataclass(frozen=True)
class RefinementCheckpoint:
    """Everything needed to resume a multi-resolution refinement run.

    Attributes
    ----------
    schedule_fingerprint:
        :meth:`MultiResolutionSchedule.fingerprint` of the schedule the
        run was started with; resume refuses to mix schedules.
    levels_done:
        Number of leading schedule levels fully completed (and therefore
        reflected in ``orientations``).
    orientations / distances:
        Per-view state after the last completed level, exact to the bit.
    stats:
        Accumulated counters for the completed levels, so a resumed run
        reports the same totals as an uninterrupted one.
    memo:
        Serialized orientation-memo state (view index -> key/value float
        arrays, see :meth:`repro.align.memo.MemoStore.export_state`);
        ``None`` when the run does not memoize.  Stored losslessly
        (``float.hex`` round-trip), so a resumed run's memo hits — and
        therefore its skipped gathers — pick up exactly where the killed
        run stopped, with bit-identical results either way.
    memo_key_format:
        The ``keys`` marker of the memo header (:data:`MEMO_KEY_FORMAT`),
        ``None`` for a header written before the marker existed.  A
        symmetry-restricted run resumes from an unmarked memo with an
        empty memo instead (the memo is a cache, so results are unchanged).
    """

    schedule_fingerprint: str
    levels_done: int
    orientations: list[Orientation]
    distances: Array
    stats: RefinementStats
    memo: dict[int, tuple[Array, Array]] | None = None
    memo_key_format: str | None = MEMO_KEY_FORMAT
    #: Per-view multi-basin state (``prune.top_k``/``polish.n_best`` > 1):
    #: one tuple of basin-center orientations per view, ``None`` entries
    #: for views without tracked basins, ``None`` overall for single-basin
    #: runs.  Stored losslessly (``float.hex``) in the ``basins`` header
    #: tag so a resumed multi-basin run re-seeds the exact same starts.
    basins: list[tuple[Orientation, ...] | None] | None = None
    #: :meth:`repro.engine.config.EngineConfig.fingerprint` of the run's
    #: engine config — schedule *plus* kernel/memo/matching settings.  The
    #: schedule fingerprint alone silently accepted a resume under a
    #: different kernel or memo configuration; this field closes that hole.
    #: Empty for checkpoints written by drivers without an engine config.
    engine_fingerprint: str = ""

    @property
    def n_views(self) -> int:
        return len(self.orientations)


def _memo_to_json(memo: dict[int, tuple[Array, Array]]) -> str:
    """Lossless JSON for a memo export: every float as ``float.hex()``."""
    views = {
        str(idx): {
            "k": [[float(x).hex() for x in row] for row in np.asarray(keys).tolist()],
            "v": [float(x).hex() for x in np.asarray(values).tolist()],
        }
        for idx, (keys, values) in memo.items()
    }
    return json.dumps({"keys": MEMO_KEY_FORMAT, "views": views}, sort_keys=True)


def _memo_from_json(obj: dict) -> tuple[dict[int, tuple[Array, Array]], str | None]:
    """Inverse of :func:`_memo_to_json`: ``(memo, key_format)``.

    An unmarked header is the older layout — the per-view mapping itself,
    with no key-format marker — and reports ``None``.
    """
    if "views" in obj:
        views, key_format = obj["views"], obj.get("keys")
    else:
        views, key_format = obj, None
    out: dict[int, tuple[Array, Array]] = {}
    for idx, entry in views.items():
        keys = np.array(
            [[float.fromhex(x) for x in row] for row in entry["k"]], dtype=np.float64
        ).reshape(-1, 5)
        values = np.array([float.fromhex(x) for x in entry["v"]], dtype=np.float64)
        out[int(idx)] = (keys, values)
    return out, key_format


def _basins_to_json(basins: list[tuple[Orientation, ...] | None]) -> str:
    """Lossless JSON for per-view basin sets: 5-tuples of ``float.hex()``."""
    payload = [
        None
        if entry is None
        else [[float(x).hex() for x in o.as_tuple()] for o in entry]
        for entry in basins
    ]
    return json.dumps(payload)


def _basins_from_json(obj: list) -> list[tuple[Orientation, ...] | None]:
    return [
        None
        if entry is None
        else tuple(Orientation(*(float.fromhex(x) for x in row)) for row in entry)
        for entry in obj
    ]


def save_checkpoint(path: str, checkpoint: RefinementCheckpoint) -> None:
    """Atomically write ``checkpoint`` to ``path``.

    The temp file lives in the target directory so :func:`os.replace` is a
    same-filesystem atomic rename; a crash between write and rename leaves
    at worst an orphaned ``.tmp`` file, never a torn checkpoint.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "schedule_fingerprint": checkpoint.schedule_fingerprint,
        "levels_done": int(checkpoint.levels_done),
        "n_views": checkpoint.n_views,
        "stats": asdict(checkpoint.stats),
    }
    if checkpoint.engine_fingerprint:
        meta["engine_fingerprint"] = checkpoint.engine_fingerprint
    header = f"{CHECKPOINT_FORMAT}\nmeta {json.dumps(meta, sort_keys=True)}"
    if checkpoint.memo is not None:
        header += f"\nmemo {_memo_to_json(checkpoint.memo)}"
    if checkpoint.basins is not None:
        header += f"\nbasins {_basins_to_json(checkpoint.basins)}"
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        write_orientation_file(
            tmp,
            checkpoint.orientations,
            scores=np.asarray(checkpoint.distances, dtype=float),
            header=header,
            full_precision=True,
        )
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _parse_header(path: str) -> dict[str, dict]:
    """Extract the ``# <tag> {...}`` JSON header lines from a checkpoint.

    Returns a mapping of tag (``"meta"``, ``"memo"``, ``"basins"``) to the
    parsed JSON body; scanning stops at the first non-comment line.
    """
    found: dict[str, dict] = {}
    with open(path) as fh:
        for line in fh:
            text = line.strip()
            if not text.startswith("#"):
                break
            body = text.lstrip("#").strip()
            for tag in ("meta", "memo", "basins"):
                if body.startswith(tag + " "):
                    found[tag] = json.loads(body[len(tag) + 1 :])
    if "meta" not in found:
        raise ValueError(f"{path}: not a checkpoint file (no meta header)")
    return found


def load_checkpoint(path: str) -> RefinementCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises ``ValueError`` on a malformed or non-checkpoint file (a plain
    orientation file has no meta header).  Checkpoints written before the
    memo header existed load with ``memo=None``.
    """
    header = _parse_header(path)
    meta = header["meta"]
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format {meta.get('format')!r}")
    orientations, scores = read_orientation_file(path)
    if len(orientations) != int(meta["n_views"]):
        raise ValueError(
            f"{path}: meta claims {meta['n_views']} views, file holds {len(orientations)}"
        )
    stats = RefinementStats(**meta["stats"])
    memo, memo_key_format = (
        _memo_from_json(header["memo"]) if "memo" in header else (None, MEMO_KEY_FORMAT)
    )
    basins = _basins_from_json(header["basins"]) if "basins" in header else None
    return RefinementCheckpoint(
        schedule_fingerprint=str(meta["schedule_fingerprint"]),
        levels_done=int(meta["levels_done"]),
        orientations=orientations,
        distances=np.asarray(scores, dtype=float),
        stats=stats,
        memo=memo,
        memo_key_format=memo_key_format,
        engine_fingerprint=str(meta.get("engine_fingerprint", "")),
        basins=basins,
    )


class CheckpointConfigMismatch(ValueError):
    """A checkpoint matches the schedule but not the engine configuration.

    Same schedule, different kernel/memo/matching settings: the partial
    results in the file were produced under a config the resuming run
    would not reproduce, so continuing would silently mix numbers from
    two different runs.  Unlike a schedule or view-count mismatch (which
    just starts fresh — the file is simply *for another run*), this is
    almost certainly an operator error and must fail loudly.
    """


def try_load_checkpoint(
    path: str,
    schedule_fingerprint: str,
    n_views: int,
    engine_fingerprint: str | None = None,
) -> RefinementCheckpoint | None:
    """Load ``path`` if it is a usable checkpoint for this exact run.

    Returns ``None`` (start from scratch) when the file is missing, not a
    checkpoint, or was written for a different schedule or view count —
    resuming across any of those would silently corrupt the result, so
    mismatch means "ignore", never "adapt".

    ``engine_fingerprint`` tightens the gate: a checkpoint that matches
    the schedule but carries a *different* engine fingerprint raises
    :class:`CheckpointConfigMismatch` instead of resuming — same run
    identity, incompatible kernel/memo configuration.  Checkpoints
    written before the engine header existed (empty fingerprint) are
    accepted for backward compatibility.
    """
    if not os.path.exists(path):
        return None
    try:
        ckpt = load_checkpoint(path)
    except (ValueError, OSError, KeyError, json.JSONDecodeError):
        return None
    if ckpt.schedule_fingerprint != schedule_fingerprint or ckpt.n_views != n_views:
        return None
    if (
        engine_fingerprint
        and ckpt.engine_fingerprint
        and ckpt.engine_fingerprint != engine_fingerprint
    ):
        raise CheckpointConfigMismatch(
            f"{path}: checkpoint was written under engine config "
            f"{ckpt.engine_fingerprint}, this run is configured as "
            f"{engine_fingerprint} (same schedule, different kernel/memo/"
            f"matching settings); refusing to resume — delete the "
            f"checkpoint or restore the original configuration"
        )
    return ckpt


# -- the outer-loop (structure determination) checkpoint ----------------------


@dataclass(frozen=True)
class LoopIterationEntry:
    """One completed outer-loop iteration, as recorded in ``loop.json``.

    The entry holds only what the resume path cannot recompute cheaply or
    must *verify*: the per-iteration orientations live in their own
    full-precision orientation file, the map is deterministically rebuilt
    from them on resume and checked against ``map_digest``.
    """

    iteration: int
    r_max: float | None
    resolution_angstrom: float
    mean_distance: float
    map_digest: str

    def to_json(self) -> dict:
        return {
            "iteration": int(self.iteration),
            "r_max": None if self.r_max is None else float(self.r_max),
            "resolution_angstrom": float(self.resolution_angstrom),
            "mean_distance": float(self.mean_distance),
            "map_digest": self.map_digest,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LoopIterationEntry":
        return cls(
            iteration=int(obj["iteration"]),
            r_max=None if obj["r_max"] is None else float(obj["r_max"]),
            resolution_angstrom=float(obj["resolution_angstrom"]),
            mean_distance=float(obj["mean_distance"]),
            map_digest=str(obj["map_digest"]),
        )


@dataclass(frozen=True)
class LoopCheckpoint:
    """Progress record of the refine→reconstruct loop (DESIGN.md §14).

    ``engine_fingerprint`` is the *base* config's
    :meth:`~repro.engine.config.EngineConfig.fingerprint`, which covers the
    ``iteration`` section — so a resume under a different stopping rule or
    resolution ladder refuses loudly.  ``initial_map_digest`` pins the
    starting map: iteration 0 refines against it, so a different initial
    map means a different run entirely (treated like a view-count
    mismatch: start fresh).
    """

    engine_fingerprint: str
    n_views: int
    initial_map_digest: str
    iterations: tuple[LoopIterationEntry, ...] = ()

    @property
    def iterations_done(self) -> int:
        return len(self.iterations)


def density_digest(data: Array) -> str:
    """SHA-256 of a density volume's exact float64 bytes (plus shape)."""
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def loop_checkpoint_path(directory: str) -> str:
    """The ``loop.json`` progress record inside a loop-checkpoint dir."""
    return os.path.join(directory, "loop.json")


def iteration_orientations_path(directory: str, iteration: int) -> str:
    """The full-precision orientation file of one completed iteration."""
    return os.path.join(directory, f"iter_{int(iteration):03d}.orient")


def iteration_checkpoint_path(directory: str, iteration: int) -> str:
    """The level-granular inner checkpoint of one in-flight iteration.

    Iteration-tagged so a finished iteration's inner checkpoint can never
    seed the next iteration's refinement (their schedules may coincide,
    but their input maps do not).
    """
    return os.path.join(directory, f"iter_{int(iteration):03d}.refine.ckpt")


def save_loop_checkpoint(directory: str, checkpoint: LoopCheckpoint) -> None:
    """Atomically write ``loop.json`` (creating ``directory`` if needed)."""
    os.makedirs(directory, exist_ok=True)
    payload = {
        "format": LOOP_CHECKPOINT_FORMAT,
        "engine_fingerprint": checkpoint.engine_fingerprint,
        "n_views": int(checkpoint.n_views),
        "initial_map_digest": checkpoint.initial_map_digest,
        "iterations": [e.to_json() for e in checkpoint.iterations],
    }
    path = loop_checkpoint_path(directory)
    fd, tmp = tempfile.mkstemp(prefix="loop.json.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def load_loop_checkpoint(directory: str) -> LoopCheckpoint:
    """Read a ``loop.json`` written by :func:`save_loop_checkpoint`."""
    path = loop_checkpoint_path(directory)
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != LOOP_CHECKPOINT_FORMAT:
        raise ValueError(
            f"{path}: unsupported loop-checkpoint format {payload.get('format')!r}"
        )
    return LoopCheckpoint(
        engine_fingerprint=str(payload["engine_fingerprint"]),
        n_views=int(payload["n_views"]),
        initial_map_digest=str(payload["initial_map_digest"]),
        iterations=tuple(
            LoopIterationEntry.from_json(e) for e in payload["iterations"]
        ),
    )


def try_load_loop_checkpoint(
    directory: str,
    engine_fingerprint: str,
    n_views: int,
    initial_map_digest: str,
) -> LoopCheckpoint | None:
    """Load the loop checkpoint if it is usable for this exact run.

    Mirrors :func:`try_load_checkpoint`'s gate: missing/unparseable files
    and view-count or initial-map mismatches mean "start fresh" (the file
    is for another run); an engine-fingerprint mismatch — same inputs,
    different result-relevant configuration — raises
    :class:`CheckpointConfigMismatch` instead of silently mixing runs.
    """
    path = loop_checkpoint_path(directory)
    if not os.path.exists(path):
        return None
    try:
        ckpt = load_loop_checkpoint(directory)
    except (ValueError, OSError, KeyError, json.JSONDecodeError):
        return None
    if ckpt.n_views != n_views or ckpt.initial_map_digest != initial_map_digest:
        return None
    if (
        engine_fingerprint
        and ckpt.engine_fingerprint
        and ckpt.engine_fingerprint != engine_fingerprint
    ):
        raise CheckpointConfigMismatch(
            f"{path}: loop checkpoint was written under engine config "
            f"{ckpt.engine_fingerprint}, this run is configured as "
            f"{engine_fingerprint}; refusing to resume — delete the "
            f"checkpoint directory or restore the original configuration"
        )
    return ckpt

"""Per-view orientation memo for the batched matching engine.

The sliding-window search (paper steps f–i) re-centers its 9×9×9 window
on the current best orientation, so consecutive windows overlap by
construction; level handoffs additionally re-score the coarse winner at
the next level's center.  Both produce candidate orientations that were
*already matched* against the same Fourier volume — the memo makes those
repeats free.

Keys are the **exact float tuple** ``(theta, phi, omega, cx, cy)``.  The
window grids are built from level-quantized angular steps, so candidates
shared between re-centered windows land on bit-equal floats and hit the
cache; conversely, an orientation that differs by even one ulp would
produce a (minutely) different distance, and returning the cached value
for it could flip an argmin.  Exact keys are therefore what keeps the
memoized search *bit-identical* to the memo-disabled one — quantization
lives in the search grid itself, not in the lookup (see DESIGN.md §9).

The memo is bounded (insertion-order eviction — eviction can only lower
the hit rate, never change a returned value), per-view (cached distances
depend on the view band, so :class:`MemoStore` keys memos by view index),
and exports/imports plain float arrays so it can travel through worker
pickles and the checkpoint format without precision loss.

The continuous least-squares polish (:mod:`repro.refine.polish`) shares
the same store: its keys are the *continuous* off-grid tuples the LM
iterations visit, cached under identical semantics — the distance of the
candidate ``(θ, φ, ω)`` against the view shifted by ``(cx, cy)``.  Polish
keys almost never collide with grid keys (or each other across views),
but when they do — e.g. the polish re-evaluating its grid-point start —
the cached value is the exact same number the matcher stored.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import chain

import numpy as np

from repro.arraytypes import BoolArray, FloatArray
from repro.geometry.euler import Orientation

__all__ = ["MemoStore", "OrientationMemo", "memo_key"]

#: Default per-view capacity.  A full window scan is 9^3 = 729 candidates
#: and a level rarely slides more than ~10 windows, so 8192 entries keep
#: every orientation a level can revisit while bounding worst-case memory
#: (8192 * (5 + 1) floats ≈ 0.4 MB per view).
DEFAULT_CAPACITY = 8192

MemoKey = tuple[float, float, float, float, float]


def memo_key(orientation: Orientation, center: tuple[float, float]) -> MemoKey:
    """Exact-float memo key for one candidate at one view center shift."""
    return (
        orientation.theta,
        orientation.phi,
        orientation.omega,
        float(center[0]),
        float(center[1]),
    )


class OrientationMemo:
    """Bounded exact-key cache mapping (Euler triple, center shift) -> distance.

    Backed by an insertion-ordered dict plus a deque of the same keys in
    the same order.  Eviction pops the deque's left end — the oldest
    entry — a FIFO policy that is deterministic, O(1) per insert, and
    whose only possible effect on a run is a missed hit (values are
    immutable once stored).  The deque, one pointer per entry, is what
    makes eviction O(1): CPython finds a dict's first key by scanning past
    every slot deleted at the front of its entry table, so
    ``next(iter(entries))`` on a full, churning memo walks thousands of
    dead slots per insert.

    Every insert path (:meth:`put`, :meth:`store_block`,
    :meth:`import_arrays`) runs the same loop, :meth:`_absorb`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: dict[MemoKey, float] = {}
        self._order: deque[MemoKey] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: MemoKey) -> float | None:
        return self._entries.get(key)

    def put(self, key: MemoKey, distance: float) -> None:
        self._absorb((key,), (distance,))

    def _absorb(self, keys: Iterable[MemoKey], values: Iterable[float]) -> None:
        """Insert the pairs in order, exactly as one :meth:`put` per pair would.

        A key already present is skipped — first-stored wins, also for a
        key repeated inside one block — and a new key evicts the oldest
        entry when the memo is full, so a key evicted earlier in the same
        block is stored afresh when it comes round again.
        """
        entries = self._entries
        order = self._order
        capacity = self.capacity
        for key, value in zip(keys, values):
            if key in entries:
                continue
            if len(entries) >= capacity:
                del entries[order.popleft()]
            entries[key] = value
            order.append(key)

    # -- bulk window interface (used by match_view_window) ------------------
    def lookup_block(self, keys: list[MemoKey]) -> tuple[FloatArray, BoolArray]:
        """Look up a window's worth of keys at once.

        Returns ``(values, hit_mask)`` where ``values[i]`` is meaningful
        only where ``hit_mask[i]`` is True.
        """
        n = len(keys)
        values = np.zeros(n, dtype=np.float64)
        hits = np.zeros(n, dtype=bool)
        entries = self._entries
        for i, key in enumerate(keys):
            dist = entries.get(key)
            if dist is not None:
                values[i] = dist
                hits[i] = True
        return values, hits

    def store_block(self, keys: list[MemoKey], values: FloatArray) -> None:
        self._absorb(keys, np.asarray(values, dtype=np.float64).tolist())

    # -- serialization (worker pickles + checkpoint) ------------------------
    def export_arrays(self) -> tuple[FloatArray, FloatArray]:
        """Dump as ``((n, 5) keys, (n,) values)`` float64 arrays, oldest first.

        Array export is lossless (keys are already float64) and far
        cheaper to pickle than a large dict of tuples.
        """
        n = len(self._entries)
        keys = np.fromiter(
            chain.from_iterable(self._entries), dtype=np.float64, count=5 * n
        ).reshape(n, 5)
        values = np.fromiter(self._entries.values(), dtype=np.float64, count=n)
        return keys, values

    def import_arrays(self, keys: FloatArray, values: FloatArray) -> None:
        """Absorb exported arrays (insertion order = array order)."""
        columns = np.asarray(keys, dtype=np.float64).T.tolist()
        self._absorb(zip(*columns), np.asarray(values, dtype=np.float64).tolist())


class MemoStore:
    """Per-run collection of per-view :class:`OrientationMemo` caches.

    Cached distances depend on everything that is fixed for one
    ``refine()`` call — the Fourier volume, the distance computer, the CTF
    band modulation — *and* on the view band, so memos are keyed by view
    index and never shared across views.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = int(capacity)
        self._memos: dict[int, OrientationMemo] = {}

    def __len__(self) -> int:
        return len(self._memos)

    def for_view(self, view_index: int) -> OrientationMemo:
        memo = self._memos.get(view_index)
        if memo is None:
            memo = OrientationMemo(self.capacity)
            self._memos[view_index] = memo
        return memo

    def view_indices(self) -> list[int]:
        return sorted(self._memos)

    # -- serialization ------------------------------------------------------
    def export_state(self) -> dict[int, tuple[FloatArray, FloatArray]]:
        """Pickle/checkpoint-friendly snapshot: view index -> key/value arrays."""
        return {
            index: memo.export_arrays()
            for index, memo in self._memos.items()
            if len(memo) > 0
        }

    def import_state(self, state: dict[int, tuple[FloatArray, FloatArray]]) -> None:
        for index, (keys, values) in state.items():
            self.for_view(int(index)).import_arrays(keys, values)

    def subset_state(
        self, view_indices: list[int]
    ) -> dict[int, tuple[FloatArray, FloatArray]]:
        """Export only the named views (what a worker chunk needs)."""
        out: dict[int, tuple[FloatArray, FloatArray]] = {}
        for index in view_indices:
            memo = self._memos.get(index)
            if memo is not None and len(memo) > 0:
                out[index] = memo.export_arrays()
        return out

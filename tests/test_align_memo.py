"""Unit tests for the per-view orientation memo (batched matching engine).

The memo's contract is narrow but strict: exact-float keys, values
immutable once stored, deterministic FIFO eviction, and lossless
export/import — every property the bit-identity of the memoized search
rests on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.memo import DEFAULT_CAPACITY, MemoStore, OrientationMemo, memo_key
from repro.geometry.euler import Orientation


def key(i: float) -> tuple[float, float, float, float, float]:
    return (float(i), 0.0, 0.0, 0.0, 0.0)


def test_memo_key_is_exact_floats():
    o = Orientation(10.1, 20.2, 30.3, cx=0.5, cy=-0.25)
    k = memo_key(o, (o.cx, o.cy))
    assert k == (10.1, 20.2, 30.3, 0.5, -0.25)
    # one-ulp difference is a different key — never a false hit
    assert memo_key(Orientation(np.nextafter(10.1, 11), 20.2, 30.3), (0.5, -0.25)) != k


def test_put_get_roundtrip_and_immutability():
    memo = OrientationMemo()
    memo.put(key(1), 0.25)
    assert memo.get(key(1)) == 0.25
    assert memo.get(key(2)) is None
    # a second put for the same key is a no-op: values are immutable
    memo.put(key(1), 99.0)
    assert memo.get(key(1)) == 0.25
    assert len(memo) == 1


def test_fifo_eviction_is_bounded_and_oldest_first():
    memo = OrientationMemo(capacity=3)
    for i in range(5):
        memo.put(key(i), float(i))
    assert len(memo) == 3
    assert memo.get(key(0)) is None and memo.get(key(1)) is None
    assert [memo.get(key(i)) for i in (2, 3, 4)] == [2.0, 3.0, 4.0]


def test_capacity_validation():
    with pytest.raises(ValueError):
        OrientationMemo(capacity=0)
    assert OrientationMemo().capacity == DEFAULT_CAPACITY


def test_default_capacity_has_one_value():
    """The engine's memo default mirrors the memo's own (it may not import it)."""
    from repro.engine.config import DEFAULT_MEMO_CAPACITY, MemoConfig

    assert DEFAULT_MEMO_CAPACITY == DEFAULT_CAPACITY
    assert MemoConfig().capacity == DEFAULT_CAPACITY


def test_lookup_block_and_store_block():
    memo = OrientationMemo()
    memo.put(key(0), 5.0)
    memo.put(key(2), 7.0)
    keys = [key(0), key(1), key(2), key(3)]
    values, hits = memo.lookup_block(keys)
    assert hits.tolist() == [True, False, True, False]
    assert values[0] == 5.0 and values[2] == 7.0
    memo.store_block([key(1), key(3)], np.array([6.0, 8.0]))
    values, hits = memo.lookup_block(keys)
    assert hits.all()
    assert values.tolist() == [5.0, 6.0, 7.0, 8.0]


def test_export_import_is_lossless():
    memo = OrientationMemo()
    rng = np.random.default_rng(0)
    keys = [tuple(row) for row in rng.standard_normal((10, 5))]
    for i, k in enumerate(keys):
        memo.put(k, float(rng.standard_normal()))
    exported_keys, exported_values = memo.export_arrays()
    assert exported_keys.shape == (10, 5)
    clone = OrientationMemo()
    clone.import_arrays(exported_keys, exported_values)
    for k in keys:
        assert clone.get(k) == memo.get(k)


def test_store_is_per_view_and_subsettable():
    store = MemoStore()
    store.for_view(0).put(key(0), 1.0)
    store.for_view(2).put(key(0), 2.0)
    store.for_view(3)  # touched but empty: must not appear in exports
    # same key, different views, different values — never shared
    assert store.for_view(0).get(key(0)) == 1.0
    assert store.for_view(2).get(key(0)) == 2.0
    assert store.view_indices() == [0, 2, 3]
    state = store.export_state()
    assert sorted(state) == [0, 2]
    subset = store.subset_state([2, 3, 7])
    assert sorted(subset) == [2]

    other = MemoStore()
    other.import_state(state)
    assert other.for_view(0).get(key(0)) == 1.0
    assert other.for_view(2).get(key(0)) == 2.0


def test_import_state_keeps_existing_values():
    a = MemoStore()
    a.for_view(0).put(key(0), 1.0)
    b = MemoStore()
    b.for_view(0).put(key(0), 99.0)  # conflicting value...
    b.for_view(0).put(key(1), 2.0)
    a.import_state(b.export_state())
    # ...loses: first-stored wins, imports can only add missing entries
    assert a.for_view(0).get(key(0)) == 1.0
    assert a.for_view(0).get(key(1)) == 2.0


def test_checkpoint_memo_header_roundtrip_is_exact(tmp_path):
    """Memo state survives the checkpoint text format bit-for-bit."""
    from repro.faults.checkpoint import (
        RefinementCheckpoint,
        load_checkpoint,
        save_checkpoint,
    )
    from repro.refine.stats import RefinementStats

    rng = np.random.default_rng(3)
    store = MemoStore()
    for view in (0, 4):
        memo = store.for_view(view)
        for row in rng.standard_normal((7, 5)) * 123.456:
            memo.put(tuple(row), float(rng.standard_normal()))
    path = str(tmp_path / "memo.ckpt")
    ckpt = RefinementCheckpoint(
        schedule_fingerprint="fp",
        levels_done=1,
        orientations=[Orientation(1.0, 2.0, 3.0)],
        distances=np.array([0.5]),
        stats=RefinementStats(),
        memo=store.export_state(),
    )
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.memo is not None
    assert sorted(loaded.memo) == [0, 4]
    for view, (keys, values) in loaded.memo.items():
        want_keys, want_values = ckpt.memo[view]
        assert np.array_equal(keys, want_keys)  # exact: float.hex round-trip
        assert np.array_equal(values, want_values)


# -- the memo against a reference FIFO model (hypothesis) ---------------------
class FifoModel:
    """The memo's contract spelled out: a key list (oldest first) plus a dict."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.keys: list[tuple[float, ...]] = []
        self.values: dict[tuple[float, ...], float] = {}

    def put(self, k: tuple[float, ...], value: float) -> None:
        if k in self.values:
            return  # first stored wins
        if len(self.keys) >= self.capacity:
            del self.values[self.keys.pop(0)]
        self.keys.append(k)
        self.values[k] = value


#: a small key pool, so puts, blocks and imports keep colliding
pool_keys = st.integers(0, 11).map(key)
memo_values = st.floats(allow_nan=False, width=64)
blocks = st.lists(st.tuples(pool_keys, memo_values), max_size=20)
memo_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.tuples(pool_keys, memo_values)),
        st.tuples(st.just("store_block"), blocks),
        st.tuples(st.just("import_arrays"), blocks),
    ),
    max_size=12,
)


@given(capacity=st.integers(1, 16), ops=memo_ops)
@settings(max_examples=300, deadline=None)
def test_memo_matches_fifo_model(capacity, ops):
    memo = OrientationMemo(capacity=capacity)
    model = FifoModel(capacity)
    for op, arg in ops:
        if op == "put":
            memo.put(*arg)
            model.put(*arg)
            continue
        keys = [k for k, _ in arg]
        values = np.array([v for _, v in arg], dtype=np.float64)
        if op == "store_block":
            memo.store_block(keys, values)
        else:
            memo.import_arrays(np.array(keys, dtype=np.float64).reshape(-1, 5), values)
        for k, v in zip(keys, values.tolist()):
            model.put(k, v)
        assert len(memo) == len(model.keys)
    exported_keys, exported_values = memo.export_arrays()
    assert exported_keys.shape == (len(model.keys), 5)
    assert [tuple(row) for row in exported_keys.tolist()] == model.keys
    want = np.array([model.values[k] for k in model.keys], dtype=np.float64)
    # bitwise: first-stored wins down to the sign of zero
    assert exported_values.tobytes() == want.tobytes()
    for i in range(12):
        assert memo.get(key(i)) == model.values.get(key(i))
    # the exported arrays rebuild the same memo, order included
    clone = OrientationMemo(capacity=capacity)
    clone.import_arrays(exported_keys, exported_values)
    clone_keys, clone_values = clone.export_arrays()
    assert clone_keys.tobytes() == exported_keys.tobytes()
    assert clone_values.tobytes() == exported_values.tobytes()


def test_store_block_reinserts_a_key_evicted_earlier_in_the_block():
    """Eviction interleaves with the block's inserts, as a run of puts would."""
    memo = OrientationMemo(capacity=2)
    memo.put(key(0), 0.5)
    # key(0) is present when the block starts, evicted by key(2), and
    # stored afresh (with the block's value) when it comes round again
    memo.store_block([key(0), key(1), key(2), key(0)], np.array([9.0, 1.0, 2.0, 7.0]))
    keys, values = memo.export_arrays()
    assert keys[:, 0].tolist() == [2.0, 0.0]
    assert values.tolist() == [2.0, 7.0]


"""Tests for the disk-based LinearHeap."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HeapEmptyError, HeapError
from repro.storage import BlockDevice, MemoryMeter
from repro.structures import LinearHeap


def _build(eids, keys, **kwargs):
    device = BlockDevice(block_size=64, cache_blocks=16)
    return LinearHeap.build(device, eids, keys, **kwargs), device


class TestBuild:
    def test_size(self):
        heap, _ = _build([0, 1, 2], [5, 1, 3])
        assert len(heap) == 3

    def test_build_length_mismatch(self):
        device = BlockDevice(block_size=64, cache_blocks=16)
        with pytest.raises(HeapError):
            LinearHeap.build(device, [0, 1], [1])

    def test_empty_build(self):
        heap, _ = _build([], [])
        assert len(heap) == 0
        assert heap.min_key() is None

    def test_memory_charge(self):
        device = BlockDevice(block_size=64, cache_blocks=16)
        memory = MemoryMeter()
        LinearHeap.build(device, [0], [0], memory=memory)
        assert memory.current_bytes > 0


class TestOperations:
    def test_pop_min_order(self):
        heap, _ = _build([0, 1, 2, 3], [5, 1, 3, 1])
        popped = [heap.pop_min() for _ in range(4)]
        assert [key for _, key in popped] == [1, 1, 3, 5]

    def test_same_key_fifo_by_build_order(self):
        heap, _ = _build([0, 1, 2], [2, 2, 2])
        assert heap.pop_min()[0] == 0  # ascending ids within a bucket

    def test_top_does_not_remove(self):
        heap, _ = _build([0], [4])
        assert heap.top() == (0, 4)
        assert len(heap) == 1

    def test_pop_empty(self):
        heap, _ = _build([], [])
        with pytest.raises(HeapEmptyError):
            heap.pop_min()

    def test_contains_and_key_of(self):
        heap, _ = _build([0, 1], [3, 7])
        assert heap.contains(1)
        assert heap.key_of(1) == 7
        heap.remove(1)
        assert not heap.contains(1)
        with pytest.raises(HeapError):
            heap.key_of(1)

    def test_remove_relinks_bucket(self):
        heap, _ = _build([0, 1, 2], [4, 4, 4])
        heap.remove(1)  # middle of the bucket list
        assert sorted(heap.iter_bucket(4)) == [0, 2]

    def test_remove_head(self):
        heap, _ = _build([0, 1], [4, 4])
        heap.remove(0)
        assert list(heap.iter_bucket(4)) == [1]

    def test_double_remove_raises(self):
        heap, _ = _build([0], [1])
        heap.remove(0)
        with pytest.raises(HeapError):
            heap.remove(0)

    def test_update_key(self):
        heap, _ = _build([0, 1], [5, 9])
        heap.update_key(1, 2)
        assert heap.pop_min() == (1, 2)

    def test_decrement(self):
        heap, _ = _build([0], [5])
        assert heap.decrement(0) == 4
        assert heap.key_of(0) == 4

    def test_decrement_at_zero_raises(self):
        heap, _ = _build([0], [0])
        with pytest.raises(HeapError):
            heap.decrement(0)

    def test_insert_below_min_updates_cursor(self):
        heap, _ = _build([0], [9], num_edges=2)
        assert heap.min_key() == 9
        heap.insert(1, 2)
        assert heap.min_key() == 2

    def test_key_out_of_range(self):
        heap, _ = _build([0], [3])
        with pytest.raises(HeapError):
            heap.insert(1, heap.max_key + 1)

    def test_live_items(self):
        heap, _ = _build([0, 1, 2], [2, 0, 2])
        assert sorted(heap.live_items()) == [(0, 2), (1, 0), (2, 2)]

    def test_release_frees_extents(self):
        heap, device = _build([0, 1], [1, 2])
        used = device.used_bytes
        heap.release()
        assert device.used_bytes < used


class TestAccounting:
    def test_operations_charge_io(self):
        device = BlockDevice(block_size=64, cache_blocks=2)
        heap = LinearHeap.build(device, range(100), [i % 7 for i in range(100)])
        device.stats.reset()
        heap.pop_min()
        assert device.stats.total_ios >= 0  # cached small case
        device.drop_cache()
        device.stats.reset()
        heap.remove(50)
        assert device.stats.read_ios > 0

    def test_min_key_scan_is_free(self):
        device = BlockDevice(block_size=64, cache_blocks=4)
        heap = LinearHeap.build(device, range(10), [9] * 10, max_key=100)
        device.drop_cache()
        device.stats.reset()
        assert heap.min_key() == 9  # in-memory head scan
        assert device.stats.total_ios == 0


@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40)
)
def test_drain_is_sorted(keys):
    heap, _ = _build(range(len(keys)), keys)
    drained = []
    while len(heap):
        drained.append(heap.pop_min()[1])
    assert drained == sorted(keys)


class TestErrorsLeaveHeapIntact:
    """A refused mutation must not lose the edge it was asked to move."""

    def _snapshot(self, heap):
        return len(heap), [heap.contains(e) for e in range(3)], heap.key_of(0)

    def test_decrement_at_zero(self):
        heap, _ = _build([0, 1, 2], [0, 0, 4])
        before = self._snapshot(heap)
        with pytest.raises(HeapError):
            heap.decrement(0)
        assert self._snapshot(heap) == before
        assert sorted(heap.iter_bucket(0)) == [0, 1]

    @pytest.mark.parametrize("bad_key", [-1, 6])
    def test_update_key_out_of_range(self, bad_key):
        heap, _ = _build([0, 1, 2], [3, 3, 5])
        before = self._snapshot(heap)
        with pytest.raises(HeapError):
            heap.update_key(0, bad_key)
        assert self._snapshot(heap) == before
        assert sorted(heap.iter_bucket(3)) == [0, 1]

    def test_move_edges_validates_every_key_first(self):
        heap, _ = _build([0, 1, 2], [3, 3, 5])
        before = self._snapshot(heap)
        with pytest.raises(HeapError):
            heap.move_edges([0, 1], [2, heap.max_key + 1])
        assert self._snapshot(heap) == before

    def test_edge_id_out_of_range(self):
        heap, _ = _build([0, 1], [3, 3])
        for call in (lambda: heap.remove(-1), lambda: heap.insert(2, 0),
                     lambda: heap.probe_keys([0, 2])):
            with pytest.raises(HeapError):
                call()
        assert len(heap) == 2


# --------------------------------------------------------------------- #
# the batched link core vs the element-at-a-time spec
# --------------------------------------------------------------------- #

_NIL, _DEAD = -1, -2


class ScalarSpec:
    """Element-at-a-time linear-heap operations over a heap's DiskArrays:
    one ``get``/``set`` per link-field touch (``gather`` for probes). The
    batched core must charge exactly these touches, in this order."""

    def __init__(self, heap):
        self.heap = heap

    def insert(self, eid, key):
        h = self.heap
        head = int(h.heads[key])
        h.keys.set(eid, key)
        h.prev.set(eid, _NIL)
        h.next.set(eid, head)
        if head != _NIL:
            h.prev.set(head, eid)
        h.heads[key] = eid
        h.counts[key] += 1
        h._size += 1
        h._min_cursor = min(h._min_cursor, key)

    def remove(self, eid):
        h = self.heap
        next_eid = h.next.get(eid)
        assert next_eid != _DEAD
        prev_eid = h.prev.get(eid)
        key = h.keys.get(eid)
        if prev_eid != _NIL:
            h.next.set(prev_eid, next_eid)
        else:
            h.heads[key] = next_eid
        if next_eid != _NIL:
            h.prev.set(next_eid, prev_eid)
        h.next.set(eid, _DEAD)
        h.counts[key] -= 1
        h._size -= 1
        return key

    def probe_keys(self, eids):
        h = self.heap
        eids = np.asarray(eids, dtype=np.int64)
        out = np.full(len(eids), -1, dtype=np.int64)
        alive = h.next.gather(eids) != _DEAD
        if alive.any():
            out[alive] = h.keys.gather(eids[alive])
        return out

    def iter_bucket(self, key):
        h = self.heap
        members, eid = [], int(h.heads[key])
        while eid != _NIL:
            members.append(eid)
            eid = h.next.get(eid)
        return members

    def move_edges(self, eids, keys):
        for eid, key in zip(eids, keys):
            self.remove(eid)
            self.insert(eid, key)

    def remove_edges(self, eids):
        return [self.remove(eid) for eid in eids]

    def pop_min(self):
        eid, key = self.heap.top()
        self.remove(eid)
        return eid, key


def _replay(runner, script):
    return [
        (op, np.asarray(getattr(runner, op)(*args)).tolist())
        for op, *args in script
    ]


@pytest.mark.parametrize("policy", ["lru", "fifo", "clock"])
@pytest.mark.parametrize("seed", range(6))
def test_batched_core_matches_scalar_spec(policy, seed):
    """Same answers, same structure, same bill, same pool as the
    element-at-a-time spec on random scripts."""
    num_edges, max_key = 96, 6
    rng = np.random.default_rng(100 + seed)
    keys = rng.integers(0, max_key + 1, size=num_edges)
    heaps = []
    for _ in range(2):
        device = BlockDevice(block_size=64, cache_blocks=4, policy=policy)
        heaps.append(LinearHeap.build(device, range(num_edges), keys, max_key=max_key))
    batched, spec_heap = heaps
    script = _script_for(seed, batched, num_edges, max_key)
    assert _replay(batched, script) == _replay(ScalarSpec(spec_heap), script)
    for name in ("keys", "prev", "next"):
        np.testing.assert_array_equal(
            getattr(batched, name).peek(), getattr(spec_heap, name).peek()
        )
    np.testing.assert_array_equal(batched.heads, spec_heap.heads)
    np.testing.assert_array_equal(batched.counts, spec_heap.counts)
    assert len(batched) == len(spec_heap)
    assert batched.min_key() == spec_heap.min_key()
    fast, reference = batched.device, spec_heap.device
    assert fast.stats.read_ios == reference.stats.read_ios
    assert fast.stats.write_ios == reference.stats.write_ios
    assert fast.io_by_extent() == reference.io_by_extent()
    assert list(fast._cache.items()) == list(reference._cache.items())


def _script_for(seed, heap, num_edges, max_key):
    """A valid script for *heap*: tracked against a scratch copy so pops
    and removals only ever name live edges."""
    rng = np.random.default_rng(seed)
    shadow = LinearHeap.build(
        BlockDevice(block_size=64, cache_blocks=4), range(num_edges),
        heap.keys.peek().copy(), max_key=max_key,
    )
    script = []
    for _ in range(60):
        op = rng.choice(["move", "remove", "insert", "probe", "walk", "pop"])
        alive = [e for e in range(num_edges) if shadow.next.peek()[e] != _DEAD]
        dead = [e for e in range(num_edges) if shadow.next.peek()[e] == _DEAD]
        if op == "move" and alive:
            eids = rng.choice(alive, size=min(len(alive), 8), replace=False).tolist()
            keys = [int(k) for k in rng.integers(0, max_key + 1, size=len(eids))]
            step = ("move_edges", eids, keys)
        elif op == "remove" and alive:
            step = ("remove_edges",
                    rng.choice(alive, size=min(len(alive), 4), replace=False).tolist())
        elif op == "insert" and dead:
            step = ("insert", int(rng.choice(dead)), int(rng.integers(max_key + 1)))
        elif op == "probe":
            step = ("probe_keys", rng.integers(0, num_edges, size=12).tolist())
        elif op == "walk":
            step = ("iter_bucket", int(rng.integers(max_key + 1)))
        elif op == "pop" and alive:
            step = ("pop_min",)
        else:
            continue
        getattr(shadow, step[0])(*step[1:])
        script.append(step)
    return script

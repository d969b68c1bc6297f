"""The disk-based linear-heap half of LHDH (paper §III-C, Fig 3).

Edges are bucketed by support. Each bucket is a doubly-linked list whose
node records (``key``, ``prev``, ``next``) live in :class:`DiskArray`s —
every link-field touch is a charged I/O. Bucket heads, bucket occupancy
counts and the running minimum live in memory (the paper: "it becomes
feasible to retain the information of the head node ... in memory", since
max support < n).

This structure is also used *alone* by SemiBinary and SemiGreedyCore as
``A_disk``, the bin-sorted edge array whose "reorder (u,w) and (v,w)
according to their new support" steps each pay disk I/O — the cost the
dynamic heap of :mod:`repro.structures.lhdh` exists to avoid.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .._util import int_list
from ..engine.context import ensure_device
from ..errors import HeapEmptyError, HeapError
from ..storage import BlockDevice, DiskArray, MemoryMeter

_NIL = -1      # end of a bucket list
_DEAD = -2     # edge removed from the heap

# Relink targets besides a bucket key (see ``LinearHeap._relink``).
_REMOVE = -1
_DECREMENT = -2


class LinearHeap:
    """Disk-resident bucket queue over edge ids keyed by support.

    Parameters
    ----------
    device:
        Block device holding the link arrays.
    num_edges:
        Capacity: edge ids must lie in ``[0, num_edges)``.
    max_key:
        Largest representable key (bucket count − 1).
    memory:
        Optional meter charged for the in-memory bucket heads.
    """

    def __init__(
        self,
        device: BlockDevice,
        num_edges: int,
        max_key: int,
        memory: Optional[MemoryMeter] = None,
        name: str = "lheap",
    ) -> None:
        if max_key < 0:
            raise HeapError("max_key must be non-negative")
        device = ensure_device(device)
        self.device = device
        self.memory = memory
        self.name = name
        self.max_key = int(max_key)
        # Disk-resident node records.
        self.keys = DiskArray(device, num_edges, np.int64, name=f"{name}.key", fill=0)
        self.prev = DiskArray(device, num_edges, np.int64, name=f"{name}.prev", fill=_NIL)
        self.next = DiskArray(device, num_edges, np.int64, name=f"{name}.next", fill=_DEAD)
        # In-memory bucket heads + occupancy (the semi-external allowance).
        self.heads = np.full(self.max_key + 1, _NIL, dtype=np.int64)
        self.counts = np.zeros(self.max_key + 1, dtype=np.int64)
        self._size = 0
        self._min_cursor = 0
        self._itemsize = self.keys.itemsize
        self._key_extent = self.keys.extent
        self._prev_extent = self.prev.extent
        self._next_extent = self.next.extent
        self._views = None
        if memory is not None:
            memory.charge(f"{name}.heads", self.heads.nbytes + self.counts.nbytes)

    # ------------------------------------------------------------------ #
    # bulk construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        device: BlockDevice,
        eids: Iterable[int],
        keys: Iterable[int],
        max_key: Optional[int] = None,
        num_edges: Optional[int] = None,
        memory: Optional[MemoryMeter] = None,
        name: str = "lheap",
    ) -> "LinearHeap":
        """Build a heap from parallel ``eids`` / ``keys`` sequences.

        The final structure is exactly what inserting the sequence in
        reverse would produce (each bucket lists its edge ids in the given
        order), but the link fields are computed vectorized and written to
        disk through the batch path in one bin-sort write pass (Alg 1
        line 10) instead of ``O(m)`` individual link updates.
        """
        eid_array = np.asarray(list(eids), dtype=np.int64)
        key_array = np.asarray(list(keys), dtype=np.int64)
        if len(eid_array) != len(key_array):
            raise HeapError("eids and keys must have equal length")
        if max_key is None:
            max_key = int(key_array.max()) if len(key_array) else 0
        if num_edges is None:
            num_edges = int(eid_array.max()) + 1 if len(eid_array) else 0
        heap = cls(device, num_edges, max_key, memory=memory, name=name)
        count = len(eid_array)
        if count == 0:
            return heap
        if key_array.min() < 0 or key_array.max() > max_key:
            raise HeapError(f"key outside [0, {max_key}]")
        # Stable sort groups each bucket while preserving the sequence
        # order inside it — the order sequential front-inserts (in reverse)
        # would leave the bucket lists in.
        order = np.argsort(key_array, kind="stable")
        sorted_eids = eid_array[order]
        sorted_keys = key_array[order]
        same_as_prev = np.zeros(count, dtype=bool)
        same_as_prev[1:] = sorted_keys[1:] == sorted_keys[:-1]
        prev_vals = np.where(same_as_prev, np.roll(sorted_eids, 1), _NIL)
        same_as_next = np.zeros(count, dtype=bool)
        same_as_next[:-1] = same_as_prev[1:]
        next_vals = np.where(same_as_next, np.roll(sorted_eids, -1), _NIL)
        # In-memory bucket heads / occupancy (the semi-external allowance).
        bucket_firsts = ~same_as_prev
        heap.heads[sorted_keys[bucket_firsts]] = sorted_eids[bucket_firsts]
        heap.counts[:] = np.bincount(
            key_array, minlength=heap.max_key + 1
        )[: heap.max_key + 1]
        heap._size = count
        # Disk write pass: one batched scatter per link array, in ascending
        # edge-id order (near-sequential on the common dense id ranges).
        ascending = np.argsort(sorted_eids, kind="stable")
        write_eids = sorted_eids[ascending]
        if count == num_edges and np.array_equal(
            write_eids, np.arange(num_edges, dtype=np.int64)
        ):
            # Dense case: full sequential rewrite, no read-modify-write.
            heap.keys.write_slice(0, sorted_keys[ascending])
            heap.prev.write_slice(0, prev_vals[ascending])
            heap.next.write_slice(0, next_vals[ascending])
        else:
            heap.keys.scatter(write_eids, sorted_keys[ascending])
            heap.prev.scatter(write_eids, prev_vals[ascending])
            heap.next.scatter(write_eids, next_vals[ascending])
        return heap

    # ------------------------------------------------------------------ #
    # the link core: raw payloads, one ordered touch log per operation
    # ------------------------------------------------------------------ #
    #
    # Every operation runs on the raw ``keys``/``prev``/``next`` payloads
    # and appends each link-field touch to a log, in exactly the order the
    # element-at-a-time code touches them; the log is then charged once
    # through ``BlockDevice.touch_sequence``. The single-edge methods are
    # batch-of-one calls of the same core.

    def __len__(self) -> int:
        return self._size

    def _links(self):
        """Memoryviews over the link payloads and the bucket arrays (fast
        python-int element access; created once per heap)."""
        if self._views is None:
            self._views = tuple(memoryview(array) for array in (
                self.keys.payload(), self.prev.payload(), self.next.payload(),
                self.heads, self.counts,
            ))
        return self._views

    def _check_eids(self, eids) -> None:
        if eids and (min(eids) < 0 or max(eids) >= self.keys.length):
            raise HeapError(
                f"edge id outside [0, {self.keys.length}) for {self.name!r}"
            )

    def _check_key(self, key: int) -> None:
        if key < 0 or key > self.max_key:
            raise HeapError(f"key {key} outside [0, {self.max_key}]")

    def _charge(self, log) -> None:
        """Charge a touch log of ``(extent, offset, write)`` in order."""
        if log:
            extents, offsets, writes = zip(*log)
            self.device.touch_sequence(extents, offsets, self._itemsize, writes)

    def _relink(self, eids, targets, log, detach: bool = True) -> list:
        """The one link implementation. For each edge of *eids*, in order:
        unlink it (when *detach*), then link it at the front of its target
        bucket — a key, :data:`_REMOVE` (stay unlinked) or
        :data:`_DECREMENT` (its old key minus one, refused at key 0 before
        anything is unlinked). Returns the old keys (``None`` when not
        detaching)."""
        keys, prev, nxt, heads, counts = self._links()
        size = self._itemsize
        key_extent, prev_extent, next_extent = (
            self._key_extent, self._prev_extent, self._next_extent,
        )
        append = log.append
        old_keys = []
        for eid, target in zip(eids, targets):
            at = eid * size
            key = None
            if detach:
                next_eid = nxt[eid]
                append((next_extent, at, False))
                if next_eid == _DEAD:
                    raise HeapError(f"edge {eid} not in linear heap")
                prev_eid = prev[eid]
                append((prev_extent, at, False))
                key = keys[eid]
                append((key_extent, at, False))
                if target == _DECREMENT:
                    if key == 0:
                        raise HeapError(f"cannot decrement edge {eid} below key 0")
                    target = key - 1
                if prev_eid != _NIL:
                    nxt[prev_eid] = next_eid
                    append((next_extent, prev_eid * size, True))
                else:
                    heads[key] = next_eid
                if next_eid != _NIL:
                    prev[next_eid] = prev_eid
                    append((prev_extent, next_eid * size, True))
                nxt[eid] = _DEAD
                append((next_extent, at, True))
                counts[key] -= 1
                self._size -= 1
            old_keys.append(key)
            if target == _REMOVE:
                continue
            head = heads[target]
            keys[eid] = target
            append((key_extent, at, True))
            prev[eid] = _NIL
            append((prev_extent, at, True))
            nxt[eid] = head
            append((next_extent, at, True))
            if head != _NIL:
                prev[head] = eid
                append((prev_extent, head * size, True))
            heads[target] = eid
            counts[target] += 1
            self._size += 1
            if target < self._min_cursor:
                self._min_cursor = target
        return old_keys

    def _apply(self, eids, targets, detach: bool = True) -> list:
        """Run :meth:`_relink` and charge its log — also when it raises
        part-way, so the touches made before the error stay charged, as
        the element-at-a-time code charges them."""
        log: list = []
        try:
            return self._relink(eids, targets, log, detach)
        finally:
            self._charge(log)

    # ------------------------------------------------------------------ #
    # operations (each link touch is charged I/O)
    # ------------------------------------------------------------------ #

    def insert(self, eid: int, key: int) -> None:
        """Link *eid* at the front of bucket *key*."""
        eid, key = int(eid), int(key)
        self._check_key(key)
        self._check_eids([eid])
        self._apply([eid], [key], detach=False)

    def contains(self, eid: int) -> bool:
        """Whether *eid* is currently linked (charged: reads its record)."""
        return self.next.get(eid) != _DEAD

    def key_of(self, eid: int) -> int:
        """Current key of a linked edge (charged read)."""
        key = int(self.probe_keys([eid])[0])
        if key < 0:
            raise HeapError(f"edge {eid} not in linear heap")
        return key

    def probe_keys(self, eids: np.ndarray) -> np.ndarray:
        """Batched aliveness + key probe: ``keys[i]`` or ``-1`` if dead.

        Charged as one ordered touch list: the ``next`` record of every
        edge (aliveness), then the ``key`` record of each survivor.
        """
        eid_list = int_list(eids)
        self._check_eids(eid_list)
        keys, _prev, nxt, _heads, _counts = self._links()
        size = self._itemsize
        found = [keys[eid] if nxt[eid] != _DEAD else -1 for eid in eid_list]
        log = [(self._next_extent, eid * size, False) for eid in eid_list]
        log.extend(
            (self._key_extent, eid * size, False)
            for eid, key in zip(eid_list, found) if key >= 0
        )
        self._charge(log)
        return np.array(found, dtype=np.int64)

    def remove(self, eid: int) -> int:
        """Unlink *eid*; returns its key. Charged link-field I/O."""
        return self.remove_edges([eid])[0]

    def remove_edges(self, eids) -> list:
        """Unlink every edge of *eids* in order; returns their keys."""
        eid_list = int_list(eids)
        self._check_eids(eid_list)
        return self._apply(eid_list, [_REMOVE] * len(eid_list))

    def move_edges(self, eids, new_keys) -> None:
        """Move each edge of *eids* to its bucket in *new_keys*, in order
        (remove + front insert per edge: the A_disk "reorder" step). Every
        key is validated before anything is unlinked."""
        eid_list = int_list(eids)
        key_list = int_list(new_keys)
        if len(eid_list) != len(key_list):
            raise HeapError("eids and new_keys must have equal length")
        self._check_eids(eid_list)
        if key_list:
            self._check_key(min(key_list))
            self._check_key(max(key_list))
        self._apply(eid_list, key_list)

    def update_key(self, eid: int, new_key: int) -> None:
        """Move *eid* to bucket *new_key* (the A_disk "reorder" step)."""
        self.move_edges([eid], [new_key])

    def decrement(self, eid: int) -> int:
        """Decrease *eid*'s key by one; returns the new key."""
        eid = int(eid)
        self._check_eids([eid])
        return self._apply([eid], [_DECREMENT])[0] - 1

    # ------------------------------------------------------------------ #
    # minimum access
    # ------------------------------------------------------------------ #

    def min_key(self) -> Optional[int]:
        """Smallest occupied key, or ``None`` when empty (in-memory scan)."""
        if self._size == 0:
            return None
        while self._min_cursor <= self.max_key and self.counts[self._min_cursor] == 0:
            self._min_cursor += 1
        return int(self._min_cursor)

    def top(self) -> Tuple[int, int]:
        """``(eid, key)`` at the current minimum, without removal."""
        key = self.min_key()
        if key is None:
            raise HeapEmptyError("top() on empty linear heap")
        return int(self.heads[key]), key

    def pop_min(self) -> Tuple[int, int]:
        """Remove and return the ``(eid, key)`` with the smallest key."""
        eid, key = self.top()
        self.remove(eid)
        return eid, key

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def iter_bucket(self, key: int) -> List[int]:
        """Edge ids in bucket *key* front-to-back (one charged walk of
        their ``next`` records)."""
        _keys, _prev, nxt, heads, _counts = self._links()
        size = self._itemsize
        members = []
        log = []
        eid = heads[key]
        while eid != _NIL:
            members.append(eid)
            log.append((self._next_extent, eid * size, False))
            eid = nxt[eid]
        self._charge(log)
        return members

    def live_items(self):
        """Yield all ``(eid, key)`` pairs (charged; tests/result use)."""
        for key in range(self.max_key + 1):
            if self.counts[key]:
                for eid in self.iter_bucket(key):
                    yield eid, key

    def release(self) -> None:
        """Free the disk extents and memory charge."""
        self._views = None
        self.keys.free()
        self.prev.free()
        self.next.free()
        if self.memory is not None:
            self.memory.release(f"{self.name}.heads")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearHeap({self.name!r}, size={self._size}, max_key={self.max_key})"

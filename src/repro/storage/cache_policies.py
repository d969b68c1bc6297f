"""Buffer-pool replacement policies for :class:`BlockDevice`.

The paper's experiments run on an OS page cache (effectively LRU-ish);
real buffer managers vary, and replacement policy visibly shifts I/O
counts for the scan-then-random-access patterns of truss peeling. Three
classic policies are provided:

* **LRU** — least-recently-used (default; matches the analysis model);
* **FIFO** — eviction in admission order, no access recency;
* **CLOCK** — the second-chance approximation of LRU used by most real
  buffer pools.

All expose the same minimal interface the device needs: ``lookup`` (and
touch), ``insert`` returning an evicted ``(key, dirty)`` or ``None``,
``discard``, ``set_dirty``, ``items``, ``clear``, ``__len__``, plus the
bulk hooks of the device's batch paths: ``bulk_read`` / ``bulk_write``
(run-compressed touches of one extent) and ``bulk_touch`` (an ordered
mixed read/write touch list across extents).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import DeviceError

Key = Tuple[int, int]
Evicted = Optional[Tuple[Key, bool]]

#: ``bulk_touch`` mode of a write that spans its whole block: a miss on
#: it charges no read-modify-write fault (other truthy modes are partial
#: writes, falsy modes reads).
WHOLE_BLOCK_WRITE = 2


class LRUCache:
    """Least-recently-used over an ordered dict."""

    name = "lru"
    #: Collapsed re-touches of a run are idempotent here (``move_to_end``
    #: on the already-most-recent key), so the device may skip computing
    #: repeat flags entirely.
    needs_repeats = False

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Key, bool]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def lookup(self, key: Key) -> Optional[bool]:
        """Return the dirty flag and refresh recency; ``None`` on miss."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def insert(self, key: Key, dirty: bool) -> Evicted:
        """Insert/overwrite; returns the evicted entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = dirty
            return None
        self._entries[key] = dirty
        if len(self._entries) > self.capacity:
            return self._entries.popitem(last=False)
        return None

    def discard(self, key: Key) -> Optional[bool]:
        """Drop an entry (no eviction charge); returns its dirty flag."""
        return self._entries.pop(key, None)

    def set_dirty(self, key: Key, dirty: bool) -> None:
        """Update a resident entry's dirty flag without recency change.

        A non-resident key is a caller bug: silently inserting it would
        grow the pool past capacity, bypassing eviction accounting.
        """
        if key not in self._entries:
            raise DeviceError(f"set_dirty on non-resident block {key}")
        self._entries[key] = dirty

    def items(self) -> Iterator[Tuple[Key, bool]]:
        return iter(list(self._entries.items()))

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------ #
    # bulk batch hooks (device fast path)
    # ------------------------------------------------------------------ #
    #
    # These apply a run-compressed sequence of block touches in one call,
    # equivalent — touch for touch — to the scalar lookup/insert/set_dirty
    # protocol of BlockDevice._touch_block / touch_write, but with the
    # per-block method dispatch hoisted out. They return charge *counts*
    # (counters are order-insensitive) plus the dirty eviction victims, so
    # the device can post the I/O in bulk.
    #
    # *repeats* flags runs that collapsed >= 2 scalar touches. For LRU the
    # extra touches only re-run ``move_to_end`` on the already-most-recent
    # key, and for FIFO lookups mutate nothing, so both ignore the flag;
    # CLOCK must honour it (a repeat earns a freshly admitted block its
    # reference bit).
    #
    # ``bulk_touch`` takes uncompressed block touches that may mix extents
    # and reads with writes, so it returns the faulted keys (the device
    # groups the read charges by extent) rather than a count.

    def bulk_read(self, extent: int, blocks, repeats) -> Tuple[int, List[Key]]:
        """Apply read touches; returns ``(miss_count, evicted_dirty_keys)``."""
        entries = self._entries
        capacity = self.capacity
        move = entries.move_to_end
        pop = entries.popitem
        size = len(entries)
        misses = 0
        evicted_dirty: List[Key] = []
        for block in blocks:
            key = (extent, block)
            if key in entries:
                move(key)
            else:
                misses += 1
                if size < capacity:
                    size += 1
                else:
                    victim, dirty = pop(last=False)
                    if dirty:
                        evicted_dirty.append(victim)
                entries[key] = False
        return misses, evicted_dirty

    def bulk_write(self, extent: int, blocks, repeats, covers) -> Tuple[int, List[Key]]:
        """Apply write touches; returns ``(fault_read_count, evicted_dirty_keys)``.

        ``covers[i]`` says whether run *i*'s first access spans its whole
        block (no read-modify-write fault). A resident block is marked
        dirty in place — idempotent when already dirty, and a plain
        ``__setitem__`` keeps its position, exactly like ``set_dirty``.
        """
        entries = self._entries
        capacity = self.capacity
        move = entries.move_to_end
        pop = entries.popitem
        size = len(entries)
        faults = 0
        evicted_dirty: List[Key] = []
        for block, cover in zip(blocks, covers):
            key = (extent, block)
            if key in entries:
                move(key)
                entries[key] = True
            else:
                if not cover:
                    faults += 1
                if size < capacity:
                    size += 1
                else:
                    victim, dirty = pop(last=False)
                    if dirty:
                        evicted_dirty.append(victim)
                entries[key] = True
        return faults, evicted_dirty

    def bulk_touch(self, keys, modes) -> Tuple[List[Key], List[Key]]:
        """Apply an ordered list of mixed block touches across extents.

        ``modes[i]`` is falsy when touch *i* reads ``keys[i]``, truthy
        when it writes, and :data:`WHOLE_BLOCK_WRITE` when the write spans
        the whole block (a miss then charges no read). Returns
        ``(faulted_keys, evicted_dirty_keys)``. Each touch is applied as
        the scalar path applies it, so no run compression is needed: a
        repeated touch of a resident block only re-marks it.
        """
        entries = self._entries
        capacity = self.capacity
        get = entries.get
        move = entries.move_to_end
        pop = entries.popitem
        size = len(entries)
        faulted: List[Key] = []
        evicted_dirty: List[Key] = []
        for key, mode in zip(keys, modes):
            dirty = get(key)
            if dirty is not None:
                move(key)
                if mode and not dirty:
                    entries[key] = True
            else:
                if mode != WHOLE_BLOCK_WRITE:
                    faulted.append(key)
                if size < capacity:
                    size += 1
                else:
                    victim, victim_dirty = pop(last=False)
                    if victim_dirty:
                        evicted_dirty.append(victim)
                entries[key] = bool(mode)
        return faulted, evicted_dirty


class FIFOCache(LRUCache):
    """First-in-first-out: like LRU but lookups don't refresh recency."""

    name = "fifo"

    def lookup(self, key: Key) -> Optional[bool]:
        return self._entries.get(key)

    def insert(self, key: Key, dirty: bool) -> Evicted:
        if key in self._entries:
            self._entries[key] = dirty  # keep original admission position
            return None
        self._entries[key] = dirty
        if len(self._entries) > self.capacity:
            return self._entries.popitem(last=False)
        return None

    def bulk_read(self, extent: int, blocks, repeats) -> Tuple[int, List[Key]]:
        entries = self._entries
        capacity = self.capacity
        pop = entries.popitem
        size = len(entries)
        misses = 0
        evicted_dirty: List[Key] = []
        for block in blocks:
            key = (extent, block)
            if key not in entries:
                misses += 1
                if size < capacity:
                    size += 1
                else:
                    victim, dirty = pop(last=False)
                    if dirty:
                        evicted_dirty.append(victim)
                entries[key] = False
        return misses, evicted_dirty

    def bulk_write(self, extent: int, blocks, repeats, covers) -> Tuple[int, List[Key]]:
        entries = self._entries
        capacity = self.capacity
        pop = entries.popitem
        size = len(entries)
        faults = 0
        evicted_dirty: List[Key] = []
        for block, cover in zip(blocks, covers):
            key = (extent, block)
            if key in entries:
                entries[key] = True  # set_dirty keeps the admission position
            else:
                if not cover:
                    faults += 1
                if size < capacity:
                    size += 1
                else:
                    victim, dirty = pop(last=False)
                    if dirty:
                        evicted_dirty.append(victim)
                entries[key] = True
        return faults, evicted_dirty

    def bulk_touch(self, keys, modes) -> Tuple[List[Key], List[Key]]:
        entries = self._entries
        capacity = self.capacity
        get = entries.get
        pop = entries.popitem
        size = len(entries)
        faulted: List[Key] = []
        evicted_dirty: List[Key] = []
        for key, mode in zip(keys, modes):
            dirty = get(key)
            if dirty is not None:
                if mode and not dirty:
                    entries[key] = True  # set_dirty keeps the admission position
            else:
                if mode != WHOLE_BLOCK_WRITE:
                    faulted.append(key)
                if size < capacity:
                    size += 1
                else:
                    victim, victim_dirty = pop(last=False)
                    if victim_dirty:
                        evicted_dirty.append(victim)
                entries[key] = bool(mode)
        return faulted, evicted_dirty


class ClockCache:
    """CLOCK (second chance): a circular buffer of frames with ref bits."""

    name = "clock"
    #: A repeat touch earns a freshly admitted block its reference bit, so
    #: the device must supply per-run repeat flags.
    needs_repeats = True

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._frames: List[Optional[Key]] = []
        self._index: Dict[Key, int] = {}
        self._dirty: Dict[Key, bool] = {}
        self._referenced: Dict[Key, bool] = {}
        self._hand = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Key) -> bool:
        return key in self._index

    def lookup(self, key: Key) -> Optional[bool]:
        if key not in self._index:
            return None
        self._referenced[key] = True
        return self._dirty[key]

    def _advance(self) -> int:
        while True:
            if self._hand >= len(self._frames):
                self._hand = 0
            key = self._frames[self._hand]
            if key is None:
                return self._hand
            if self._referenced.get(key, False):
                self._referenced[key] = False
                self._hand += 1
                continue
            return self._hand

    def insert(self, key: Key, dirty: bool) -> Evicted:
        if key in self._index:
            self._dirty[key] = dirty
            self._referenced[key] = True
            return None
        if len(self._frames) < self.capacity:
            self._frames.append(key)
            self._index[key] = len(self._frames) - 1
            self._dirty[key] = dirty
            # Admit unreferenced: the bit is earned by a subsequent hit
            # (the variant that keeps second-chance meaningful).
            self._referenced[key] = False
            return None
        slot = self._advance()
        victim = self._frames[slot]
        evicted: Evicted = None
        if victim is not None:
            evicted = (victim, self._dirty[victim])
            del self._index[victim]
            del self._dirty[victim]
            self._referenced.pop(victim, None)
        self._frames[slot] = key
        self._index[key] = slot
        self._dirty[key] = dirty
        self._referenced[key] = False
        self._hand = slot + 1
        return evicted

    def discard(self, key: Key) -> Optional[bool]:
        slot = self._index.pop(key, None)
        if slot is None:
            return None
        self._frames[slot] = None
        self._referenced.pop(key, None)
        return self._dirty.pop(key)

    def set_dirty(self, key: Key, dirty: bool) -> None:
        if key not in self._index:
            raise DeviceError(f"set_dirty on non-resident block {key}")
        self._dirty[key] = dirty

    def bulk_read(self, extent: int, blocks, repeats) -> Tuple[int, List[Key]]:
        index = self._index
        referenced = self._referenced
        misses = 0
        evicted_dirty: List[Key] = []
        for block, repeat in zip(blocks, repeats):
            key = (extent, block)
            if key in index:
                referenced[key] = True
            else:
                misses += 1
                evicted = self.insert(key, False)
                if evicted is not None and evicted[1]:
                    evicted_dirty.append(evicted[0])
                if repeat:
                    # The collapsed re-touches hit the fresh block and earn
                    # it the reference bit the admission withheld.
                    referenced[key] = True
        return misses, evicted_dirty

    def bulk_write(self, extent: int, blocks, repeats, covers) -> Tuple[int, List[Key]]:
        index = self._index
        dirty = self._dirty
        referenced = self._referenced
        faults = 0
        evicted_dirty: List[Key] = []
        for block, repeat, cover in zip(blocks, repeats, covers):
            key = (extent, block)
            if key in index:
                referenced[key] = True
                dirty[key] = True
            else:
                if not cover:
                    faults += 1
                evicted = self.insert(key, True)
                if evicted is not None and evicted[1]:
                    evicted_dirty.append(evicted[0])
                if repeat:
                    referenced[key] = True
        return faults, evicted_dirty

    def bulk_touch(self, keys, modes) -> Tuple[List[Key], List[Key]]:
        index = self._index
        dirty = self._dirty
        referenced = self._referenced
        faulted: List[Key] = []
        evicted_dirty: List[Key] = []
        for key, mode in zip(keys, modes):
            if key in index:
                referenced[key] = True
                if mode:
                    dirty[key] = True
            else:
                if mode != WHOLE_BLOCK_WRITE:
                    faulted.append(key)
                evicted = self.insert(key, bool(mode))
                if evicted is not None and evicted[1]:
                    evicted_dirty.append(evicted[0])
        return faulted, evicted_dirty

    def items(self) -> Iterator[Tuple[Key, bool]]:
        return iter([(k, self._dirty[k]) for k in self._index])

    def clear(self) -> None:
        self._frames.clear()
        self._index.clear()
        self._dirty.clear()
        self._referenced.clear()
        self._hand = 0


_POLICIES = {"lru": LRUCache, "fifo": FIFOCache, "clock": ClockCache}


def make_cache(policy: str, capacity: int):
    """Instantiate a cache by policy name (``lru`` / ``fifo`` / ``clock``)."""
    try:
        return _POLICIES[policy](capacity)
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown cache policy {policy!r}; known: {known}") from None

"""Persistent component cache keyed by explicit clause sets.

A cache key is always the component's own clause set (never indices into
a global formula), so a key collision implies the two components are the
same formula. The search hands its clauses over as int masks (see
`formula.clause_mask`), and a mask determines its clause's literal set,
so a frozenset of masks is still the clause set itself.
"""

from __future__ import annotations

from dataclasses import dataclass


def make_key(clauses):
    """The clause set itself, as a frozenset of clause masks.

    A frozenset input is returned as is.
    """
    return frozenset(clauses)


def key_bytes(key):
    # documented size model: per-entry overhead + per-clause + per-literal;
    # a clause mask has one bit per literal
    return 32 + 16 * len(key) + 8 * sum(c.bit_count() for c in key)


@dataclass
class CacheEntry:
    count: int
    byte_size: int
    hits: int = 0
    created_seq: int = 0
    last_touched_epoch: int = 0


class ComponentCache:
    """Key -> exact count map with a byte budget and hit/age eviction.

    Lookup relies on dict semantics: hashing narrows, full key equality
    decides, so a hash collision can never return a wrong entry.
    """

    def __init__(self, byte_budget):
        if byte_budget <= 0:
            raise ValueError("cache byte budget must be positive")
        self.byte_budget = byte_budget
        self.entries = {}
        self.bytes_used = 0
        self.epoch = 0  # advanced once per count
        self._seq = 0
        self.evictions = 0  # cumulative; clear() keeps it

    def clear(self):
        self.entries.clear()
        self.bytes_used = 0

    def lookup(self, key):
        """Return the stored count or None; a hit updates the entry's hits and age."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        entry.hits += 1
        entry.last_touched_epoch = self.epoch
        return entry.count

    def store(self, key, count):
        if key in self.entries:
            return
        size = key_bytes(key)
        if size > self.byte_budget:
            return  # a key that cannot fit is simply not cached
        self._seq += 1
        self.entries[key] = CacheEntry(count, size, 0, self._seq, self.epoch)
        self.bytes_used += size
        if self.bytes_used > self.byte_budget:
            self.evict()

    def evict(self):
        """Drop lowest hits/age entries until usage is at most 0.8 * budget."""
        target = int(self.byte_budget * 0.8)

        def score(item):
            entry = item[1]
            age = max(1, self.epoch - entry.last_touched_epoch + 1)
            return (entry.hits / age, entry.created_seq)

        for key, entry in sorted(self.entries.items(), key=score):
            if self.bytes_used <= target:
                break
            del self.entries[key]
            self.bytes_used -= entry.byte_size
            self.evictions += 1

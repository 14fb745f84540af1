"""Persistent component cache keyed by explicit clause sets.

A cache key is always the component's own clause set (never indices into
a global formula), so a key collision implies the two components are the
same formula. The search hands its clauses over as int masks (see
`formula.clause_mask`), and a mask determines its clause's literal set,
so a frozenset of masks is still the clause set itself.

The cache is a plain dict from key to count. Over its byte budget it
drops the oldest stores first, in the dict's insertion order, so a hit
writes nothing.
"""

from __future__ import annotations


def make_key(clauses):
    """The clause set itself, as a frozenset of clause masks.

    A frozenset input is returned as is.
    """
    return frozenset(clauses)


def key_bytes(key):
    # documented size model: per-entry overhead + per-clause + per-literal;
    # a clause mask has one bit per literal
    return 32 + 16 * len(key) + 8 * sum(map(int.bit_count, key))


class ComponentCache:
    """Key -> exact count dict with a byte budget and oldest-first eviction.

    `bytes_used` is the sum of `key_bytes` over the stored keys. Lookup
    relies on dict semantics: hashing narrows, full key equality decides,
    so a hash collision can never return a wrong count.
    """

    def __init__(self, byte_budget):
        if byte_budget <= 0:
            raise ValueError("cache byte budget must be positive")
        self.byte_budget = byte_budget
        self.entries = {}
        self.bytes_used = 0
        self.evictions = 0  # cumulative; clear() keeps it
        # clause tuple -> clause mask for the clauses of the last count
        # (see engine.count); clear() keeps it and bytes_used leaves it out
        self.clause_masks = {}

    def clear(self):
        self.entries.clear()
        self.bytes_used = 0

    def lookup(self, key):
        """Return the stored count or None."""
        return self.entries.get(key)

    def store(self, key, count):
        if key in self.entries:
            return
        size = key_bytes(key)
        if size > self.byte_budget:
            return  # a key that cannot fit is simply not cached
        self.entries[key] = count
        self.bytes_used += size
        if self.bytes_used > self.byte_budget:
            self.evict()

    def evict(self):
        """Drop the oldest entries until usage is at most 0.8 * budget."""
        target = int(self.byte_budget * 0.8)
        for key in list(self.entries):
            if self.bytes_used <= target:
                break
            del self.entries[key]
            self.bytes_used -= key_bytes(key)
            self.evictions += 1

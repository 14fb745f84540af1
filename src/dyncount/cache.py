"""Persistent component cache with explicit keys and symmetry canonicalization.

A cache key is always the component's own clause list (never indices into
a global formula), so a key collision implies the two components are the
same formula. In symmetry mode every key is built from the clause list
renamed through a frequency-derived literal permutation, so isomorphic
components collide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain


def frequency_profile(clauses):
    """Per-variable literal pair ordered by increasing clause-occurrence count.

    Returns {var: (first_literal, first_count, second_count)}. On a count
    tie the negative literal comes first.
    """
    counts = Counter(chain.from_iterable(clauses))
    profile = {}
    for l in counts:
        v = abs(l)
        if v not in profile:
            pos = counts.get(v, 0)
            neg = counts.get(-v, 0)
            profile[v] = (v, pos, neg) if pos < neg else (-v, neg, pos)
    return profile


def sort_profile(profile):
    """Order the pairs by (first count, second count), ties by variable id.

    Returns a list of (variable, first_literal).
    """
    order = sorted([(p[1], p[2], v) for v, p in profile.items()])
    return [(v, profile[v][0]) for _, _, v in order]


def build_renaming(ordered_pairs):
    """Literal permutation from the sorted profile.

    The first literal of the pair at position i maps to the negative
    literal of variable i; complements follow, so the map is stable.
    """
    sigma = {}
    for i, (_, first) in enumerate(ordered_pairs, 1):
        sigma[first] = -i
        sigma[-first] = i
    return sigma


def canonicalize(clauses):
    """Quasi-canonical key: apply the frequency renaming and renormalize.

    Returns (key, sigma). The key's formula has the same model count as
    the input; under frequency-profile ties the form is only
    quasi-canonical, which costs hits but never soundness.
    """
    sigma = build_renaming(sort_profile(frequency_profile(clauses)))
    # the native sort puts -l before l; the stable sort by abs then gives
    # the lit_key order of normalize_clause, tautological clauses included
    rename = sigma.__getitem__
    renamed = {tuple(sorted(sorted(map(rename, c)), key=abs)) for c in clauses}
    return tuple(sorted(renamed)), sigma


def make_key(clauses, symmetry=False):
    """The clause set as a tuple of clauses in native tuple order."""
    if symmetry:
        return canonicalize(clauses)[0]
    return tuple(sorted(clauses))


def key_bytes(key):
    # documented size model: per-entry overhead + per-clause + per-literal
    return 32 + 16 * len(key) + 8 * sum(len(c) for c in key)


@dataclass
class CacheEntry:
    count: int
    byte_size: int
    hits: int = 0
    created_seq: int = 0
    last_touched_revision: int = 0


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
        self.revision = 0
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
        entry.last_touched_revision = self.revision
        return entry.count

    def store(self, key, count):
        if key in self.entries:
            return
        size = key_bytes(key)
        if size > self.byte_budget:
            return  # a key that cannot fit is simply not cached
        self._seq += 1
        self.entries[key] = CacheEntry(count, size, 0, self._seq, self.revision)
        self.bytes_used += size
        if self.bytes_used > self.byte_budget:
            self.evict()

    def evict(self):
        """Drop lowest hits/age entries until usage is at most 0.8 * budget."""
        target = int(self.byte_budget * 0.8)

        def score(item):
            entry = item[1]
            age = max(1, self.revision - entry.last_touched_revision + 1)
            return (entry.hits / age, entry.created_seq)

        for key, entry in sorted(self.entries.items(), key=score):
            if self.bytes_used <= target:
                break
            del self.entries[key]
            self.bytes_used -= entry.byte_size
            self.evictions += 1

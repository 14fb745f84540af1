"""Search-based exact counter: propagation, decomposition, cache, branching."""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .cache import make_key
# vars_of is no longer called here; the benchmark's tracer wraps it by
# this module's name, so the name stays
from .formula import (SlotRecord, clause_mask, decompose_components, even_bits,
                      negate, vars_of)
from .heuristics import select_branch_variable

NO_SHARED = "no_shared"
SHARED = "shared"
CACHE_MODES = (NO_SHARED, SHARED)

TAUTOLOGY = -1  # the mask `ComponentCache.clause_masks` keeps for a tautology


class EngineConfig(SlotRecord):
    # heuristic accepts only "dlcs" and td_mode only "off"; both are kept
    # because the benchmark runner reads and sets them
    __slots__ = ("cache_mode", "heuristic", "td_mode", "cache_byte_budget")

    def __init__(self, cache_mode=SHARED, heuristic="dlcs", td_mode="off",
                 cache_byte_budget=512 * 1024 * 1024):
        if cache_mode not in CACHE_MODES:
            raise ValueError("unknown cache mode %r" % cache_mode)
        if heuristic != "dlcs":
            raise ValueError("unknown heuristic %r" % heuristic)
        if td_mode != "off":
            raise ValueError("unknown td mode %r" % td_mode)
        if cache_byte_budget <= 0:
            raise ValueError("cache byte budget must be positive")
        self.cache_mode = cache_mode
        self.heuristic = heuristic
        self.td_mode = td_mode
        self.cache_byte_budget = cache_byte_budget


class SearchStats(SlotRecord):
    __slots__ = ("decisions", "propagations", "conflicts", "positive_hits",
                 "negative_hits")

    def __init__(self, decisions=0, propagations=0, conflicts=0,
                 positive_hits=0, negative_hits=0):
        self.decisions = decisions
        self.propagations = propagations
        self.conflicts = conflicts
        self.positive_hits = positive_hits
        self.negative_hits = negative_hits

    def merge(self, other):
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.positive_hits += other.positive_hits
        self.negative_hits += other.negative_hits


class CountResult(NamedTuple):
    count: int
    stats: SearchStats


def unit_propagate(clauses, assignment):
    """Condition clause masks on an assignment and propagate units to fixpoint.

    `assignment` is the mask of the literals made true. Returns (residual
    clause masks, extended assignment mask) on success, or (None, the
    assignment extended by the rounds before the conflict) on conflict.

    Each round tests the clauses against the literals made true and made
    false by the previous round's units (the first round: by the incoming
    assignment); a clause that meets neither passes through unchanged.
    A clause c is satisfied if `c & true`, loses its false literals as
    `c & ~false`, and is a unit if `c & (c - 1)` is 0.
    A round's units are never assigned already, and a round that conflicts
    adds none of its units, so on success and on conflict alike the number
    of propagated literals is the extended mask's `bit_count()` minus
    `assignment.bit_count()`.
    """
    true = assignment
    pending = clauses
    while True:
        false = negate(true)
        touched = true | false
        keep = ~false
        reduced = []
        units = 0
        for c in pending:
            if c & touched:
                if c & true:
                    continue
                c &= keep
                if not c:
                    return None, assignment
            if c & (c - 1):
                reduced.append(c)
            else:
                units |= c
        if not units:
            return reduced, assignment
        if units & negate(units):
            return None, assignment
        assignment |= units
        true = units
        pending = reduced


class _Search:
    """One count over a fixed state; owns the per-count statistics."""

    def __init__(self, cache):
        self.cache = cache
        self.stats = SearchStats()

    def solve(self, clauses, variables, root=None, key=None):
        """Count clause masks over exactly the variables of mask `variables`.

        `variables` has both literal bits of each variable set, and every
        one of them occurs in the clauses or in `root`. Cache lookup, then
        one branch per value of the DLCS pick, propagation, free-variable
        factoring and a split into components. A generator: it yields the
        search of each component and is sent back that component's count;
        it returns the total, which it has stored in the cache. A `key`
        given by the caller has just missed, so it is not looked up again.

        Only the root is given `root`: the mask of the literals it assumes,
        its single branch with no decision. A root that assumes none counts
        its clauses as any component does. A root that assumes literals
        counts its clauses conjoined with them, which is not the count of
        its clause set, so its key is neither looked up nor stored.
        """
        if key is None and not root:
            key = make_key(clauses)
            hit = self.cache.lookup(key)
            if hit is not None:
                self.stats.positive_hits += 1
                return hit
            self.stats.negative_hits += 1
        if root is not None:
            decisions = (root,)
        else:
            v = select_branch_variable(clauses)
            self.stats.decisions += 1
            decisions = (1 << 2 * v + 1, 1 << 2 * v)
        total = 0
        for decision in decisions:
            residual, assignment = unit_propagate(clauses, decision)
            self.stats.propagations += (assignment.bit_count()
                                        - decision.bit_count())
            if residual is None:
                self.stats.conflicts += 1
                continue
            comps = decompose_components(residual)
            free_bits = variables.bit_count() - 2 * assignment.bit_count()
            for comp in comps:
                free_bits -= comp.variables.bit_count()
            # a root that propagation leaves unit-free and connected is its
            # own one component, whose key has just missed
            known = key if root == 0 and not assignment and len(comps) == 1 else None
            branch = 1 << (free_bits >> 1)
            for comp in comps:
                branch *= yield self.solve(comp.clauses, comp.variables, key=known)
            total += branch
        if key is not None:
            self.cache.store(key, total)
        return total


def _sync_clause_masks(masks, clauses):
    """Make the clause -> mask dict `masks` cover exactly `clauses`.

    Only clauses added since the last sync are encoded; removed ones are
    dropped. Returns the added clauses and the masks of the removed ones.
    """
    removed = [masks.pop(c) for c in masks.keys() - clauses]
    added = clauses.difference(masks)
    for c in added:
        m = clause_mask(c)
        # a tautology has both bits of some variable set
        masks[c] = TAUTOLOGY if m & m >> 1 & even_bits(m.bit_length()) else m
    return added, removed


def _run(search, clauses, variables, root):
    """Run `search.solve` from the root on an explicit stack of generators."""
    stack = [search.solve(clauses, variables, root)]
    sent = None
    while stack:
        try:
            child = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            sent = done.value
        else:
            stack.append(child)
            sent = None
    return sent


def count(state, config, cache, base=None):
    """Exact model count of the state over its active variables.

    In no-shared mode the cache is cleared first; in shared mode it is
    reused and extended. Deterministic for fixed inputs and cache content.
    Each clause is encoded as an int mask (`clause_mask`) once, when a
    count first sees it: `cache.clause_masks` keeps the masks between
    counts, and each count syncs it with `state.clauses` by set
    difference, so however the clauses changed, only the added ones are
    encoded. Propagation, the component split, branching and cache keys
    all work on those masks; their cost grows with the highest variable
    index.

    `base` is (count, active variables) of the last count made with this
    cache, or None. In shared mode, when exactly one clause c that is
    neither empty nor a tautology changed since then, and the active
    variables did not, the count is a delta count: one search of the
    clauses without c under the assumption not-c. If c was removed, the
    count is the base plus that search's count, since
    #(F - c) = #F + #((F - c) and not-c); if c was added, it is the base
    minus it, since #(F and c) = #F - #(F and not-c). Every other count
    is full. A delta count's stats are those of its one search.
    The search runs on an explicit stack of `_Search.solve` generators, so
    its depth is bounded by memory, not by the interpreter's recursion limit.
    """
    if config.cache_mode == NO_SHARED:
        cache.clear()
    added, removed = _sync_clause_masks(cache.clause_masks, state.clauses)
    root = frozenset(cache.clause_masks.values())
    if TAUTOLOGY in root:
        root -= {TAUTOLOGY}
    if 0 in root:
        return CountResult(0, SearchStats())
    changed = 0  # the mask of the one changed clause of a delta count
    if (base is not None and config.cache_mode == SHARED
            and len(added) + len(removed) == 1
            and base[1] == state.active_vars):
        (m,) = removed or [cache.clause_masks[c] for c in added]
        if m > 0:  # neither the empty clause (0) nor a tautology (-1)
            changed = m
            if added:
                root -= {m}
    variables = reduce(or_, root, changed)
    variables |= negate(variables)
    free_global = len(state.active_vars) - (variables.bit_count() >> 1)
    search = _Search(cache)
    if not variables:
        return CountResult(1 << free_global, search.stats)
    value = _run(search, root, variables, negate(changed)) << free_global
    if changed:
        value = base[0] - value if added else base[0] + value
    return CountResult(value, search.stats)

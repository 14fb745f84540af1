"""Search-based exact counter: propagation, decomposition, cache, branching."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .cache import make_key
# vars_of is no longer called here; the benchmark's tracer wraps it by
# this module's name, so the name stays
from .formula import (clause_mask, decompose_components, even_bits, negate,
                      vars_of)
from .heuristics import select_branch_variable

NO_SHARED = "no_shared"
SHARED = "shared"
CACHE_MODES = (NO_SHARED, SHARED)

TAUTOLOGY = -1  # the mask `ComponentCache.clause_masks` keeps for a tautology


class ResourceLimitError(RuntimeError):
    """Configured time budget exceeded during a count."""


@dataclass
class EngineConfig:
    cache_mode: str = SHARED
    # heuristic accepts only "dlcs" and td_mode only "off"; both are kept
    # because the benchmark runner reads and sets them
    heuristic: str = "dlcs"
    td_mode: str = "off"
    cache_byte_budget: int = 512 * 1024 * 1024
    time_budget: float | None = None   # seconds per count, None = unlimited

    def __post_init__(self):
        if self.cache_mode not in CACHE_MODES:
            raise ValueError("unknown cache mode %r" % self.cache_mode)
        if self.heuristic != "dlcs":
            raise ValueError("unknown heuristic %r" % self.heuristic)
        if self.td_mode != "off":
            raise ValueError("unknown td mode %r" % self.td_mode)
        if self.cache_byte_budget <= 0:
            raise ValueError("cache byte budget must be positive")


@dataclass
class SearchStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    positive_hits: int = 0
    negative_hits: int = 0

    def merge(self, other):
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.positive_hits += other.positive_hits
        self.negative_hits += other.negative_hits


@dataclass
class CountResult:
    count: int
    stats: SearchStats


def unit_propagate(clauses, assignment, stats=None, check_budget=None):
    """Condition clause masks on an assignment and propagate units to fixpoint.

    `assignment` is the mask of the literals made true. Returns (residual
    clause masks, extended assignment mask) on success or (None,
    assignment) on conflict.

    Each round tests the clauses against the literals made true and made
    false by the previous round's units (the first round: by the incoming
    assignment); a clause that meets neither passes through unchanged.
    A clause c is satisfied if `c & true`, loses its false literals as
    `c & ~false`, and is a unit if `c & (c - 1)` is 0.
    `check_budget`, if given, is called once per round.
    """
    true = assignment
    pending = clauses
    while True:
        if check_budget is not None:
            check_budget()
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
        if stats is not None:
            stats.propagations += units.bit_count()
        true = units
        pending = reduced


class _Search:
    """One count over a fixed state; owns the per-count statistics."""

    def __init__(self, config, cache):
        self.cache = cache
        self.stats = SearchStats()
        self.deadline = None
        if config.time_budget is not None:
            self.deadline = time.monotonic() + config.time_budget
        self._tick = 0

    def _check_budget(self):
        self._tick += 1
        if self.deadline is not None and self._tick % 256 == 0:
            if time.monotonic() > self.deadline:
                raise ResourceLimitError("count exceeded the configured time budget")

    def solve(self, clauses, variables, root=False, key=None):
        """Count clause masks over exactly the variables of mask `variables`.

        `variables` has both literal bits of each variable set, and every
        one of them occurs in the clauses. Cache lookup, then one branch
        per value of the DLCS pick (the root takes a single branch
        with no decision), propagation, free-variable factoring and a split
        into components. A generator: it yields the search of each
        component and is sent back that component's count; it returns the
        total, which it has stored in the cache. A `key` given by the
        caller has just missed, so it is not looked up again.
        """
        if key is None:
            key = make_key(clauses)
            hit = self.cache.lookup(key)
            if hit is not None:
                self.stats.positive_hits += 1
                return hit
            self.stats.negative_hits += 1
        if root:
            decisions = (0,)
        else:
            v = select_branch_variable(clauses)
            self.stats.decisions += 1
            decisions = (1 << 2 * v + 1, 1 << 2 * v)
        total = 0
        for decision in decisions:
            residual, assignment = unit_propagate(
                clauses, decision, self.stats, self._check_budget)
            if residual is None:
                self.stats.conflicts += 1
                continue
            comps = decompose_components(residual)
            free_bits = variables.bit_count() - 2 * assignment.bit_count()
            for comp in comps:
                free_bits -= comp.variables.bit_count()
            # a root that propagation leaves unit-free and connected is its
            # own one component, whose key has just missed
            known = key if root and not assignment and len(comps) == 1 else None
            branch = 1 << (free_bits >> 1)
            for comp in comps:
                branch *= yield self.solve(comp.clauses, comp.variables, key=known)
            total += branch
        self.cache.store(key, total)
        return total


def _sync_clause_masks(masks, clauses):
    """Make the clause -> mask dict `masks` cover exactly `clauses`.

    Only clauses added since the last sync are encoded; removed ones are
    dropped.
    """
    for c in masks.keys() - clauses:
        del masks[c]
    for c in clauses.difference(masks):
        m = clause_mask(c)
        # a tautology has both bits of some variable set
        masks[c] = TAUTOLOGY if m & m >> 1 & even_bits(m.bit_length()) else m


def count(state, config, cache):
    """Exact model count of the state over its active variables.

    In no-shared mode the cache is cleared first; in shared mode it is
    reused and extended. Each count advances the cache's epoch, the unit
    in which entry age is measured. Deterministic for fixed inputs and
    cache content.
    Each clause is encoded as an int mask (`clause_mask`) once, when a
    count first sees it: `cache.clause_masks` keeps the masks between
    counts, and each count syncs it with `state.clauses` by set
    difference, so however the clauses changed, only the added ones are
    encoded. Propagation, the component split, branching and cache keys
    all work on those masks; their cost grows with the highest variable
    index.
    The search runs on an explicit stack of `_Search.solve` generators, so
    its depth is bounded by memory, not by the interpreter's recursion limit.
    """
    if config.cache_mode == NO_SHARED:
        cache.clear()
    cache.epoch += 1
    _sync_clause_masks(cache.clause_masks, state.clauses)
    root = frozenset(cache.clause_masks.values())
    if TAUTOLOGY in root:
        root -= {TAUTOLOGY}
    if 0 in root:
        return CountResult(0, SearchStats())
    variables = reduce(or_, root, 0)
    variables |= negate(variables)
    free_global = len(state.active_vars) - (variables.bit_count() >> 1)
    search = _Search(config, cache)
    if not root:
        return CountResult(1 << free_global, search.stats)
    stack = [search.solve(root, variables, root=True)]
    sent = None
    while stack:
        try:
            child = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            sent = done.value
        else:
            search._check_budget()
            stack.append(child)
            sent = None
    return CountResult(sent << free_global, search.stats)

"""Search-based exact counter: propagation, decomposition, cache, branching."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cache import make_key
from .formula import decompose_components, is_tautology, vars_of
from .heuristics import record_conflict, select_branch_variable

NO_SHARED = "no_shared"
SHARED = "shared"
SHARED_SYM = "shared_sym"
CACHE_MODES = (NO_SHARED, SHARED, SHARED_SYM)


class ResourceLimitError(RuntimeError):
    """Configured time budget exceeded during a count."""


@dataclass
class EngineConfig:
    cache_mode: str = SHARED_SYM
    heuristic: str = "dlcs"            # dlcs | vsads
    # only "off" is accepted; kept because the benchmark runner reads and sets it
    td_mode: str = "off"
    cache_byte_budget: int = 512 * 1024 * 1024
    time_budget: float | None = None   # seconds per count, None = unlimited

    def __post_init__(self):
        if self.cache_mode not in CACHE_MODES:
            raise ValueError("unknown cache mode %r" % self.cache_mode)
        if self.heuristic not in ("dlcs", "vsads"):
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
    """Condition on the assignment and propagate units to fixpoint.

    Returns (residual clause set, extended assignment, None) on success or
    (None, assignment, falsified original clause) on conflict. The conflict
    clause is the input clause whose residual became empty, for VSADS.

    Each round tests the clauses against the literals made true and made
    false by the previous round's units (the first round: by the incoming
    assignment); a clause that meets neither passes through unchanged.
    `check_budget`, if given, is called once per round.
    """
    assignment = dict(assignment)
    true = {v if val else -v for v, val in assignment.items()}
    pending = [(c, c) for c in clauses]
    while True:
        if check_budget is not None:
            check_budget()
        false = {-l for l in true}
        touched = true | false
        reduced = []
        units = set()
        for pair in pending:
            cur = pair[1]
            if touched.isdisjoint(cur):
                if len(cur) > 1:
                    reduced.append(pair)
                    continue
            elif true.isdisjoint(cur):
                cur = tuple([l for l in cur if l not in false])
                if len(cur) > 1:
                    reduced.append((pair[0], cur))
                    continue
            else:
                continue
            if not cur or -cur[0] in units:
                return None, assignment, pair[0]
            units.add(cur[0])
        if not units:
            return {cur for _, cur in reduced}, assignment, None
        for l in units:
            assignment[abs(l)] = l > 0
        if stats is not None:
            stats.propagations += len(units)
        true = units
        pending = reduced


class _Search:
    """One count over a fixed state; owns the per-count statistics."""

    def __init__(self, config, cache, conflicts):
        self.config = config
        self.cache = cache
        self.conflicts = conflicts if conflicts is not None else {}
        self.sym = config.cache_mode == SHARED_SYM
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
        """Count `clauses` over exactly `variables` (all occurring in them).

        Cache lookup, then one branch per value of the heuristic's pick (the
        root takes a single branch with no decision), propagation, free-variable
        factoring and a split into components. A generator: it yields the
        search of each component and is sent back that component's count; it
        returns the total, which it has stored in the cache. A `key` given
        by the caller has just missed, so it is not looked up again.
        """
        if key is None:
            key = make_key(clauses, self.sym)
            hit = self.cache.lookup(key)
            if hit is not None:
                self.stats.positive_hits += 1
                return hit
            self.stats.negative_hits += 1
        if root:
            decisions = ({},)
        else:
            v = select_branch_variable(clauses, self.config.heuristic,
                                       self.conflicts)
            self.stats.decisions += 1
            decisions = ({v: True}, {v: False})
        total = 0
        for decision in decisions:
            residual, assignment, conflict = unit_propagate(
                clauses, decision, self.stats, self._check_budget)
            if conflict is not None:
                record_conflict(self.conflicts, conflict)
                self.stats.conflicts += 1
                continue
            comps = decompose_components(residual)
            free = (len(variables) - len(assignment)
                    - sum(len(comp.variables) for comp in comps))
            # a root that propagation leaves unit-free and connected is its
            # own one component, whose key has just missed
            known = key if root and not assignment and len(comps) == 1 else None
            branch = 1 << free
            for comp in comps:
                branch *= yield self.solve(comp.clauses, comp.variables, key=known)
            total += branch
        self.cache.store(key, total)
        return total


def count(state, config, cache, conflicts=None):
    """Exact model count of the state over its active variables.

    In no-shared mode the cache is cleared first; in shared modes it is
    reused and extended. Deterministic for fixed inputs and cache content.
    The search runs on an explicit stack of `_Search.solve` generators, so
    its depth is bounded by memory, not by the interpreter's recursion limit.
    """
    if config.cache_mode == NO_SHARED:
        cache.clear()
    cache.revision = state.revision
    clauses = {c for c in state.clauses if not is_tautology(c)}
    if () in clauses:
        return CountResult(0, SearchStats())
    occurring = vars_of(clauses)
    free_global = len(state.active_vars) - len(occurring)
    search = _Search(config, cache, conflicts)
    if not clauses:
        return CountResult(1 << free_global, search.stats)
    stack = [search.solve(frozenset(clauses), occurring, root=True)]
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

"""Shared generators for the randomized suites."""

import random
from itertools import combinations

from dyncount import (ArgumentationFramework, EngineConfig, FormulaState,
                      Session, normalize_clause)
from dyncount.argumentation import BRUTE_FORCE_ARG_LIMIT
from dyncount.dimacs import DimacsError
from dyncount.formula import clause_mask, sort_clauses
from dyncount.heuristics import TreeDecomposition

ALL_CONFIGS = [EngineConfig(cache_mode=mode) for mode in ("no_shared", "shared")]


def random_cnf(rng, n_vars, n_clauses, max_len=3):
    clauses = set()
    guard = 0
    while len(clauses) < n_clauses and guard < 50 * n_clauses:
        guard += 1
        length = rng.randint(1, min(max_len, n_vars))
        vs = rng.sample(range(1, n_vars + 1), length)
        clauses.add(normalize_clause(
            [v if rng.random() < 0.5 else -v for v in vs]))
    return FormulaState(set(range(1, n_vars + 1)), clauses)


def random_3cnf(rng, n_vars, n_clauses):
    clauses = set()
    while len(clauses) < n_clauses:
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.add(normalize_clause(
            [v if rng.random() < 0.5 else -v for v in vs]))
    return FormulaState(set(range(1, n_vars + 1)), clauses)


def random_af(rng, max_args=12):
    n = rng.randint(1, max_args)
    args = frozenset(range(1, n + 1))
    density = rng.uniform(0.0, 2.5)
    attacks = set()
    target = int(density * n)
    for _ in range(target):
        attacks.add((rng.randint(1, n), rng.randint(1, n)))
    return ArgumentationFramework(args, frozenset(attacks))


def session_for(config, state=None):
    session = Session(EngineConfig(cache_mode=config.cache_mode,
                                   cache_byte_budget=config.cache_byte_budget))
    if state is not None:
        session.state = state.copy()
    return session


EXAMPLE1 = [[1, 2, 3], [-1, -2, -3], [4, -1], [5, 1], [5, 2, 3], [4, -2, -3]]


def example1_state():
    return FormulaState(set(range(1, 6)),
                        {normalize_clause(c) for c in EXAMPLE1})


def write_dimacs(state):
    """DIMACS text of a state, clauses in sorted order; the inverse of
    `state_from_dimacs` when the active variables are 1..max."""
    n_vars = max(state.active_vars, default=0)
    clauses = sort_clauses(state.clauses)
    lines = ["p cnf %d %d" % (n_vars, len(clauses))]
    for c in clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"


def reference_parse_dimacs(text):
    """Token-by-token DIMACS parser, the reference for `parse_dimacs`.

    The same results and the same errors, found one literal at a time.
    """
    n_vars = None
    n_clauses = None
    clauses = []
    current = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise DimacsError("duplicate header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("expected 'p cnf <nVars> <nClauses>'", line_no)
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("non-integer header fields", line_no) from None
            if n_vars < 0 or n_clauses < 0:
                raise DimacsError("negative header fields", line_no)
            continue
        if n_vars is None:
            raise DimacsError("clause before header", line_no)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError("bad token %r" % tok, line_no) from None
            if lit == 0:
                clauses.append(normalize_clause(current))
                current = []
            else:
                if abs(lit) > n_vars:
                    raise DimacsError("literal %d exceeds header" % lit, line_no)
                current.append(lit)
    if current:
        raise DimacsError("unterminated clause at end of file")
    if n_vars is None:
        raise DimacsError("missing header")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise DimacsError("header announced %d clauses, found %d"
                          % (n_clauses, len(clauses)))
    return n_vars, clauses


def condition(clauses, assignment):
    """Residual clause set under a partial assignment (variable -> bool).

    Satisfied clauses vanish, falsified literals are dropped; an empty
    tuple in the result signals a conflict.
    """
    out = set()
    for c in clauses:
        keep = []
        sat = False
        for l in c:
            val = assignment.get(abs(l))
            if val is None:
                keep.append(l)
            elif (l > 0) == val:
                sat = True
                break
        if not sat:
            out.add(tuple(keep))
    return out


def is_tautology(clause):
    seen = set(clause)
    return any(-l in seen for l in clause)


def dlcs_score(clauses, v):
    """Number of clause tuples containing v in either polarity.

    The scalar definition that select_branch_variable computes for all
    variables at once.
    """
    return sum(1 for c in clauses if v in c or -v in c)


def mask_clause(mask):
    """Inverse of clause_mask: the normalized clause tuple of a mask."""
    lits = []
    while mask:
        low = mask & -mask
        bit = low.bit_length() - 1
        lits.append(bit >> 1 if bit & 1 else -(bit >> 1))
        mask ^= low
    return tuple(lits)


def masks(clauses):
    """Clause tuples as the clause masks the search layers take."""
    return frozenset(map(clause_mask, clauses))


def clauses_of(clause_masks):
    """Clause masks back as the set of clause tuples."""
    return set(map(mask_clause, clause_masks))


def var_set(variables):
    """The variables of a variable mask (both literal bits per variable)."""
    return {abs(l) for l in mask_clause(variables)}


def reference_tree_decomposition(graph):
    """Greedy min-fill that rescores every remaining vertex at every step.

    The rule compute_tree_decomposition keeps up to date incrementally:
    eliminate the vertex of least (fill, vertex); its bag is the vertex
    plus its neighbours and hangs below the bag of the neighbour
    eliminated first, or else below the next bag.
    """
    adj = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    n = len(adj)
    if n == 0:
        return TreeDecomposition([frozenset()], [], 0)

    remaining = {v: set(ns) for v, ns in adj.items()}
    bags = []
    elim_vertex = []
    elim_index = {}
    for step in range(n):
        best = None
        best_fill = None
        for v in sorted(remaining):
            ns = sorted(remaining[v])
            fill = 0
            for i, a in enumerate(ns):
                for b in ns[i + 1:]:
                    if b not in remaining[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        ns = remaining.pop(best)
        bags.append(frozenset({best} | ns))
        elim_vertex.append(best)
        elim_index[best] = step
        for a in ns:
            remaining[a].discard(best)
            remaining[a] |= ns - {a}

    parent = [None] * n
    for i, bag in enumerate(bags):
        rest = bag - {elim_vertex[i]}
        if rest:
            parent[i] = min(elim_index[u] for u in rest)
        elif i + 1 < n:
            parent[i] = i + 1

    edges = [(i, p) for i, p in enumerate(parent) if p is not None]
    width = max((len(b) for b in bags), default=1) - 1
    return TreeDecomposition(bags, edges, max(width, 0))


def is_complete_extension(af, subset, attackers=None):
    """Set-based check of one subset, the reference for the bitmask oracle."""
    attackers = attackers or af.attackers_of()
    for b, a in af.attacks:
        if b in subset and a in subset:
            return False
    defended = set()
    for a in af.arguments:
        if all(any((c, b) in af.attacks for c in subset) for b in attackers[a]):
            defended.add(a)
    return defended == set(subset)


def reference_complete_count(af):
    """Complete extensions counted subset by subset with is_complete_extension.

    The set-based form that enumerate_complete_bruteforce computes over
    bitmasks.
    """
    args = sorted(af.arguments)
    if len(args) > BRUTE_FORCE_ARG_LIMIT:
        raise ValueError("%d arguments exceed the guard of %d"
                         % (len(args), BRUTE_FORCE_ARG_LIMIT))
    attackers = af.attackers_of()
    count = 0
    for r in range(len(args) + 1):
        for subset in combinations(args, r):
            if is_complete_extension(af, set(subset), attackers):
                count += 1
    return count

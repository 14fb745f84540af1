"""CNF primitives: clause normalization, conditioning, component split, counting oracle.

Literals are DIMACS-style signed integers (3 means x3, -3 means not-x3).
A clause is a tuple of literals in normalized order; a clause set uses
Python set semantics over those tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MalformedLiteralError(ValueError):
    """A literal was 0, or not an integer at all."""


class TooManyVariablesError(ValueError):
    """Exhaustive enumeration refused above the variable guard."""


BRUTE_FORCE_VAR_LIMIT = 26


def lit_key(lit):
    """Total order on literals: by variable, negative polarity first."""
    return (abs(lit), lit > 0)


def clause_key(clause):
    """Total order on normalized clauses, comparing literal sequences.

    Each literal l becomes the integer 2*|l| + (l > 0), which orders
    literals exactly as lit_key does, so the keys compare in C.
    """
    return tuple([2 * l + 1 if l > 0 else -2 * l for l in clause])


def normalize_clause(raw):
    """Sort + dedup a literal list into the canonical clause tuple.

    The empty clause is legal. A tautological clause (contains l and -l)
    is kept as-is; callers check with is_tautology.
    """
    lits = set()
    for lit in raw:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise MalformedLiteralError("bad literal %r" % (lit,))
        lits.add(lit)
    return tuple(sorted(lits, key=lit_key))


def is_tautology(clause):
    seen = set(clause)
    return any(-l in seen for l in clause)


def clause_vars(clause):
    return {abs(l) for l in clause}


def vars_of(clauses):
    out = set()
    for c in clauses:
        for l in c:
            out.add(abs(l))
    return out


def sort_clauses(clauses):
    return sorted(clauses, key=clause_key)


@dataclass
class FormulaState:
    """Evolving pair of (active variable set, clause set)."""

    active_vars: set = field(default_factory=set)
    clauses: set = field(default_factory=set)

    def copy(self):
        return FormulaState(set(self.active_vars), set(self.clauses))

    def check(self):
        for c in self.clauses:
            for l in c:
                if abs(l) not in self.active_vars:
                    raise ValueError("clause %r uses inactive variable %d" % (c, abs(l)))


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


@dataclass(frozen=True)
class Component:
    """A maximal variable-disjoint group of clauses."""

    clauses: frozenset
    variables: frozenset


def decompose_components(clauses):
    """Partition clauses into variable-connected groups, ordered by smallest variable.

    One pass over the clauses: each variable points at its group (its
    variables and clauses), and when a clause joins two groups the smaller
    one is merged into the larger.
    """
    if () in clauses:
        raise ValueError("cannot decompose a clause set containing the empty clause")
    group_of = {}
    for c in clauses:
        home = None
        for v in map(abs, c):
            group = group_of.get(v)
            if group is None:
                if home is None:
                    home = ([], [])
                home[0].append(v)
                group_of[v] = home
            elif group is not home:
                if home is None:
                    home = group
                else:
                    if len(group[0]) > len(home[0]):
                        group, home = home, group
                    for u in group[0]:
                        group_of[u] = home
                    home[0].extend(group[0])
                    home[1].extend(group[1])
        home[1].append(c)
    groups = {id(group): group for group in group_of.values()}.values()
    return [Component(frozenset(cl), frozenset(vs))
            for _, vs, cl in sorted([(min(vs), vs, cl) for vs, cl in groups])]


@dataclass(frozen=True)
class PrimalGraph:
    vertices: frozenset
    edges: frozenset  # of (u, v) pairs with u < v

    def adjacency(self):
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def primal_graph(clauses):
    """Graph on variables with an edge per co-occurring pair; isolated vars excluded."""
    vertices = set()
    edges = set()
    for c in clauses:
        vs = sorted(clause_vars(c))
        vertices.update(vs)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                edges.add((u, v))
    return PrimalGraph(frozenset(vertices), frozenset(edges))


def count_truth_table(clauses, variables):
    """Exact model count of `clauses` over `variables` by bit-parallel enumeration.

    Each variable's truth column over all 2^n assignments is one big int;
    clause satisfaction is OR over literal columns, the formula is the AND.
    """
    vs = sorted(variables)
    n = len(vs)
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise TooManyVariablesError("%d variables exceed the guard of %d"
                                    % (n, BRUTE_FORCE_VAR_LIMIT))
    total = 1 << n
    full = (1 << total) - 1
    cols = {}
    for k, v in enumerate(vs):
        half = 1 << k
        x = ((1 << half) - 1) << half  # one period: half zeros then half ones
        width = half << 1
        while width < total:
            x |= x << width
            width <<= 1
        cols[v] = x & full
    acc = full
    for c in clauses:
        m = 0
        for l in c:
            col = cols.get(abs(l))
            if col is None:
                raise ValueError("literal %d outside the counting scope" % l)
            m |= col if l > 0 else full & ~col
        acc &= m
        if not acc:
            return 0
    return acc.bit_count()


def brute_force_count(state):
    """Oracle count of a FormulaState over its active variables."""
    state.check()
    return count_truth_table(state.clauses, state.active_vars)

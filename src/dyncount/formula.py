"""CNF primitives: clause normalization, component split, counting oracle.

Literals are DIMACS-style signed integers (3 means x3, -3 means not-x3).
A clause is a tuple of literals in normalized order; a clause set uses
Python set semantics over those tuples.

Inside a count, the search works on clause masks instead: one int per
clause, with bit 2*|l| + (l > 0) set for each literal l (`clause_mask`).
Variable v owns bits 2v (for -v) and 2v + 1 (for v); a set of variables is
the mask with both bits of each variable set. Mask operations cost time
in proportion to the highest variable index, not to the clause length.
"""

from __future__ import annotations

from typing import NamedTuple


class MalformedLiteralError(ValueError):
    """A literal was 0, or not an integer at all."""


class TooManyVariablesError(ValueError):
    """Exhaustive enumeration refused above the variable guard."""


BRUTE_FORCE_VAR_LIMIT = 26

# The most variables a DIMACS header, or arguments an AF header, may
# declare. Loading a header expands it into a set of that many ints, which
# at this limit takes about 70 MB.
HEADER_LIMIT = 1_000_000


def lit_key(lit):
    """Total order on literals: by variable, negative polarity first."""
    return (abs(lit), lit > 0)


def clause_key(clause):
    """Total order on normalized clauses, comparing literal sequences.

    Each literal l becomes the integer 2*|l| + (l > 0), which orders
    literals exactly as lit_key does, so the keys compare in C.
    """
    return tuple([2 * l + 1 if l > 0 else -2 * l for l in clause])


def clause_mask(clause):
    """The clause as an int: bit 2*|l| + (l > 0) set for each literal l."""
    mask = 0
    for l in clause:
        mask |= 1 << (2 * l + 1 if l > 0 else -2 * l)
    return mask


def even_bits(width):
    """The mask 0b...0101 with every even bit below `width` set.

    Bit 2v is the negative literal of v, so `mask & even_bits(w)` keeps
    the negative literals of a mask of width at most w.
    """
    return ((1 << (width | 1) + 1) - 1) // 3


def negate(mask):
    """The mask of the negations of the literals set in `mask`."""
    even = even_bits(mask.bit_length())
    return (mask & even) << 1 | (mask >> 1) & even


def normalize_clause(raw):
    """Sort + dedup a literal list into the canonical clause tuple.

    The empty clause is legal. A tautological clause (contains l and -l)
    is kept as-is; `engine.count` drops it.
    """
    lits = set()
    for lit in raw:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise MalformedLiteralError("bad literal %r" % (lit,))
        lits.add(lit)
    return tuple(sorted(lits, key=lit_key))


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


class SlotRecord:
    """Base of the mutable records: `==` and repr over the `__slots__` fields.

    As with a dataclass, two records are equal when they are of the same
    class with equal fields, a record is unhashable, and its repr reads
    `Name(field=value, ...)`.
    """

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class FormulaState(SlotRecord):
    """Evolving pair of (active variable set, clause set)."""

    __slots__ = ("active_vars", "clauses")

    def __init__(self, active_vars=None, clauses=None):
        self.active_vars = set() if active_vars is None else active_vars
        self.clauses = set() if clauses is None else clauses

    def copy(self):
        return FormulaState(set(self.active_vars), set(self.clauses))

    def check(self):
        for c in self.clauses:
            for l in c:
                if abs(l) not in self.active_vars:
                    raise ValueError("clause %r uses inactive variable %d" % (c, abs(l)))


class Component(NamedTuple):
    """A maximal variable-disjoint group of clause masks."""

    clauses: frozenset
    variables: int      # both literal bits of each of its variables


def decompose_components(clauses):
    """Partition clause masks into variable-connected groups, ordered by smallest variable.

    A group grows from one clause. Its cover is the mask of both literal
    bits of each of its variables, so a clause shares a variable with the
    group exactly when it meets the cover. Each pass over the clauses
    still left takes in every clause that meets the cover, and the cover
    is closed over partner bits between passes, until a pass takes in none.
    """
    rest = list(clauses)
    groups = []
    while rest:
        cover = rest.pop()
        members = [cover]
        while True:
            cover |= negate(cover)
            left = []
            for c in rest:
                if c & cover:
                    members.append(c)
                    cover |= c
                else:
                    left.append(c)
            if len(left) == len(rest):
                break
            rest = left
        groups.append((cover & -cover, cover, members))
    groups.sort()
    return [Component(frozenset(members), cover) for _, cover, members in groups]


class PrimalGraph(NamedTuple):
    vertices: frozenset
    edges: frozenset  # of (u, v) pairs with u < v


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

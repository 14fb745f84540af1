"""The DLCS branching rule and a min-fill tree decomposition."""

from __future__ import annotations

from dataclasses import dataclass

from .formula import even_bits


def dlcs_score(clauses, v):
    """Number of clause tuples containing v in either polarity.

    The scalar definition that select_branch_variable computes for all
    variables at once.
    """
    return sum(1 for c in clauses if v in c or -v in c)


@dataclass
class TreeDecomposition:
    bags: list                  # list of frozensets of variables
    tree_edges: list            # (child_index, parent_index) pairs
    width: int


def _adjacency_lists(graph):
    return {v: set(ns) for v, ns in graph.adjacency().items()}


def compute_tree_decomposition(graph):
    """Greedy min-fill elimination ordering.

    Tie-breaks everywhere are by smallest variable / bag index so the
    result is deterministic.
    """
    adj = _adjacency_lists(graph)
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

    # child bag attaches to the bag of its earliest-eliminated other vertex;
    # parentless bags chain forward so disconnected graphs still yield one tree
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


def td_valid_for(td, graph):
    """True iff every vertex and every edge of the graph lies inside some bag."""
    covered = set()
    for bag in td.bags:
        covered |= bag
    if not graph.vertices <= covered:
        return False
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return False
    return True


def select_branch_variable(clauses):
    """Argmax of the DLCS score over clause masks; ties go to the smallest variable.

    The DLCS score of v is the number of clauses containing v. Occurrences
    are counted for every literal bit at once, in bit-sliced counters:
    slice i holds bit i of each literal's count, and adding a clause
    ripples a carry up the slices. The two literal counts of each variable
    are then added slice by slice, and the argmax is read from the top
    slice down; of the variables left, the lowest set bit is the smallest.
    """
    ones = twos = fours = 0     # bits 0, 1 and 2 of each literal's count
    higher = []                 # bits 3, 4, ...
    for c in clauses:
        carry = ones & c
        ones ^= c
        if carry:
            c = twos & carry
            twos ^= carry
            if c:
                carry = fours & c
                fours ^= c
                if carry:
                    _increment(higher, carry)
    counts = [ones, twos, fours] + higher
    # per-variable sums land on the even bits (the odd bits add unrelated pairs)
    totals = []
    carry = 0
    for s in counts:
        t = s >> 1
        totals.append(s ^ t ^ carry)
        carry = (s & t) | (carry & (s ^ t))
    totals.append(carry)
    best = even_bits(max(counts).bit_length())
    for s in reversed(totals):
        if best & s:
            best &= s
    return (best & -best).bit_length() - 1 >> 1


def _increment(counts, carry):
    """Add 1 at each bit of `carry` to the bit-sliced counters `counts`."""
    for i, s in enumerate(counts):
        counts[i] = s ^ carry
        carry &= s
        if not carry:
            return
    counts.append(carry)

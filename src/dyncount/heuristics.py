"""The DLCS branching rule and a min-fill tree decomposition.

Min-fill keeps each remaining vertex's fill up to date rather than
rescoring every vertex at every elimination. Eliminating v rescores only
v's neighbours, whose neighbourhoods changed, and lowers by one the fill
of each other vertex adjacent to both ends of a fill edge it adds. On n
vertices of elimination degree at most d that is O(n*d^2) bitset ANDs,
plus one decrement per fill edge and common neighbour, against the
O(n^2*d^2) set probes of rescoring all vertices at each step.
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import even_bits


class TreeDecomposition(NamedTuple):
    bags: list                  # list of frozensets of variables
    tree_edges: list            # (child_index, parent_index) pairs
    width: int


def compute_tree_decomposition(graph):
    """Greedy min-fill elimination ordering, with fills kept up to date.

    Each step eliminates the vertex of least (fill, vertex): the fill of
    v is the number of pairs of its neighbours not yet adjacent, and
    eliminating v joins all such pairs. Its bag is v plus its neighbours,
    and it hangs below the bag of the first of them to be eliminated, or
    else below the next bag, so a disconnected graph still yields one tree.

    Neighbourhoods are int bitsets over the positions of the sorted
    vertices, so position order is vertex order. Fills are computed once,
    at the start. Eliminating v then changes only (a) the neighbourhood,
    and so the fill, of each neighbour of v, which is recomputed; and
    (b) the fill of every other vertex adjacent to both ends of a fill
    edge, which that edge lowers by one. A step costs O(d^2) bitset ANDs
    for degree d, plus one decrement per fill edge and common neighbour;
    the decomposition equals that of rescoring every vertex at every step.
    """
    order = sorted(graph.vertices)
    n = len(order)
    if n == 0:
        return TreeDecomposition([frozenset()], [], 0)
    pos = {v: i for i, v in enumerate(order)}
    adj = [0] * n
    for u, v in graph.edges:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]

    # insertion order is position order, so min() breaks ties to the smallest
    fills = {i: _fill(adj, i) for i in range(n)}
    step_of = [0] * n
    elim_order = []
    neighbours = []
    while fills:
        v = min(fills, key=fills.__getitem__)
        del fills[v]
        ns = adj[v]
        step_of[v] = len(elim_order)
        elim_order.append(v)
        neighbours.append(ns)
        # neighbours of v are rescored below; lower only the vertices outside
        outside = ~(ns | 1 << v)
        for a in _members(ns):
            adj_a = adj[a]
            common_a = adj_a & outside
            # fill edges (a, b) with b > a
            for b in _members(ns & ~adj_a & -2 << a):
                for w in _members(common_a & adj[b]):
                    fills[w] -= 1
        for a in _members(ns):
            adj[a] = (adj[a] | ns) & ~(1 << a | 1 << v)
        for a in _members(ns):
            fills[a] = _fill(adj, a)

    bags = []
    edges = []
    for step, (v, ns) in enumerate(zip(elim_order, neighbours)):
        bags.append(frozenset(order[i] for i in _members(ns | 1 << v)))
        if ns:
            edges.append((step, min(step_of[u] for u in _members(ns))))
        elif step + 1 < n:
            edges.append((step, step + 1))
    width = max(ns.bit_count() for ns in neighbours)
    return TreeDecomposition(bags, edges, width)


def _members(bits):
    """The positions of the set bits of `bits`, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _fill(adj, v):
    """Pairs of v's neighbours that are not adjacent to each other."""
    ns = adj[v]
    d = ns.bit_count()
    links = 0               # twice the edges among the neighbours
    bits = ns               # walked inline, not by _members: the hot loop
    while bits:
        low = bits & -bits
        links += (adj[low.bit_length() - 1] & ns).bit_count()
        bits ^= low
    return d * (d - 1) // 2 - links // 2


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

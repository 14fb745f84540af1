"""Branching heuristics (DLCS, conflict-scaled VSADS) and a min-fill tree decomposition."""

from __future__ import annotations

from dataclasses import dataclass


def dlcs_score(clauses, v):
    """Number of clauses containing v in either polarity."""
    return sum(1 for c in clauses if v in c or -v in c)


def vsads_score(clauses, v, conflicts):
    """DLCS scaled by conflict participation; the +1 keeps fresh variables selectable."""
    return dlcs_score(clauses, v) * (1 + conflicts.get(v, 0))


def record_conflict(conflicts, clause):
    """Credit every variable of the clause that propagated empty."""
    for l in clause:
        v = abs(l)
        conflicts[v] = conflicts.get(v, 0) + 1
    return conflicts


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


def select_branch_variable(clauses, heuristic="dlcs", conflicts=None):
    """Argmax of the base score; ties go to the smallest variable."""
    conflicts = conflicts or {}
    base = {}
    for c in clauses:
        for l in c:
            v = abs(l)
            base[v] = base.get(v, 0) + 1
    if heuristic == "vsads":
        for v in base:
            base[v] *= 1 + conflicts.get(v, 0)
    elif heuristic != "dlcs":
        raise ValueError("unknown heuristic %r" % heuristic)
    return min(base, key=lambda v: (-base[v], v))

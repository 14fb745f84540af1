"""Branching heuristics: DLCS, conflict-scaled VSADS, shared tree decomposition."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


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
    root: int
    width: int
    depth_of: dict              # variable -> min depth of a containing bag
    source_revision: int = 0


def _adjacency_lists(graph):
    return {v: set(ns) for v, ns in graph.adjacency().items()}


def compute_tree_decomposition(graph, source_revision=0):
    """Greedy min-fill elimination ordering, rooted at a centroid bag.

    Tie-breaks everywhere are by smallest variable / bag index so the
    result is deterministic.
    """
    adj = _adjacency_lists(graph)
    n = len(adj)
    if n == 0:
        return TreeDecomposition([frozenset()], [], 0, 0, {}, source_revision)

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

    tree_adj = {i: set() for i in range(n)}
    edges = []
    for i, p in enumerate(parent):
        if p is not None:
            tree_adj[i].add(p)
            tree_adj[p].add(i)
            edges.append((i, p))

    root = _centroid(tree_adj, n)
    depths = _bfs_depths(tree_adj, root)
    depth_of = {}
    for i, bag in enumerate(bags):
        for v in bag:
            d = depth_of.get(v)
            if d is None or depths[i] < d:
                depth_of[v] = depths[i]
    width = max((len(b) for b in bags), default=1) - 1
    return TreeDecomposition(bags, edges, root, max(width, 0), depth_of, source_revision)


def _centroid(tree_adj, n):
    """Node minimizing the largest component left after its removal."""
    order = []
    parent = {0: None}
    stack = [0]
    seen = {0}
    while stack:
        u = stack.pop()
        order.append(u)
        for w in sorted(tree_adj[u]):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                stack.append(w)
    size = {u: 1 for u in range(n)}
    for u in reversed(order):
        if parent[u] is not None:
            size[parent[u]] += size[u]
    best, best_cost = 0, None
    for u in range(n):
        cost = n - size[u]
        for w in tree_adj[u]:
            if w != parent[u]:
                cost = max(cost, size[w])
        if best_cost is None or cost < best_cost or (cost == best_cost and u < best):
            best, best_cost = u, cost
    return best


def _bfs_depths(tree_adj, root):
    depths = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in sorted(tree_adj[u]):
            if w not in depths:
                depths[w] = depths[u] + 1
                queue.append(w)
    return depths


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


HYBRID_WEIGHT = 100


def select_branch_variable(clauses, heuristic="dlcs", conflicts=None, td=None):
    """Argmax of the base score, optionally depth-boosted by a shared decomposition.

    With a decomposition, the composite score is compared as
    base(v)*(D+1) + W*baseMax*(D-depth(v)) over integers, which has the
    same argmax as base(v) + W*baseMax*(D-depth(v))/(D+1). Variables the
    decomposition does not know get depth D (lowest priority).
    """
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

    if td is None:
        return min(base, key=lambda v: (-base[v], v))

    known = [td.depth_of[v] for v in base if v in td.depth_of]
    depth_cap = max(known) if known else 0
    base_max = max(base.values())
    best, best_score = None, None
    for v in sorted(base):
        depth = td.depth_of.get(v, depth_cap)
        score = base[v] * (depth_cap + 1) + HYBRID_WEIGHT * base_max * (depth_cap - depth)
        if best_score is None or score > best_score:
            best, best_score = v, score
    return best

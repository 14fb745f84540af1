"""Measure the treewidth of a formula with a min-fill tree decomposition.

The decomposition is built from the primal graph, as `dyncount td` does.
Removing a clause only deletes edges from that graph, so the old
decomposition still covers the smaller formula.
"""

import random

from dyncount import compute_tree_decomposition, normalize_clause
from dyncount.formula import primal_graph
from dyncount.heuristics import td_valid_for

rng = random.Random(3)
n = 14
clauses = set()
while len(clauses) < 30:
    vs = rng.sample(range(1, n + 1), 3)
    clauses.add(normalize_clause([v if rng.random() < 0.5 else -v for v in vs]))

graph = primal_graph(clauses)
td = compute_tree_decomposition(graph)
print("primal graph: %d vertices, %d edges" % (len(graph.vertices),
                                               len(graph.edges)))
print("decomposition width:", td.width)
print("bags:", len(td.bags))
print("valid:", td_valid_for(td, graph))

smaller = set(clauses)
smaller.discard(sorted(smaller)[0])
print("still valid after a removal:", td_valid_for(td, primal_graph(smaller)))

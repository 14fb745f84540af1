"""Build a shared tree decomposition and use it to steer branching.

The decomposition is computed once from the primal graph and stays valid
as long as updates only remove clauses, so a whole removal sequence can
reuse it.
"""

import random

from dyncount import (EngineConfig, Session, UpdateOp,
                      compute_tree_decomposition, normalize_clause)
from dyncount.formula import FormulaState, primal_graph
from dyncount.heuristics import select_branch_variable, td_valid_for

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

plain = select_branch_variable(clauses)
guided = select_branch_variable(clauses, td=td)
print("dlcs alone picks x%d, depth-guided picks x%d (depth %d)"
      % (plain, guided, td.depth_of[guided]))

# clause removals only delete edges, the old decomposition still covers them
smaller = set(clauses)
smaller.discard(sorted(smaller)[0])
print("still valid after a removal:", td_valid_for(td, primal_graph(smaller)))

# a session with td_mode="shared" wires this in automatically
session = Session(EngineConfig(td_mode="shared", heuristic="vsads"))
session.replace_state(FormulaState(set(range(1, n + 1)), set(clauses)))
print("count with shared decomposition:", session.checkpoint_count())
session.apply_op(UpdateOp("rem_clause", clause=sorted(clauses)[0]))
print("after one removal:", session.checkpoint_count())

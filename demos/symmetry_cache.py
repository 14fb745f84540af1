"""Show the symmetry cache collapsing two symmetric residual formulas.

The two residuals obtained by setting x3 true or false in the demo formula
are syntactically different but isomorphic. With explicit keys they miss
each other in the cache; with canonicalized keys the second count is free.
"""

from dyncount import (EngineConfig, FormulaState, Session, condition,
                      normalize_clause)
from dyncount.cache import canonicalize

CLAUSES = [[1, 2, 3], [-1, -2, -3], [4, -1], [5, 1], [5, 2, 3], [4, -2, -3]]


def state(clauses):
    cs = {normalize_clause(c) for c in clauses}
    return FormulaState({1, 2, 4, 5}, cs)


full = {normalize_clause(c) for c in CLAUSES}
phi_pos = condition(full, {3: True})
phi_neg = condition(full, {3: False})
print("residual for x3=T:", sorted(phi_pos))
print("residual for x3=F:", sorted(phi_neg))

key_pos, _ = canonicalize(phi_pos)
key_neg, _ = canonicalize(phi_neg)
print("canonical keys equal:", key_pos == key_neg)

for mode in ("shared", "shared_sym"):
    session = Session(EngineConfig(cache_mode=mode))
    session.replace_state(state(phi_pos))
    first = session.checkpoint_count()
    session.replace_state(state(phi_neg))
    second = session.checkpoint_count()
    stats = session.last_count_stats
    print("%-10s counts %d/%d, second count: %d decisions, %d positive hits"
          % (mode, first, second, stats.decisions, stats.positive_hits))

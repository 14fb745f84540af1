"""Walk through a small update sequence and watch the count evolve.

Run with: python3 demos/incremental_counting.py
"""

from dyncount import EngineConfig, Session, UpdateBatch, UpdateOp

session = Session(EngineConfig(cache_mode="shared"))

# start with three free variables: 2^3 assignments, nothing constrained yet
for v in (1, 2, 3):
    session.apply_op(UpdateOp.add_var(v))
print("free vars only:", session.checkpoint_count())

session.apply_op(UpdateOp.add_clause([1, 2]))
print("after adding (x1 v x2):", session.checkpoint_count())

session.apply_op(UpdateOp.add_clause([-1, -2]))
print("after adding (-x1 v -x2):", session.checkpoint_count())

# batches are atomic: if any op fails the whole batch rolls back
try:
    session.apply_batch(UpdateBatch([
        UpdateOp.add_var(4),
        UpdateOp.rem_var(1),   # fails, x1 still occurs in clauses
    ]))
except Exception as exc:
    print("batch rejected:", exc)
print("state unchanged, count:", session.checkpoint_count())

session.apply_op(UpdateOp.rem_clause([-1, -2]))
print("after removing (-x1 v -x2):", session.checkpoint_count())

for line in session.stats_lines():
    print(line)

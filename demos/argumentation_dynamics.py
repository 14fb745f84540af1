"""Count complete extensions of an evolving argumentation framework.

A random perturbation stream mutates the framework step by step; every
step re-encodes it to CNF and counts through a shared session, so the
cache carries work across steps.
"""

from dyncount import (ArgumentationFramework, EngineConfig,
                      PerturbationConfig, Session, dynamic_sequence,
                      encode_complete, enumerate_complete_bruteforce)

af = ArgumentationFramework(frozenset(range(1, 6)),
                            frozenset({(1, 2), (2, 1), (3, 4), (5, 3)}))
print("arguments:", sorted(af.arguments))
print("attacks:", sorted(af.attacks))
print("complete extensions:", enumerate_complete_bruteforce(af))

session = Session(EngineConfig(cache_mode="shared"))
session.replace_state(encode_complete(af))
print("engine agrees:", session.checkpoint_count())

config = PerturbationConfig(steps=10, seed=42)
session = Session(EngineConfig(cache_mode="shared"))
for record in dynamic_sequence(af, config, session):
    print("step %2d %-16s args=%2d count=%d"
          % (record.step, record.tag, len(record.af.arguments), record.count))

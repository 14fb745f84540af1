"""Greedy subset-minimal soft-core extraction over an incremental session."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .session import PreconditionError, UpdateOp
from .formula import sort_clauses


@dataclass
class SoftCoreConfig:
    delta: float = 0.20

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError("delta must be a finite number >= 0")


@dataclass
class TrialStep:
    index: int      # position in the deduplicated clause order
    count: int      # model count with the clause removed
    accepted: bool


@dataclass
class SoftCoreResult:
    removed_indices: set
    kept_indices: set
    base_count: int
    final_count: int
    threshold: int
    per_step: list          # TrialStep per trial, in visit order
    clause_order: list      # the deduplicated normalized clauses, by index


def threshold_for(base_count, config):
    """ceil((1 + delta) * base)."""
    factor = 1 + Fraction(config.delta).limit_denominator(10 ** 6)
    scaled = base_count * factor
    return -((-scaled.numerator) // scaled.denominator)


def _ordered_clauses(state, order):
    if order is None:
        return sort_clauses(state.clauses)
    return list(dict.fromkeys(c for c in order if c in state.clauses))


def compute_soft_core(state, config, session, order=None):
    """Single greedy pass: drop each clause whose removal keeps the count
    at or below the threshold, otherwise put it back.

    `order` is the input clause order (duplicates collapse to their first
    occurrence); when omitted the normalized sorted order is used. Every
    intermediate count flows through the session, so the cache is shared
    across the m+1 checkpoints.
    """
    if not state.clauses:
        raise PreconditionError("soft core needs at least one clause")
    session.replace_state(state)
    base = session.checkpoint_count()
    threshold = threshold_for(base, config)
    clauses = _ordered_clauses(state, order)

    removed = set()
    per_step = []
    current = base
    for index, clause in enumerate(clauses, 1):
        session.apply_op(UpdateOp("rem_clause", clause=clause))
        trial = session.checkpoint_count()
        if trial <= threshold:
            removed.add(index)
            current = trial
            per_step.append(TrialStep(index, trial, True))
        else:
            session.apply_op(UpdateOp("add_clause", clause=clause))
            per_step.append(TrialStep(index, trial, False))
    kept = set(range(1, len(clauses) + 1)) - removed
    return SoftCoreResult(removed, kept, base, current, threshold,
                          per_step, clauses)


def verify_soft_core(state, result, config, session_factory=None):
    """Check threshold compliance, replay-exactness and count monotonicity.

    `session_factory` must return a fresh session for the recount and the
    replay so the verification does not depend on prior cache content.
    """
    if session_factory is None:
        from .session import Session
        session_factory = Session
    kept_clauses = {result.clause_order[i - 1] for i in result.kept_indices}
    recount_state = state.copy()
    recount_state.clauses = kept_clauses
    recount_session = session_factory().replace_state(recount_state)
    if recount_session.checkpoint_count() > result.threshold:
        return False

    replay = compute_soft_core(state, config, session_factory(),
                               order=result.clause_order)
    if replay.removed_indices != result.removed_indices:
        return False
    if [s.count for s in replay.per_step] != [s.count for s in result.per_step]:
        return False

    current = result.base_count
    for step in result.per_step:
        if step.accepted:
            if step.count < current:
                return False
            current = step.count
    return True

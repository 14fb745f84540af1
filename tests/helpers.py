"""Shared generators for the randomized suites."""

import random

from dyncount import (ArgumentationFramework, EngineConfig, FormulaState,
                      Session, normalize_clause)
from dyncount.formula import clause_mask, mask_clause

ALL_CONFIGS = [EngineConfig(cache_mode=mode) for mode in ("no_shared", "shared")]


def random_cnf(rng, n_vars, n_clauses, max_len=3):
    clauses = set()
    guard = 0
    while len(clauses) < n_clauses and guard < 50 * n_clauses:
        guard += 1
        length = rng.randint(1, min(max_len, n_vars))
        vs = rng.sample(range(1, n_vars + 1), length)
        clauses.add(normalize_clause(
            [v if rng.random() < 0.5 else -v for v in vs]))
    return FormulaState(set(range(1, n_vars + 1)), clauses)


def random_3cnf(rng, n_vars, n_clauses):
    clauses = set()
    while len(clauses) < n_clauses:
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.add(normalize_clause(
            [v if rng.random() < 0.5 else -v for v in vs]))
    return FormulaState(set(range(1, n_vars + 1)), clauses)


def random_af(rng, max_args=12):
    n = rng.randint(1, max_args)
    args = frozenset(range(1, n + 1))
    density = rng.uniform(0.0, 2.5)
    attacks = set()
    target = int(density * n)
    for _ in range(target):
        attacks.add((rng.randint(1, n), rng.randint(1, n)))
    return ArgumentationFramework(args, frozenset(attacks))


def session_for(config, state=None):
    session = Session(EngineConfig(cache_mode=config.cache_mode,
                                   cache_byte_budget=config.cache_byte_budget))
    if state is not None:
        session.state = state.copy()
    return session


EXAMPLE1 = [[1, 2, 3], [-1, -2, -3], [4, -1], [5, 1], [5, 2, 3], [4, -2, -3]]


def example1_state():
    return FormulaState(set(range(1, 6)),
                        {normalize_clause(c) for c in EXAMPLE1})


def masks(clauses):
    """Clause tuples as the clause masks the search layers take."""
    return frozenset(map(clause_mask, clauses))


def clauses_of(clause_masks):
    """Clause masks back as the set of clause tuples."""
    return set(map(mask_clause, clause_masks))


def var_set(variables):
    """The variables of a variable mask (both literal bits per variable)."""
    return {abs(l) for l in mask_clause(variables)}

"""Property-based oracle checks: every count equals brute_force_count."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dyncount import (ComponentCache, FormulaState, UpdateOp,
                      brute_force_count, count, normalize_clause)

from helpers import ALL_CONFIGS, session_for

# at most 10 active variables, with indices up to 200
ACTIVE = st.sets(st.integers(1, 200), min_size=1, max_size=10)


def clauses_over(active):
    """Clauses of 1 to 4 literals; a unit comes from one literal, and a
    tautology from drawing both polarities of a variable."""
    literal = st.sampled_from(sorted(active)).flatmap(
        lambda v: st.sampled_from([v, -v]))
    return st.lists(literal, min_size=1, max_size=4).map(normalize_clause)


@st.composite
def cnf_states(draw):
    active = draw(ACTIVE)
    clauses = draw(st.sets(clauses_over(active), max_size=14))
    return FormulaState(active, clauses)


@st.composite
def update_sequences(draw):
    """An active set, a start clause set and add/remove ops on it."""
    active = draw(ACTIVE)
    start = draw(st.sets(clauses_over(active), max_size=10))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), clauses_over(active)),
        st.tuples(st.just("rem"), st.integers(0, 1000))), max_size=12))
    return active, start, ops


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cnf_states())
def test_count_matches_oracle(state):
    expected = brute_force_count(state)
    for config in ALL_CONFIGS:
        cache = ComponentCache(config.cache_byte_budget)
        assert count(state, config, cache).count == expected, config


@settings(max_examples=40, deadline=None, derandomize=True)
@given(update_sequences())
def test_update_sequence_counts_match_oracle(sequence):
    active, start, ops = sequence
    for config in ALL_CONFIGS:
        session = session_for(config, FormulaState(set(active), set(start)))
        assert session.checkpoint_count() == brute_force_count(session.state)
        for kind, arg in ops:
            if kind == "add":
                if arg in session.state.clauses:
                    continue
                session.apply_op(UpdateOp.add_clause(arg))
            elif session.state.clauses:
                present = sorted(session.state.clauses)
                session.apply_op(UpdateOp.rem_clause(present[arg % len(present)]))
            assert session.checkpoint_count() == brute_force_count(session.state)

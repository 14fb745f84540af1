"""Property-based checks: every count equals brute_force_count, and the
CLI meets any input file with exit 0 or with exit 2 and an `error:` line;
the only other lines on err are duplicate-clause `warning:` lines."""

import io
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dyncount import (ComponentCache, FormulaState, UpdateOp,
                      brute_force_count, count, normalize_clause)
from dyncount.cli import run

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


# Input files for the CLI: DIMACS texts, AF texts and session scripts over
# at most 8 variables or arguments, mostly well formed, so that they reach
# past the header into the later rules and the counter; a wrong clause
# count in the header now and then, and at most one noise line put in
# anywhere. Every number stays small, so that no header or variable asks
# for a large formula.
NUMBER = st.integers(-3, 9).map(str)
TOKEN = st.one_of(NUMBER, st.sampled_from(
    ["0", "p", "cnf", "af", "c", "#", "x", "-", "1.5", "+3", "-0", "00"]))
NOISE = st.one_of(st.lists(TOKEN, min_size=1, max_size=6).map(" ".join),
                  st.sampled_from(["", "c comment", "# comment", "p cnf 2 1",
                                   "p af 2", "1 0", "0"]))
LOADABLE = "@LOADABLE@"     # replaced by the path of a small DIMACS file
LOADABLE_TEXT = "p cnf 3 2\n1 -2 0\n2 3 0\n"


def literals(n):
    if not n:
        return st.just([])
    return st.lists(st.integers(-n, n).filter(bool), max_size=4)


@st.composite
def dimacs_lines(draw):
    n = draw(st.integers(0, 8))
    clauses = draw(st.lists(literals(n), max_size=10))
    m = len(clauses) if draw(st.integers(0, 3)) else draw(st.integers(0, 12))
    return (["p cnf %d %d" % (n, m)]
            + [" ".join(map(str, [*c, 0])) for c in clauses])


@st.composite
def af_lines(draw):
    n = draw(st.integers(0, 8))
    endpoint = st.integers(1, max(n, 1))
    attacks = draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))
    return ["p af %d" % n] + ["%d %d" % a for a in attacks]


@st.composite
def script_lines(draw):
    n = draw(st.integers(0, 6))
    clause = literals(n).map(lambda c: " ".join(map(str, [*c, 0])))
    command = st.one_of(
        st.tuples(st.sampled_from(["av", "rv"]), NUMBER).map(" ".join),
        st.tuples(st.sampled_from(["ac", "rc"]), clause).map(" ".join),
        st.sampled_from(["count", "stats", "reset", "quit", "load",
                         "load " + LOADABLE, "load absent.cnf"]))
    return (["av %d" % v for v in range(1, n + 1)]
            + draw(st.lists(command, max_size=12)))


@st.composite
def input_texts(draw):
    lines = draw(st.one_of(dimacs_lines(), af_lines(), script_lines()))
    for at, noise in draw(st.lists(st.tuples(st.integers(0, 30), NOISE),
                                   max_size=1)):
        lines.insert(at % (len(lines) + 1), noise)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(input_texts())
def test_cli_input_exits_0_or_2_with_an_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        loadable = os.path.join(tmp, "loadable.cnf")
        with open(loadable, "w") as fh:
            fh.write(LOADABLE_TEXT)
        path = os.path.join(tmp, "input.txt")
        with open(path, "w") as fh:
            fh.write(text.replace(LOADABLE, loadable))
        for command in ("count", "softcore", "af-count", "td", "session"):
            out, err = io.StringIO(), io.StringIO()
            code = run([command, path], out, err)
            assert code in (0, 2), command
            lines = err.getvalue().splitlines()
            if code == 2:
                assert lines[-1].startswith("error: "), command
                lines.pop()
            # a duplicate `ac` in a session script warns on err and goes on
            assert all(line.startswith("warning: clause ")
                       and line.endswith(" already present")
                       for line in lines), command

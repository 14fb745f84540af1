"""Property-based checks: every count equals brute_force_count, a
shared session's counts (delta counts among them) equal fresh no_shared
counts over any sequence of session ops, the
incremental min-fill decomposition equals the rescoring reference,
`parse_dimacs` gives the reference parser's result or error, and the
CLI meets any input file with exit 0 or with exit 2 and an `error:` line;
the only other lines on err are duplicate-clause `warning:` lines."""

import io
import os
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from dyncount import (BatchError, ComponentCache, DuplicateClauseWarning,
                      EngineConfig, FormulaState, PreconditionError, Session,
                      UpdateOp, brute_force_count, compute_tree_decomposition,
                      count, normalize_clause)
from dyncount import dimacs
from dyncount.cli import run
from dyncount.dimacs import DimacsError, parse_dimacs
from dyncount.formula import BRUTE_FORCE_VAR_LIMIT, PrimalGraph

from helpers import (ALL_CONFIGS, reference_parse_dimacs,
                     reference_tree_decomposition, session_for)

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


# A session op: its kind, the literals or the index it acts on, and
# whether a count follows it. Literals are (index, sign) pairs, mapped onto
# the variables active when the op runs; two pairs on one variable with
# opposite signs make a tautology.
SESSION_LITERALS = st.lists(st.tuples(st.integers(0, 50), st.booleans()),
                            min_size=1, max_size=4)
SESSION_OPS = st.tuples(
    st.sampled_from(["add", "add", "rem", "rem", "empty", "add_var", "rem_var",
                     "batch", "replace", "reset", "direct", "direct_var"]),
    SESSION_LITERALS, st.booleans())


def _clause_on(active, literals):
    order = sorted(active)
    return normalize_clause([order[i % len(order)] * (1 if positive else -1)
                             for i, positive in literals])


def _apply_session_op(session, kind, literals):
    state = session.state
    active = state.active_vars
    index = literals[0][0]
    if kind == "add" and active:
        clause = _clause_on(active, literals)
        if clause in state.clauses:
            with pytest.warns(DuplicateClauseWarning):
                session.apply_op(UpdateOp.add_clause(clause))
        else:
            session.apply_op(UpdateOp.add_clause(clause))
    elif kind == "rem" and state.clauses:
        present = sorted(state.clauses)
        session.apply_op(UpdateOp.rem_clause(present[index % len(present)]))
    elif kind == "empty":
        op = UpdateOp.rem_clause if () in state.clauses else UpdateOp.add_clause
        session.apply_op(op([]))
    elif kind == "add_var":
        v = 1 + index % 14
        if v in active:
            with pytest.raises(PreconditionError):
                session.apply_op(UpdateOp.add_var(v))
        else:
            session.apply_op(UpdateOp.add_var(v))
    elif kind == "rem_var" and active:
        v = sorted(active)[index % len(active)]
        if any(v in map(abs, c) for c in state.clauses):
            with pytest.raises(PreconditionError):
                session.apply_op(UpdateOp.rem_var(v))
        else:
            session.apply_op(UpdateOp.rem_var(v))
    elif kind == "batch" and active:
        before = state.copy()
        added = {_clause_on(active, [pair]) for pair in literals}
        ops = [UpdateOp.add_clause(c) for c in sorted(added - state.clauses)]
        if state.clauses:
            ops.append(UpdateOp.rem_clause(min(state.clauses)))
        ops.append(UpdateOp.rem_var(99))  # never active, so the batch fails
        with pytest.raises(BatchError):
            session.apply_batch(ops)
        assert session.state == before
    elif kind == "replace" and active:
        fresh = state.copy()
        fresh.clauses ^= {_clause_on(active, literals)}
        session.replace_state(fresh)
    elif kind == "reset":
        variables = sorted(active)  # reset clears this very set
        session.apply_op(UpdateOp.reset())
        session.apply_batch([UpdateOp.add_var(v) for v in variables])
    elif kind == "direct" and active:
        state.clauses ^= {_clause_on(active, literals)}
    elif kind == "direct_var":
        v = 1 + index % 14
        if v not in active:
            active.add(v)
        elif not any(v in map(abs, c) for c in state.clauses):
            active.remove(v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sets(st.integers(1, 14), min_size=1, max_size=10).flatmap(
    lambda active: st.tuples(st.just(active),
                             st.sets(clauses_over(active), max_size=10))),
       st.lists(SESSION_OPS, max_size=24))
def test_shared_session_counts_match_fresh_counts(start, ops):
    # a shared session makes a delta count after each one-clause change,
    # and a full count otherwise; each must equal a fresh no_shared count
    active, clauses = start
    session = Session(EngineConfig(cache_mode="shared"))
    session.replace_state(FormulaState(set(active), set(clauses)))

    def check():
        value = session.checkpoint_count()
        state = session.state
        fresh = Session(EngineConfig(cache_mode="no_shared"))
        assert value == fresh.replace_state(state).checkpoint_count()
        if len(state.active_vars) <= BRUTE_FORCE_VAR_LIMIT:
            assert value == brute_force_count(state)

    check()
    for kind, literals, then_count in ops:
        _apply_session_op(session, kind, literals)
        if then_count:
            check()
    check()


@st.composite
def graphs(draw):
    """Up to 30 vertices labelled up to 200, isolated ones included; each
    pair is an edge with one drawn probability from 0 to 1."""
    labels = sorted(draw(st.sets(st.integers(1, 200), max_size=30)))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    density = draw(st.integers(0, 8))
    draws = draw(st.lists(st.integers(0, 7), min_size=len(pairs),
                          max_size=len(pairs)))
    edges = [pair for pair, d in zip(pairs, draws) if d < density]
    return PrimalGraph(frozenset(labels), frozenset(edges))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graphs())
def test_tree_decomposition_matches_reference(graph):
    td = compute_tree_decomposition(graph)
    ref = reference_tree_decomposition(graph)
    assert (td.bags, td.tree_edges, td.width) == \
        (ref.bags, ref.tree_edges, ref.width)


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


# DIMACS texts over at most 6 variables. The clauses hold duplicate and
# complementary literals and the empty clause, and their tokens are spread
# over lines: several clauses on one line, one clause over several lines,
# comments and blank lines between. Now and then the header announces the
# wrong clause count, the last 0 is missing, a fault token goes in anywhere
# (which leaves a clause open if it lands after the last 0), and a stray
# line goes in anywhere, the header line included: a second header, a bad
# header, a clause before the header.
FAULT_TOKENS = st.one_of(
    st.sampled_from(["x", "1.5", "-", "0x1", "+3", "-0", "00", "1_0", "0", "c"]),
    st.integers(-9, 9).map(str))
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\n", "\n",
                              " \n\n ", "\nc a comment 1 x\n"])
STRAY_LINES = st.sampled_from(["", "c", "cnf 1 0", "p cnf 3 1", "p cnf 2",
                               "p af 2", "p cnf -1 0", "p cnf x 0", "1 0",
                               "0"])


@st.composite
def dimacs_texts(draw):
    n = draw(st.integers(0, 6))
    clause = (st.lists(st.integers(-n, n).filter(bool), max_size=5) if n
              else st.just([]))
    clauses = draw(st.lists(clause, max_size=8))
    announced = (len(clauses) if draw(st.integers(0, 3))
                 else draw(st.integers(0, 10)))
    tokens = [str(l) for c in clauses for l in (*c, 0)]
    if tokens and not draw(st.integers(0, 5)):
        tokens.pop()
    for at, token in draw(st.lists(st.tuples(st.integers(0, 64), FAULT_TOKENS),
                                   max_size=2)):
        tokens.insert(at % (len(tokens) + 1), token)
    body = "".join(t + draw(SEPARATORS) for t in tokens)
    lines = ["p cnf %d %d" % (n, announced)] + body.split("\n")
    for at, line in draw(st.lists(st.tuples(st.integers(0, 64), STRAY_LINES),
                                  max_size=1)):
        lines.insert(at % (len(lines) + 1), line)
    if not draw(st.integers(0, 15)):
        lines.pop(0)
    return "\n".join(lines)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except DimacsError as exc:
        return "DimacsError", str(exc), exc.line_no


@settings(max_examples=500, deadline=None, derandomize=True)
@given(dimacs_texts())
@example("c first\np cnf 3 2\nc mid\n1 -2 0\n\n3 0\nc last\n")  # comments
@example("p cnf 3 1\n1\n-2\n  3 0\n")                       # a clause over lines
@example("p cnf 3 3\n1 0 -2 3 0 0\n")                       # clauses on one line
@example("p cnf 3 2\n2 1 2 0\n3 -3 1 -1 0\n")               # duplicate, complement
@example("p cnf 1 1\n0\n")                                  # the empty clause
@example("p cnf 2 1\n1 x 0\n")                              # a bad token
@example("p cnf 2 1\n1 -3 0\n")                             # beyond the header
@example("p cnf 2 2\n1 0\n")                                # wrong clause count
@example("p cnf 2 1\n1 0\n2\n")                             # unterminated
@example("p cnf 2 1\n1 0\np cnf 2 1\n")                     # a second header
@example("p cnf 2 2\n1 x 0\np cnf 2 1\n2 0\n")              # faults in file order
@example("p cnf 2 2\n1 0\np cnf 2 1\nx 0\n")
@example("")                                                # no header
@example("1 0\np cnf 1 1\n")                                # clause before header
@example("p cnf -1 0\n")                                    # bad headers
@example("p cnf 1 x\n")
@example("p af 2\n")
def test_parse_dimacs_matches_the_reference(text):
    """Same clauses in the same order, or the same error text and line;
    also when every block of clause lines is a single line or three."""
    expected = parse_outcome(reference_parse_dimacs, text)
    for block_lines in (1, 3, dimacs._BLOCK_LINES):
        with mock.patch.object(dimacs, "_BLOCK_LINES", block_lines):
            assert parse_outcome(parse_dimacs, text) == expected, block_lines

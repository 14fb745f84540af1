import io
import random

import pytest

from dyncount import (BatchError, DuplicateClauseWarning, EngineConfig,
                      FormulaState, PreconditionError, Session, UpdateBatch,
                      UpdateOp, brute_force_count, normalize_clause,
                      run_script)
from dyncount.dimacs import parse_dimacs, state_from_dimacs
from dyncount.session import ClauseNotFoundError, ScriptError

from helpers import (ALL_CONFIGS, EXAMPLE1, example1_state, session_for,
                     write_dimacs)


def loaded_session(config=None):
    session = Session(config or EngineConfig())
    session.state = example1_state()
    return session


def test_add_var_doubles_count():
    session = loaded_session()
    before = session.checkpoint_count()
    session.apply_op(UpdateOp.add_var(6))
    assert session.checkpoint_count() == 2 * before


def test_rem_var_blocked_while_occurring():
    session = loaded_session()
    with pytest.raises(PreconditionError):
        session.apply_op(UpdateOp.rem_var(1))


def test_rem_var_after_clauses_gone():
    session = Session()
    session.apply_op(UpdateOp.add_var(1))
    session.apply_op(UpdateOp.add_clause([1]))
    session.apply_op(UpdateOp.rem_clause([1]))
    session.apply_op(UpdateOp.rem_var(1))
    assert session.state.active_vars == set()


def test_remove_then_add_restores_state():
    session = loaded_session()
    before = session.state.copy()
    session.apply_op(UpdateOp.rem_clause([5, 1]))
    session.apply_op(UpdateOp.add_clause([1, 5]))
    assert session.state.clauses == before.clauses
    assert session.state.active_vars == before.active_vars


def test_duplicate_add_warns_and_keeps_set_semantics():
    session = loaded_session()
    n = len(session.state.clauses)
    with pytest.warns(DuplicateClauseWarning):
        session.apply_op(UpdateOp.add_clause([3, 1, 2]))
    assert len(session.state.clauses) == n


def test_add_clause_needs_active_vars():
    session = Session()
    with pytest.raises(PreconditionError) as info:
        session.apply_op(UpdateOp.add_clause([1]))
    assert str(info.value) == "add_clause (1,): inactive variable 1"
    # of several inactive variables, the smallest is named
    session.apply_op(UpdateOp.add_var(2))
    with pytest.raises(PreconditionError) as info:
        session.apply_op(UpdateOp.add_clause([5, 2, -3]))
    assert str(info.value) == "add_clause (2, -3, 5): inactive variable 3"
    assert session.state.clauses == set()


def test_update_op_repr_equality_and_hash():
    ops = [UpdateOp.add_clause([2, -1, 2]), UpdateOp.rem_clause([3]),
           UpdateOp.add_var("4"), UpdateOp.rem_var(4), UpdateOp.reset(),
           UpdateOp.load("f.cnf")]
    assert [repr(op) for op in ops] == [
        "UpdateOp(kind='add_clause', clause=(-1, 2), var=None, path=None)",
        "UpdateOp(kind='rem_clause', clause=(3,), var=None, path=None)",
        "UpdateOp(kind='add_var', clause=None, var=4, path=None)",
        "UpdateOp(kind='rem_var', clause=None, var=4, path=None)",
        "UpdateOp(kind='reset', clause=None, var=None, path=None)",
        "UpdateOp(kind='load', clause=None, var=None, path='f.cnf')",
    ]
    op = UpdateOp.add_clause([2, 1])
    same = UpdateOp("add_clause", clause=(1, 2))
    assert op == same and hash(op) == hash(same)
    assert hash(op) == hash(("add_clause", (1, 2), None, None))
    assert op != UpdateOp.rem_clause([1, 2])
    assert UpdateOp.add_var(1) != UpdateOp.rem_var(1)
    assert len({op, same, UpdateOp.add_var(1), UpdateOp.add_var(1)}) == 2
    with pytest.raises(AttributeError):
        op.kind = "rem_clause"


def test_rem_clause_not_found():
    session = loaded_session()
    with pytest.raises(ClauseNotFoundError):
        session.apply_op(UpdateOp.rem_clause([1, 2]))


def test_replace_state_rejects_inactive_variable():
    session = loaded_session()
    before = session.state.copy()
    bad = FormulaState({1, 2}, {normalize_clause([1, 3])})
    with pytest.raises(PreconditionError) as info:
        session.replace_state(bad)
    assert str(info.value) == \
        "replace_state: clause (1, 3) uses inactive variable 3"
    assert session.state.active_vars == before.active_vars
    assert session.state.clauses == before.clauses
    # of several bad clauses, the first in the set's iteration order is
    # named, with its smallest inactive variable
    bad = FormulaState({1}, {(1,), (1, 4, -5), (2, 3), (-1, 6), (-2, -7)})
    first = next(c for c in bad.clauses if not bad.active_vars >= set(map(abs, c)))
    smallest = min(set(map(abs, first)) - bad.active_vars)
    with pytest.raises(PreconditionError) as info:
        session.replace_state(bad)
    assert str(info.value) == ("replace_state: clause %r uses inactive variable %d"
                               % (first, smallest))


def test_replace_state_installs_copy_and_keeps_cache():
    session = loaded_session(EngineConfig(cache_mode="shared"))
    assert session.checkpoint_count() == 10
    new_state = example1_state()
    session.replace_state(new_state)
    new_state.clauses.clear()
    assert session.state.clauses == example1_state().clauses
    assert session.checkpoint_count() == 10
    assert session.last_count_stats.decisions == 0


def test_cache_age_ignores_ops_between_counts():
    # only counts store entries, so the number of ops that lead to the same
    # formula leaves the cache, in its eviction (insertion) order, the same
    one_op = loaded_session(EngineConfig(cache_mode="shared"))
    many_ops = loaded_session(EngineConfig(cache_mode="shared"))
    for session in (one_op, many_ops):
        session.checkpoint_count()
    one_op.apply_op(UpdateOp.add_var(6))
    for v in range(6, 106):
        many_ops.apply_op(UpdateOp.add_var(v))
    for v in range(7, 106):
        many_ops.apply_op(UpdateOp.rem_var(v))
    for session in (one_op, many_ops):
        assert session.checkpoint_count() == 20
    assert list(one_op.cache.entries.items()) == list(many_ops.cache.entries.items())


def test_empty_batch_no_change():
    session = loaded_session()
    before = session.state.copy()
    session.apply_batch(UpdateBatch([]))
    assert session.state.clauses == before.clauses


def test_batch_atomic_rollback():
    session = loaded_session()
    before = session.state.copy()
    batch = UpdateBatch([UpdateOp.add_var(9),
                         UpdateOp.add_clause([9]),
                         UpdateOp.rem_var(9)])  # fails: 9 occurs in a clause
    with pytest.raises(BatchError) as info:
        session.apply_batch(batch)
    assert info.value.index == 2
    assert session.state.active_vars == before.active_vars
    assert session.state.clauses == before.clauses


def test_add_var_then_unit_halves_relative_to_var_alone():
    base = loaded_session()
    base.apply_op(UpdateOp.add_var(7))
    with_var = base.checkpoint_count()
    constrained = loaded_session()
    constrained.apply_batch(UpdateBatch([UpdateOp.add_var(7),
                                         UpdateOp.add_clause([7])]))
    assert constrained.checkpoint_count() * 2 == with_var


def test_reset_load_round_trip(tmp_path):
    path = tmp_path / "gamma.cnf"
    path.write_text(write_dimacs(example1_state()))
    session = Session()
    session.apply_op(UpdateOp.add_var(1))
    session.apply_batch(UpdateBatch([UpdateOp.reset(),
                                     UpdateOp.load(str(path))]))
    assert session.state.active_vars == {1, 2, 3, 4, 5}
    assert session.state.clauses == example1_state().clauses
    assert session.checkpoint_count() == 10


def test_failed_load_leaves_state_unchanged(tmp_path):
    path = tmp_path / "five.cnf"
    path.write_text("p cnf 5 1\n1 2 0\n")
    session = Session()
    session.apply_op(UpdateOp.add_var(3))
    before = session.state.copy()
    with pytest.raises(PreconditionError):
        session.apply_op(UpdateOp.load(str(path)))  # variable 3 is active
    assert session.state.active_vars == before.active_vars == {3}
    assert session.state.clauses == before.clauses
    assert session.checkpoint_count() == 2


def test_checkpoint_indices_consecutive():
    session = loaded_session()
    session.checkpoint_count()
    session.checkpoint_count()
    assert session.checkpoints == 2


def test_empty_state_counts_free_vars():
    session = Session()
    session.apply_op(UpdateOp.add_var(1))
    session.apply_op(UpdateOp.add_var(2))
    assert session.checkpoint_count() == 4


def test_metamorphic_random_sequences():
    import warnings as _warnings
    _warnings.simplefilter("ignore", DuplicateClauseWarning)
    rng = random.Random(101)
    for _ in range(25):
        config = rng.choice(ALL_CONFIGS)
        session = session_for(config)
        for _ in range(rng.randint(3, 20)):
            roll = rng.random()
            vs = sorted(session.state.active_vars)
            try:
                if roll < 0.3 or len(vs) < 2:
                    fresh = rng.randint(1, 18)
                    session.apply_op(UpdateOp.add_var(fresh))
                elif roll < 0.6:
                    k = rng.randint(1, min(3, len(vs)))
                    lits = [v if rng.random() < 0.5 else -v
                            for v in rng.sample(vs, k)]
                    session.apply_op(UpdateOp.add_clause(lits))
                elif roll < 0.75 and session.state.clauses:
                    clause = rng.choice(sorted(session.state.clauses))
                    session.apply_op(UpdateOp("rem_clause", clause=clause))
                elif vs:
                    session.apply_op(UpdateOp.rem_var(rng.choice(vs)))
            except PreconditionError:
                pass
            if rng.random() < 0.4:
                fresh = FormulaState(set(session.state.active_vars),
                                     set(session.state.clauses))
                assert session.checkpoint_count() == brute_force_count(fresh)


def test_mode_independence_on_shared_sequence():
    rng = random.Random(103)
    script_counts = None
    for config in ALL_CONFIGS:
        session = session_for(config, example1_state())
        counts = [session.checkpoint_count()]
        session.apply_op(UpdateOp.rem_clause([4, -1]))
        counts.append(session.checkpoint_count())
        session.apply_op(UpdateOp.add_var(11))
        counts.append(session.checkpoint_count())
        if script_counts is None:
            script_counts = counts
        else:
            assert counts == script_counts


def test_run_script_protocol(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(write_dimacs(example1_state()))
    script = [
        "av 1", "av 2", "ac 1 -2 0", "count",
        "reset", "load %s" % path, "count",
        "stats", "quit", "count",
    ]
    out = io.StringIO()
    session = Session()
    run_script(script, session, out)
    lines = out.getvalue().splitlines()
    result_lines = [l for l in lines if not l.startswith("c ")]
    assert result_lines == ["1 3", "2 10"]
    assert any(l.startswith("c positiveHits") for l in lines)


def test_run_script_bad_command():
    with pytest.raises(ScriptError):
        run_script(["bogus 1"], Session(), io.StringIO())


def test_dimacs_parse_and_inactive_vars():
    state = state_from_dimacs("c comment\np cnf 4 2\n1 -2 0\n2 3 0\n")
    assert state.active_vars == {1, 2, 3, 4}
    assert state.clauses == {normalize_clause([1, -2]),
                             normalize_clause([2, 3])}
    assert brute_force_count(state) == 8


def test_dimacs_errors():
    from dyncount.dimacs import DimacsError
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")

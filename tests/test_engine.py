import inspect
import random
import sys

import pytest

from dyncount import engine
from dyncount import (BatchError, ComponentCache, EngineConfig, FormulaState,
                      Session, UpdateOp, brute_force_count, count,
                      normalize_clause, unit_propagate)
from dyncount.cache import make_key
from dyncount.engine import SearchStats
from dyncount.formula import clause_mask, count_truth_table, vars_of

from helpers import (ALL_CONFIGS, clauses_of, condition, example1_state,
                     is_tautology, masks, random_3cnf, random_cnf, session_for)


def count_once(state, config):
    return count(state, config, ComponentCache(config.cache_byte_budget)).count


def test_example1_all_configs():
    st = example1_state()
    for config in ALL_CONFIGS:
        assert count_once(st, config) == 10


def test_td_mode_only_off_accepted():
    assert EngineConfig(td_mode="off").td_mode == "off"
    with pytest.raises(ValueError):
        EngineConfig(td_mode="shared")


def test_heuristic_only_dlcs_accepted():
    assert EngineConfig(heuristic="dlcs").heuristic == "dlcs"
    with pytest.raises(ValueError):
        EngineConfig(heuristic="dlis")


def test_unsat_pair():
    st = FormulaState({1}, {normalize_clause([1]), normalize_clause([-1])})
    for config in ALL_CONFIGS:
        assert count_once(st, config) == 0


def test_empty_clause_counts_zero():
    st = FormulaState({1, 2}, {()})
    assert count_once(st, EngineConfig()) == 0


def test_free_variables_double():
    st = FormulaState({1, 2, 3}, {normalize_clause([1])})
    assert count_once(st, EngineConfig()) == 4


def test_tautological_clauses_skipped():
    st = FormulaState({1, 2}, {normalize_clause([1, -1])})
    assert count_once(st, EngineConfig()) == 4


def test_unit_propagate_chains():
    clauses = {normalize_clause([1]), normalize_clause([-1, 2])}
    residual, assignment = unit_propagate(masks(clauses), 0)
    assert clauses_of(residual) == set()
    assert assignment == clause_mask((1, 2))  # the literals made true


def test_unit_propagate_conflict_returns_no_residual():
    clauses = {normalize_clause([1]), normalize_clause([-1])}
    residual, assignment = unit_propagate(masks(clauses), 0)
    assert residual is None
    assert assignment == 0  # the incoming assignment, unchanged


def test_unit_propagate_no_units_unchanged():
    phi = condition(example1_state().clauses, {3: True})
    residual, assignment = unit_propagate(masks(phi), 0)
    assert clauses_of(residual) == phi
    assert assignment == 0


def test_component_counts_small_golden_cases():
    for clauses, expected in (
            ([[1, 2]], 3),
            ([[1, 2], [-1, -2]], 2)):
        st = FormulaState({1, 2}, {normalize_clause(c) for c in clauses})
        assert count_once(st, EngineConfig()) == expected


def test_residual_component_count():
    phi = condition(example1_state().clauses, {3: True})
    oracle = count_truth_table(phi, vars_of(phi))
    st = FormulaState(vars_of(phi), phi)
    assert count_once(st, EngineConfig()) == oracle


def test_branch_decomposition_identity():
    rng = random.Random(41)
    for _ in range(25):
        st = random_cnf(rng, rng.randint(2, 12), rng.randint(1, 20))
        total = count_once(st, EngineConfig())
        v = rng.choice(sorted(st.active_vars))
        rest = st.active_vars - {v}
        halves = 0
        for value in (True, False):
            residual = condition(st.clauses, {v: value})
            halves += count_once(FormulaState(rest, residual - {()})
                                 if () not in residual else
                                 FormulaState(rest, {()}), EngineConfig())
        assert total == halves


def test_oracle_equivalence_random():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(5, 16)
        st = random_cnf(rng, n, int(n * rng.uniform(1, 5)))
        oracle = brute_force_count(st)
        for config in ALL_CONFIGS:
            assert count_once(st, config) == oracle


def test_cache_transparency_shared():
    st = example1_state()
    session = session_for(EngineConfig(cache_mode="shared"), st)
    session.checkpoint_count()
    first = session.last_count_stats
    assert session.checkpoint_count() == 10
    second = session.last_count_stats
    assert second.decisions == 0
    assert second.positive_hits >= 1
    assert first.decisions > 0


def test_cache_transparency_no_shared():
    session = session_for(EngineConfig(cache_mode="no_shared"),
                          example1_state())
    session.checkpoint_count()
    first = session.last_count_stats
    session.checkpoint_count()
    second = session.last_count_stats
    assert second.positive_hits == first.positive_hits
    assert second.decisions == first.decisions > 0


def test_no_positive_hit_for_sigma2_after_sigma1():
    for mode in ("no_shared", "shared"):
        session = session_for(EngineConfig(cache_mode=mode))
        session.state = FormulaState({1, 2}, {normalize_clause([1, 2])})
        assert session.checkpoint_count() == 3
        session.state = FormulaState(
            {1, 2}, {normalize_clause([1, 2]), normalize_clause([-1, -2])})
        assert session.checkpoint_count() == 2


def test_determinism_of_stats():
    rng = random.Random(47)
    st = random_cnf(rng, 12, 40)
    for config in ALL_CONFIGS:
        a = count(st, config, ComponentCache(config.cache_byte_budget))
        b = count(st, config, ComponentCache(config.cache_byte_budget))
        assert a.count == b.count
        assert a.stats == b.stats


def test_positive_plus_negative_equals_lookups(monkeypatch):
    # One lookup per key built, and every miss is stored. With no unit
    # clause, root propagation leaves example1 as one component equal to
    # the whole formula, whose key is built and looked up only once; the
    # unit clause x5 gives the root a residual of its own.
    built = []
    real_make_key = engine.make_key

    def recording_make_key(clauses):
        built.append(real_make_key(clauses))
        return built[-1]

    monkeypatch.setattr(engine, "make_key", recording_make_key)
    for extra in ((), (normalize_clause([5]),)):
        st = example1_state()
        st.clauses.update(extra)
        for mode in ("no_shared", "shared"):
            built.clear()
            cache = ComponentCache(EngineConfig().cache_byte_budget)
            stats = count(st, EngineConfig(cache_mode=mode), cache).stats
            assert stats.positive_hits + stats.negative_hits == len(built)
            assert set(cache.entries) == set(built)
            assert stats.negative_hits == len(cache.entries)


def _random_clause(rng, variables):
    # literals drawn with repetition, so tautologies such as (1, -1) occur
    k = rng.randint(1, 3)
    return normalize_clause([rng.choice([v, -v]) for v in rng.choices(variables, k=k)])


def test_clause_masks_follow_every_kind_of_change():
    # the clause masks kept between counts must cover exactly the state's
    # clauses after each count, however the clauses changed in between
    rng = random.Random(113)
    seen = set()
    for _ in range(60):
        session = Session(EngineConfig(cache_mode=rng.choice(["no_shared", "shared"])))
        variables = list(range(1, rng.randint(2, 8)))
        session.apply_batch([UpdateOp.add_var(v) for v in variables])
        for _ in range(rng.randint(5, 30)):
            state = session.state
            roll = rng.random()
            if roll < 0.35:
                clause = _random_clause(rng, variables)
                if clause not in state.clauses:
                    session.apply_op(UpdateOp("add_clause", clause=clause))
                    seen.add("taut" if is_tautology(clause) else "add")
            elif roll < 0.55 and state.clauses:
                clause = rng.choice(sorted(state.clauses))
                session.apply_op(UpdateOp("rem_clause", clause=clause))
                seen.add("rem")
            elif roll < 0.65:
                added = {_random_clause(rng, variables) for _ in range(2)}
                ops = [UpdateOp("add_clause", clause=c)
                       for c in sorted(added - state.clauses)]
                if state.clauses:
                    ops.append(UpdateOp("rem_clause", clause=min(state.clauses)))
                ops.append(UpdateOp.rem_var(len(variables) + 1))  # never active
                with pytest.raises(BatchError):
                    session.apply_batch(ops)
                seen.add("rollback")
            elif roll < 0.75:
                fresh = random_cnf(rng, len(variables), rng.randint(0, 8))
                fresh.clauses.add(_random_clause(rng, variables))
                session.replace_state(fresh)
                seen.add("replace")
            elif roll < 0.82:
                session.apply_op(UpdateOp.reset())
                session.apply_batch([UpdateOp.add_var(v) for v in variables])
                seen.add("reset")
            elif roll < 0.88:
                state.clauses.symmetric_difference_update({()})
                seen.add("empty")
            else:
                state.clauses.symmetric_difference_update(
                    {_random_clause(rng, variables)})
                seen.add("direct")
            if rng.random() < 0.5:
                value = session.checkpoint_count()
                kept = session.cache.clause_masks
                assert kept.keys() == session.state.clauses
                assert all((m == engine.TAUTOLOGY) == is_tautology(c)
                           for c, m in kept.items())
                assert value == brute_force_count(session.state)
    assert seen == {"add", "taut", "rem", "rollback", "replace", "reset",
                    "empty", "direct"}


def test_warm_clause_masks_change_no_counter():
    # a no_shared count searches the same way whether or not the clause
    # masks of an earlier, overlapping state are still kept
    rng = random.Random(127)
    config = EngineConfig(cache_mode="no_shared")
    for _ in range(30):
        first = random_3cnf(rng, 12, 40)
        second = FormulaState(set(first.active_vars),
                              set(rng.sample(sorted(first.clauses), 30)))
        second.clauses |= random_3cnf(rng, 12, 10).clauses
        warm = ComponentCache(config.cache_byte_budget)
        count(first, config, warm)
        assert len(warm.clause_masks) == 40
        a = count(second, config, warm)
        b = count(second, config, ComponentCache(config.cache_byte_budget))
        assert warm.clause_masks.keys() == second.clauses
        assert (a.count, a.stats) == (b.count, b.stats)


# Cumulative session counters after the first count and 12 clause removals
# (13 counts) on random_3cnf(Random(5), 16, 67), per cache mode:
# (decisions, propagations, conflicts, positiveHits, cacheEntries,
# cacheBytes). They were taken from the engine before propagation, the
# component split and key building were rewritten for speed, which must
# change none of them. negativeHits is left out: the root key is now
# built once. Under shared each removal is a delta count, one search under
# the assumption that the removed clause is false, whose root is not
# cached; the full counts gave (124, 580, 63, 30, 124, 147344).
PINNED_COUNTS = [16, 22, 22, 26, 64, 70, 70, 72, 72, 84, 109, 109, 110]
PINNED_COUNTERS = {
    "no_shared": (277, 1140, 126, 2, 28, 18296),
    "shared": (49, 264, 36, 2, 49, 43304),
}


def test_counters_pinned():
    rng = random.Random(5)
    st = random_3cnf(rng, 16, 67)
    removals = sorted(st.clauses)
    rng.shuffle(removals)
    for config in ALL_CONFIGS:
        session = session_for(config, st)
        counts = [session.checkpoint_count()]
        for clause in removals[:12]:
            session.apply_op(UpdateOp.rem_clause(clause))
            counts.append(session.checkpoint_count())
        stats = session.stats
        counters = (stats.decisions, stats.propagations, stats.conflicts,
                    stats.positive_hits, len(session.cache.entries),
                    session.cache.bytes_used)
        name = config.cache_mode
        assert counts == PINNED_COUNTS, name
        assert counters == PINNED_COUNTERS[name], name


def test_one_clause_changes_count_by_delta(monkeypatch):
    # the root of each search assumes the literals of not-c exactly when one
    # clause c, neither empty nor a tautology, changed in a shared session
    # whose active variables did not change since its last count
    roots = []
    real_run = engine._run

    def recording_run(search, clauses, variables, root):
        roots.append(root)
        return real_run(search, clauses, variables, root)

    monkeypatch.setattr(engine, "_run", recording_run)
    st = random_3cnf(random.Random(7), 12, 40)
    c, d = sorted(st.clauses)[:2]
    not_c = clause_mask([-l for l in c])
    for mode, delta in (("shared", not_c), ("no_shared", 0)):
        session = session_for(EngineConfig(cache_mode=mode), st)
        steps = [
            lambda: None,                                   # no change
            lambda: session.apply_op(UpdateOp.rem_clause(c)),
            lambda: session.apply_op(UpdateOp.add_clause(c)),
            lambda: session.apply_batch([UpdateOp.rem_clause(c),
                                         UpdateOp.rem_clause(d)]),
            lambda: session.apply_batch([UpdateOp.add_clause(c),
                                         UpdateOp.add_clause(d)]),
            lambda: session.apply_op(UpdateOp.add_clause([1, -1])),
            lambda: session.apply_op(UpdateOp.add_clause([])),
            lambda: session.apply_op(UpdateOp.rem_clause([])),
            lambda: session.apply_batch([UpdateOp.add_var(13),
                                         UpdateOp.rem_clause(c)]),
            lambda: session.apply_op(UpdateOp.add_clause(c)),
            lambda: session.state.clauses.discard(c),       # direct edits
            lambda: session.state.clauses.add(c),
        ]
        # None: the empty clause is present, so no search runs at all
        expected = [0, 0, delta, delta, 0, 0, 0, None, 0, 0, delta, delta,
                    delta]
        roots.clear()
        for step in [lambda: None] + steps:
            step()
            value = session.checkpoint_count()
            assert value == brute_force_count(session.state)
            if value == 0 and () in session.state.clauses:
                roots.append(None)  # the empty clause: no search at all
        assert roots == expected, mode


def test_count_after_a_failed_count_is_exact(monkeypatch):
    # a count that raises after the clause masks were synced leaves no base
    # behind, so the next count, after another one-clause change, is full
    rng = random.Random(11)
    for _ in range(10):
        st = random_3cnf(rng, 12, 40)
        c, d = rng.sample(sorted(st.clauses), 2)
        for then in (UpdateOp.add_clause(c), UpdateOp.rem_clause(d)):
            session = session_for(EngineConfig(cache_mode="shared"), st)
            session.checkpoint_count()
            session.apply_op(UpdateOp.rem_clause(c))

            def out_of_memory(*args, **kwargs):
                raise MemoryError

            with monkeypatch.context() as patch:
                patch.setattr(engine._Search, "solve", out_of_memory)
                with pytest.raises(MemoryError):
                    session.checkpoint_count()
            assert session.cache.clause_masks.keys() == session.state.clauses
            session.apply_op(then)
            fresh = session_for(EngineConfig(cache_mode="no_shared"),
                                session.state)
            assert session.checkpoint_count() == fresh.checkpoint_count()


def test_long_chain_needs_no_recursion_limit():
    # the chain (-x_i v x_{i+1}) has 301 models over 300 variables and
    # nests about 150 components deep, past the limit set below
    n = 300
    st = FormulaState(set(range(1, n + 1)),
                      {normalize_clause([-i, i + 1]) for i in range(1, n)})
    saved = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + 60
    sys.setrecursionlimit(limit)
    try:
        assert count_once(st, EngineConfig()) == n + 1
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(saved)


def test_tiny_budget_still_exact():
    rng = random.Random(53)
    config = EngineConfig(cache_byte_budget=4096)
    for _ in range(25):
        st = random_cnf(rng, rng.randint(5, 14), rng.randint(5, 40))
        assert count_once(st, config) == brute_force_count(st)

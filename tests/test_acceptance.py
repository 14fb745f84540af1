"""End-to-end acceptance suite.

Every test here guards one headline property and prints its own pass/fail
line, so `pytest tests/test_acceptance.py -v -s` doubles as a checklist.
The randomized suites are seeded and their expected values come from the
brute-force oracle, never from the engine under test.
"""

import random
import time
import warnings

from dyncount import (ComponentCache, EngineConfig, FormulaState,
                      PerturbationConfig, Session, SoftCoreConfig, UpdateBatch,
                      UpdateOp, brute_force_count, compute_soft_core,
                      compute_tree_decomposition, condition, count,
                      dynamic_sequence, encode_complete,
                      enumerate_complete_bruteforce, normalize_clause,
                      verify_soft_core)
from dyncount.cache import canonicalize
from dyncount.heuristics import td_valid_for
from dyncount.formula import primal_graph
from dyncount.session import DuplicateClauseWarning, PreconditionError

from helpers import (ALL_CONFIGS, example1_state, random_3cnf, random_af,
                     random_cnf, session_for)

warnings.simplefilter("ignore", DuplicateClauseWarning)


def report(name, ok, started):
    verdict = "PASS" if ok else "FAIL"
    print("[%s] %s (%.1fs)" % (verdict, name, time.time() - started))
    assert ok, name


def count_once(state, config):
    return count(state, config, ComponentCache(config.cache_byte_budget)).count


def test_example1_worked_example():
    t0 = time.time()
    st = example1_state()
    ok = all(count_once(st, config) == 10 for config in ALL_CONFIGS)
    report("worked example counts 10 in all 12 configs", ok, t0)


def test_cache_key_soundness_regression():
    t0 = time.time()
    sigma1 = {normalize_clause([1, 2])}
    sigma2 = {normalize_clause([1, 2]), normalize_clause([-1, -2])}
    ok = True
    for config in ALL_CONFIGS:
        session = session_for(config)
        session.state = FormulaState({1, 2}, set(sigma1))
        ok = ok and session.checkpoint_count() == 3
        session.state = FormulaState({1, 2}, set(sigma2))
        session.state.revision = 1
        ok = ok and session.checkpoint_count() == 2
        ok = ok and session.last_count_stats.positive_hits == 0
    report("sigma1/sigma2 regression: 3 vs 2, no cross hits", ok, t0)


def test_symmetry_golden_pair():
    t0 = time.time()
    st = example1_state()
    phi_pos = condition(st.clauses, {3: True})
    phi_neg = condition(st.clauses, {3: False})
    key_pos, _ = canonicalize(phi_pos)
    key_neg, _ = canonicalize(phi_neg)
    expected = {normalize_clause(c) for c in [[4, 2], [1, -4], [3, 4], [3, 2]]}
    ok = key_pos == key_neg and set(key_pos) == expected

    for mode, want_hit in (("shared_sym", True), ("shared", False)):
        session = session_for(EngineConfig(cache_mode=mode))
        session.state = FormulaState({1, 2, 4, 5}, set(phi_pos))
        first = session.checkpoint_count()
        session.state = FormulaState({1, 2, 4, 5}, set(phi_neg))
        session.state.revision = 1
        second = session.checkpoint_count()
        stats = session.last_count_stats
        ok = ok and first == second == 5
        if want_hit:
            ok = ok and stats.positive_hits >= 1 and stats.decisions == 0
        else:
            ok = ok and stats.negative_hits >= 1 and stats.decisions > 0
    report("symmetry golden pair: shared key, sym hit, plain miss", ok, t0)


def test_oracle_equivalence_500():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(500):
        n = rng.randint(5, 20)
        m = max(1, int(n * rng.uniform(1, 5)))
        st = random_cnf(rng, n, m)
        oracle = brute_force_count(st)
        for config in ALL_CONFIGS:
            if count_once(st, config) != oracle:
                ok = False
    report("oracle equivalence on 500 random CNFs x 12 configs", ok, t0)
    assert time.time() - t0 < 120


def _random_op(rng, session):
    vs = sorted(session.state.active_vars)
    roll = rng.random()
    if roll < 0.3 or len(vs) < 2:
        return UpdateOp.add_var(rng.randint(1, 18))
    if roll < 0.6:
        k = rng.randint(1, min(3, len(vs)))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(vs, k)]
        return UpdateOp.add_clause(lits)
    if roll < 0.75 and session.state.clauses:
        clause = rng.choice(sorted(session.state.clauses))
        return UpdateOp("rem_clause", clause=clause)
    return UpdateOp.rem_var(rng.choice(vs))


def test_metamorphic_incremental_100():
    warnings.simplefilter("ignore", DuplicateClauseWarning)
    t0 = time.time()
    rng = random.Random(5150)
    ok = True
    modes = ("no_shared", "shared", "shared_sym")
    for _ in range(100):
        # build an applicable op/checkpoint trace once, then replay per mode
        probe = Session()
        trace = []
        for _ in range(rng.randint(3, 20)):
            op = _random_op(rng, probe)
            try:
                probe.apply_op(op)
            except PreconditionError:
                continue
            trace.append(op)
            if rng.random() < 0.4:
                trace.append("count")
        per_mode = []
        for mode in modes:
            session = Session(EngineConfig(cache_mode=mode))
            counts = []
            for item in trace:
                if item == "count":
                    value = session.checkpoint_count()
                    st = FormulaState(set(session.state.active_vars),
                                      set(session.state.clauses))
                    if value != brute_force_count(st):
                        ok = False
                    counts.append(value)
                else:
                    session.apply_op(item)
            per_mode.append(counts)
        if any(c != per_mode[0] for c in per_mode[1:]):
            ok = False
        # batch atomicity spot check on the final state
        session = Session(EngineConfig())
        session.apply_op(UpdateOp.add_var(1))
        before = session.state.copy()
        try:
            session.apply_batch(UpdateBatch([UpdateOp.add_clause([1]),
                                             UpdateOp.rem_var(1)]))
            ok = False
        except Exception:
            pass
        if (session.state.clauses != before.clauses
                or session.state.active_vars != before.active_vars):
            ok = False
    report("metamorphic incremental suite: 100 sequences vs oracle", ok, t0)
    assert time.time() - t0 < 120


def test_cache_reuse_property():
    t0 = time.time()
    st = example1_state()
    ok = True
    for mode in ("shared", "shared_sym"):
        session = session_for(EngineConfig(cache_mode=mode), st)
        session.checkpoint_count()
        session.state.revision += 1
        session.checkpoint_count()
        stats = session.last_count_stats
        ok = ok and stats.positive_hits >= 1 and stats.decisions == 0
    session = session_for(EngineConfig(cache_mode="no_shared"), st)
    session.checkpoint_count()
    first = session.last_count_stats
    session.state.revision += 1
    session.checkpoint_count()
    second = session.last_count_stats
    ok = ok and second.positive_hits == 0 and second.decisions == first.decisions > 0
    report("cache reuse: hits+0 decisions shared, none no-shared", ok, t0)


def test_sequence_sharing_speedup_proxy():
    t0 = time.time()
    wins = 0
    seeds = 20
    for seed in range(seeds):
        rng = random.Random(9000 + seed)
        base = random_3cnf(rng, 50, 210)
        removals = rng.sample(sorted(base.clauses), 30)
        decisions = {}
        for mode in ("no_shared", "shared_sym"):
            session = session_for(EngineConfig(cache_mode=mode), base)
            session.checkpoint_count()
            for clause in removals:
                session.apply_op(UpdateOp("rem_clause", clause=clause))
                session.checkpoint_count()
            decisions[mode] = session.stats.decisions
        if decisions["shared_sym"] <= decisions["no_shared"]:
            wins += 1
    ok = wins >= 0.8 * seeds
    report("sequence sharing: shared-sym <= no-shared decisions in %d/%d seeds"
           % (wins, seeds), ok, t0)
    assert time.time() - t0 < 600


def test_argumentation_correctness():
    t0 = time.time()
    rng = random.Random(4242)

    def counted(af):
        session = Session()
        session.state = encode_complete(af)
        return session.checkpoint_count()

    from dyncount import ArgumentationFramework
    no_attacks = ArgumentationFramework(frozenset({1, 2, 3}), frozenset())
    mutual = ArgumentationFramework(frozenset({1, 2}),
                                    frozenset({(1, 2), (2, 1)}))
    cycle = ArgumentationFramework(frozenset({1, 2, 3}),
                                   frozenset({(1, 2), (2, 3), (3, 1)}))
    ok = (counted(no_attacks) == 1 and counted(mutual) == 3
          and counted(cycle) == 1)
    for _ in range(200):
        af = random_af(rng, max_args=12)
        if counted(af) != enumerate_complete_bruteforce(af):
            ok = False
    report("argumentation: 200 random AFs + canonical cases vs oracle", ok, t0)
    assert time.time() - t0 < 60


def test_dynamic_sequence_reproducibility():
    t0 = time.time()
    from dyncount import ArgumentationFramework
    af = ArgumentationFramework(frozenset(range(1, 7)),
                                frozenset({(1, 2), (2, 3), (4, 5), (6, 1)}))
    reference = None
    ok = True
    for mode in ("no_shared", "shared", "shared_sym"):
        session = Session(EngineConfig(cache_mode=mode))
        config = PerturbationConfig(steps=50, seed=13)
        records = dynamic_sequence(af, config, session)
        outcome = [(r.step, r.tag, r.af, r.count) for r in records]
        if reference is None:
            reference = outcome
        elif outcome != reference:
            ok = False
    for _, _, step_af, step_count in reference:
        if len(step_af.arguments) <= 10:
            if step_count != enumerate_complete_bruteforce(step_af):
                ok = False
    report("dynamic sequence: mode-independent, oracle-checked 50 steps",
           ok, t0)
    assert time.time() - t0 < 60


def test_soft_core_properties():
    t0 = time.time()
    rng = random.Random(7777)
    ok = True
    done = 0
    while done < 50:
        n = rng.randint(4, 16)
        st = random_cnf(rng, n, rng.randint(3, 2 * n))
        if brute_force_count(st) == 0:
            continue
        done += 1
        config = SoftCoreConfig()
        result = compute_soft_core(st, config, Session())
        if not verify_soft_core(st, result, config):
            ok = False
        present = set(st.clauses)
        for step in result.per_step:
            clause = result.clause_order[step.index - 1]
            trial = FormulaState(set(st.active_vars), present - {clause})
            if step.count != brute_force_count(trial):
                ok = False
            if step.accepted:
                present.discard(clause)
    report("soft core: 50 satisfiable CNFs verified + oracle step counts",
           ok, t0)
    assert time.time() - t0 < 120


def test_tree_decomposition_suite():
    t0 = time.time()
    rng = random.Random(31337)
    ok = True
    for _ in range(100):
        st = random_cnf(rng, rng.randint(2, 16), rng.randint(1, 30))
        clauses = {c for c in st.clauses if c}
        graph = primal_graph(clauses)
        td = compute_tree_decomposition(graph)
        if not td_valid_for(td, graph):
            ok = False
        if clauses:
            # clause removal only deletes edges; the old decomposition stays valid
            smaller = set(clauses)
            smaller.discard(rng.choice(sorted(smaller)))
            if not td_valid_for(td, primal_graph(smaller)):
                ok = False
    report("tree decomposition: validity, deletion-stable", ok, t0)


def test_eviction_safety():
    t0 = time.time()
    rng = random.Random(60601)
    config_base = dict(cache_byte_budget=4096)
    ok = True
    evictions = 0
    for _ in range(120):
        n = rng.randint(5, 16)
        st = random_cnf(rng, n, max(1, int(n * rng.uniform(1, 4))))
        oracle = brute_force_count(st)
        for mode in ("no_shared", "shared", "shared_sym"):
            config = EngineConfig(cache_mode=mode, **config_base)
            cache = ComponentCache(config.cache_byte_budget)
            result = count(st, config, cache)
            if result.count != oracle:
                ok = False
            evictions += cache.evictions
    # the small instances rarely overflow 4 KiB, so force eviction pressure
    # on a bigger one and cross-check against an effectively unbounded cache
    for seed in range(3):
        big_rng = random.Random(seed)
        st = random_3cnf(big_rng, 40, 160)
        reference = count(st, EngineConfig(),
                          ComponentCache(512 << 20)).count
        for mode in ("shared", "shared_sym"):
            config = EngineConfig(cache_mode=mode, **config_base)
            cache = ComponentCache(config.cache_byte_budget)
            if count(st, config, cache).count != reference:
                ok = False
            evictions += cache.evictions
    ok = ok and evictions > 0
    report("eviction safety: 4 KiB budget stays exact (%d evictions)"
           % evictions, ok, t0)
    assert time.time() - t0 < 60

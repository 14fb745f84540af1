import random
import tracemalloc

import pytest

from dyncount import (ArgumentationFramework, EngineConfig, PerturbationConfig,
                      Session, brute_force_count, dynamic_sequence,
                      encode_complete, enumerate_complete_bruteforce,
                      normalize_clause, parse_af, perturb)
from dyncount.argumentation import AfParseError, accepted_var, attacked_var

from helpers import random_af, reference_complete_count, session_for


def af_of(n, attacks):
    return ArgumentationFramework(frozenset(range(1, n + 1)),
                                  frozenset(attacks))


def count_encoding(af):
    session = Session()
    session.state = encode_complete(af)
    return session.checkpoint_count()


def test_parse_af_basic():
    af = parse_af("p af 2\n1 2\n2 1\n")
    assert af.arguments == frozenset({1, 2})
    assert af.attacks == frozenset({(1, 2), (2, 1)})


def test_parse_af_isolated_and_self_attack():
    assert parse_af("p af 3\n").arguments == frozenset({1, 2, 3})
    af = parse_af("p af 1\n1 1\n")
    assert af.attacks == frozenset({(1, 1)})


def test_parse_af_errors():
    with pytest.raises(AfParseError):
        parse_af("1 2\n")
    with pytest.raises(AfParseError):
        parse_af("p af 2\n1 3\n")
    with pytest.raises(AfParseError):
        parse_af("p af x\n")


def test_canonical_counts():
    assert count_encoding(af_of(3, [])) == 1
    assert count_encoding(af_of(2, [(1, 2), (2, 1)])) == 3
    assert count_encoding(af_of(3, [(1, 2), (2, 3), (3, 1)])) == 1


def test_bruteforce_canonical_counts():
    assert enumerate_complete_bruteforce(af_of(2, [(1, 2), (2, 1)])) == 3
    assert enumerate_complete_bruteforce(af_of(1, [(1, 1)])) == 1
    assert enumerate_complete_bruteforce(af_of(0, [])) == 1


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        enumerate_complete_bruteforce(af_of(17, []))


def test_bruteforce_matches_set_based_reference():
    # the bitmask oracle against the set-based one it replaced, on AFs
    # with no arguments, none or every attack, self-attacks, and in between
    rng = random.Random(61)
    shapes = set()
    for _ in range(2200):
        n = rng.randint(0, 10)
        pairs = [(b, a) for b in range(1, n + 1) for a in range(1, n + 1)]
        shape = rng.choice(["none", "sparse", "uniform", "dense", "all"])
        p = {"none": 0.0, "sparse": 0.1, "uniform": rng.random(),
             "dense": 0.8, "all": 1.0}[shape]
        af = af_of(n, [pair for pair in pairs if rng.random() < p])
        if n == 0:
            shape = "empty"
        elif any(b == a for b, a in af.attacks):
            shapes.add("self-attack")
        shapes.add(shape)
        assert enumerate_complete_bruteforce(af) == reference_complete_count(af), af
    assert shapes == {"empty", "none", "sparse", "uniform", "dense", "all",
                      "self-attack"}


def test_encoding_matches_oracle_random():
    rng = random.Random(59)
    for _ in range(80):
        af = random_af(rng, max_args=10)
        assert count_encoding(af) == enumerate_complete_bruteforce(af)


def _encode_complete_normalized(af):
    """Reference encoding: every clause goes through normalize_clause."""
    attackers = af.attackers_of()
    has_aux = {b for b, _ in af.attacks if attackers[b]}
    clauses = set()
    for b, a in af.attacks:
        clauses.add(normalize_clause([-accepted_var(a), -accepted_var(b)]))
        if b in has_aux:
            clauses.add(normalize_clause([-accepted_var(a), attacked_var(b)]))
        else:
            clauses.add(normalize_clause([-accepted_var(a)]))
    for b in has_aux:
        clauses.add(normalize_clause(
            [-attacked_var(b)] + [accepted_var(c) for c in attackers[b]]))
        for c in attackers[b]:
            clauses.add(normalize_clause([attacked_var(b), -accepted_var(c)]))
    for a in af.arguments:
        if not attackers[a]:
            clauses.add(normalize_clause([accepted_var(a)]))
        elif attackers[a] <= has_aux:
            clauses.add(normalize_clause(
                [accepted_var(a)] + [-attacked_var(b) for b in attackers[a]]))
    return clauses


def test_encoding_clauses_are_normalized():
    rng = random.Random(67)
    afs = [af_of(0, []), af_of(1, [(1, 1)])]
    afs += [random_af(rng, max_args=14) for _ in range(200)]
    assert any(b == a for af in afs for b, a in af.attacks)
    for af in afs:
        assert encode_complete(af).clauses == _encode_complete_normalized(af)


def _encode_complete_sorted(af):
    """Reference encoding: each clause sorted by variable, as a tuple."""
    def clause(lits):
        return tuple(sorted(lits, key=abs))

    attackers = af.attackers_of()
    has_aux = {b for b, _ in af.attacks if attackers[b]}
    clauses = set()
    for b, a in sorted(af.attacks):
        clauses.add(clause({-accepted_var(a), -accepted_var(b)}))
        if b in has_aux:
            clauses.add(clause([-accepted_var(a), attacked_var(b)]))
        else:
            clauses.add((-accepted_var(a),))
    for b in sorted(has_aux):
        members = sorted(attackers[b])
        clauses.add(clause([-attacked_var(b)] + [accepted_var(c) for c in members]))
        for c in members:
            clauses.add(clause([attacked_var(b), -accepted_var(c)]))
    for a in sorted(af.arguments):
        atk = sorted(attackers[a])
        if not atk:
            clauses.add((accepted_var(a),))
        elif all(b in has_aux for b in atk):
            clauses.add(clause([accepted_var(a)] + [-attacked_var(b) for b in atk]))
    variables = {accepted_var(a) for a in af.arguments}
    variables |= {attacked_var(b) for b in has_aux}
    return variables, clauses


def test_encoding_matches_sorted_reference():
    # attack densities from none to every ordered pair, self-attacks included
    rng = random.Random(71)
    afs = [af_of(0, []), af_of(1, [(1, 1)])]
    for _ in range(2000):
        n = rng.randint(0, 14)
        p = rng.choice([0.0, 0.05, 0.2, 0.5, 0.9, 1.0])
        afs.append(af_of(n, [(b, a) for b in range(1, n + 1)
                             for a in range(1, n + 1) if rng.random() < p]))
    assert sum(1 for af in afs if len(af.attacks) == len(af.arguments) ** 2 > 1) > 10
    for af in afs:
        state = encode_complete(af)
        assert (state.active_vars, state.clauses) == _encode_complete_sorted(af)


def test_dynamic_sequence_draws_pinned():
    # tags, counts and last AF of a seeded run, as drawn before `perturb`
    # built its list of absent attacks without a sort
    af = af_of(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 5), (6, 4)])
    records = dynamic_sequence(af, PerturbationConfig(steps=50, seed=2026),
                               Session())
    letters = {"delete_argument": "D", "add_argument": "A",
               "delete_attacks": "d", "add_attacks": "a"}
    assert "".join(letters[r.tag] for r in records) == (
        "AadAadAdddadadaaaAdadaaAddaddaAAadAdddAadadaDdaddd")
    assert [r.count for r in records] == (
        [1] * 16 + [2, 3, 3, 2, 2] + [1] * 22 + [3] * 6 + [1])
    last = records[-1].af
    assert last.arguments == frozenset(range(1, 16)) - {8}
    assert last.attacks == frozenset(
        [(1, 2), (1, 7), (3, 1), (5, 3), (5, 6), (6, 9), (7, 11), (9, 9),
         (10, 1), (10, 6), (11, 7), (13, 7), (14, 9), (15, 3), (15, 11)])


def test_auxiliaries_do_not_inflate_count():
    # projecting the models onto the argument variables stays injective
    rng = random.Random(61)
    for _ in range(20):
        af = random_af(rng, max_args=6)
        state = encode_complete(af)
        arg_vars = {accepted_var(a) for a in af.arguments}
        projected = brute_force_count(state)
        only_args = len(_models_projected(state, arg_vars))
        assert projected == only_args


def _models_projected(state, arg_vars):
    from itertools import product
    vs = sorted(state.active_vars)
    seen = set()
    for bits in product([False, True], repeat=len(vs)):
        assignment = dict(zip(vs, bits))
        ok = all(any((l > 0) == assignment[abs(l)] for l in c)
                 for c in state.clauses)
        if ok:
            seen.add(tuple(assignment[v] for v in sorted(arg_vars)))
    return seen


def test_encoding_memory_follows_its_result():
    # 100,000 arguments and no attack: the encoding holds one unit clause
    # and one variable per argument, and builds no empty attacker set per
    # argument on the way; the peak stays near what the AF and its
    # encoding hold once both calls have returned
    tracemalloc.start()
    try:
        af = parse_af("p af 100000\n")
        state = encode_complete(af)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.clauses) == len(state.active_vars) == 100000
    assert peak < 1.25 * held


def test_unattacked_arguments_forced_true():
    af = af_of(3, [(1, 2)])
    state = encode_complete(af)
    assert (accepted_var(1),) in state.clauses
    assert (accepted_var(3),) in state.clauses


def test_perturb_deterministic():
    af = af_of(4, [(1, 2), (3, 4)])
    runs = []
    for _ in range(2):
        rng = random.Random(77)
        cur = af
        trace = []
        for _ in range(20):
            cur, tag = perturb(cur, rng)
            trace.append((tag, cur))
        runs.append(trace)
    assert runs[0] == runs[1]


def test_perturb_delete_last_argument():
    af = af_of(1, [])
    rng = random.Random(0)
    for _ in range(200):
        out, tag = perturb(af, rng)
        if tag == "delete_argument":
            assert out.arguments == frozenset()
            return
    pytest.fail("delete_argument never drawn")


def test_perturb_empty_af_only_adds():
    af = ArgumentationFramework(frozenset(), frozenset())
    rng = random.Random(3)
    for _ in range(20):
        out, tag = perturb(af, rng)
        assert tag == "add_argument"
        assert len(out.arguments) == 1


def test_operation_histogram():
    totals = {"delete_argument": 0, "add_argument": 0,
              "delete_attacks": 0, "add_attacks": 0}
    steps = 0
    for seed in range(10):
        rng = random.Random(seed)
        af = af_of(8, [(1, 2), (2, 3), (3, 4), (5, 6), (7, 8), (8, 1)])
        for _ in range(1000):
            af, tag = perturb(af, rng)
            totals[tag] += 1
            steps += 1
    expected = {"delete_argument": 0.10, "add_argument": 0.20,
                "delete_attacks": 0.40, "add_attacks": 0.30}
    for tag, p in expected.items():
        assert abs(totals[tag] / steps - p) < 0.05


def test_dynamic_sequence_counts_match_oracle():
    config = PerturbationConfig(steps=25, seed=11)
    session = Session(EngineConfig(cache_mode="shared"))
    af = af_of(6, [(1, 2), (2, 3), (4, 5)])
    records = dynamic_sequence(af, config, session)
    assert len(records) == 25
    for record in records:
        if len(record.af.arguments) <= 12:
            assert record.count == enumerate_complete_bruteforce(record.af)


def test_dynamic_sequence_mode_independent():
    af = af_of(5, [(1, 2), (2, 1), (3, 4)])
    reference = None
    for mode in ("no_shared", "shared"):
        session = Session(EngineConfig(cache_mode=mode))
        config = PerturbationConfig(steps=15, seed=5)
        records = dynamic_sequence(af, config, session)
        outcome = [(r.step, r.tag, r.count, r.af) for r in records]
        if reference is None:
            reference = outcome
        else:
            assert outcome == reference


def test_forced_delete_attack_on_mutual_pair():
    af = af_of(2, [(2, 1)])  # mutual pair after (1,2) was deleted
    assert enumerate_complete_bruteforce(af) == 1
    assert count_encoding(af) == 1

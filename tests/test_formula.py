import random

import pytest

from dyncount import (FormulaState, brute_force_count, decompose_components,
                      normalize_clause, primal_graph)
from dyncount.cache import make_key
from dyncount.formula import (MalformedLiteralError, TooManyVariablesError,
                              clause_key, clause_mask, count_truth_table,
                              vars_of)

from helpers import (clauses_of, condition, example1_state, is_tautology,
                     mask_clause, masks, random_cnf, var_set)


def test_normalize_sort_and_dedup():
    assert normalize_clause([2, 1, 2]) == (1, 2)


def test_normalize_tautology_flag():
    c = normalize_clause([1, -1])
    assert c == (-1, 1)
    assert is_tautology(c)
    assert not is_tautology(normalize_clause([1, 2]))


def test_normalize_deterministic_order():
    assert normalize_clause([-3, 1, -2]) == (1, -2, -3)


def test_normalize_rejects_bad_literals():
    with pytest.raises(MalformedLiteralError):
        normalize_clause([0])
    with pytest.raises(MalformedLiteralError):
        normalize_clause(["x1"])


def test_normalize_order_insensitive_and_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        raw = [rng.choice([1, -1]) * rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
        c = normalize_clause(raw)
        rng.shuffle(raw)
        assert normalize_clause(raw) == c
        assert normalize_clause(c) == c


def test_condition_golden_residuals():
    st = example1_state()
    phi_pos = condition(st.clauses, {3: True})
    assert phi_pos == {normalize_clause(c)
                       for c in [[-1, -2], [4, -1], [5, 1], [4, -2]]}
    phi_neg = condition(st.clauses, {3: False})
    assert phi_neg == {normalize_clause(c)
                       for c in [[1, 2], [4, -1], [5, 1], [5, 2]]}


def test_condition_falsified_unit_gives_empty_clause():
    assert condition({(1,)}, {1: False}) == {()}


def test_decompose_disjoint_groups():
    clauses = {normalize_clause(c) for c in [[1, 2], [-2, 3], [4, 5]]}
    comps = decompose_components(masks(clauses))
    assert [sorted(var_set(c.variables)) for c in comps] == [[1, 2, 3], [4, 5]]
    assert set().union(*(clauses_of(c.clauses) for c in comps)) == clauses


def test_decompose_empty():
    assert decompose_components(set()) == []


def test_decompose_residual_is_one_component():
    phi = condition(example1_state().clauses, {3: True})
    comps = decompose_components(masks(phi))
    assert len(comps) == 1
    assert var_set(comps[0].variables) == {1, 2, 4, 5}


def test_decompose_variable_sets_disjoint_random():
    rng = random.Random(11)
    for _ in range(30):
        st = random_cnf(rng, rng.randint(3, 12), rng.randint(2, 20))
        clauses = {c for c in st.clauses if c}
        comps = decompose_components(masks(clauses))
        seen = set()
        for comp in comps:
            assert not (var_set(comp.variables) & seen)
            seen |= var_set(comp.variables)
        assert set().union(*(clauses_of(c.clauses) for c in comps), set()) == clauses


def test_primal_graph_clause_clique():
    g = primal_graph({normalize_clause([1, 2, 3])})
    assert g.vertices == frozenset({1, 2, 3})
    assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_primal_graph_empty():
    g = primal_graph(set())
    assert not g.vertices and not g.edges


def test_primal_graph_example1():
    g = primal_graph(example1_state().clauses)
    expected = {(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (2, 5), (3, 5),
                (2, 4), (3, 4)}
    assert g.edges == frozenset(expected)


def test_brute_force_golden_values():
    assert brute_force_count(example1_state()) == 10
    sigma1 = FormulaState({1, 2}, {normalize_clause([1, 2])})
    sigma2 = FormulaState({1, 2}, {normalize_clause([1, 2]),
                                   normalize_clause([-1, -2])})
    assert brute_force_count(sigma1) == 3
    assert brute_force_count(sigma2) == 2


def test_brute_force_guard():
    with pytest.raises(TooManyVariablesError):
        brute_force_count(FormulaState(set(range(1, 28)), set()))


def test_conditioning_soundness_random():
    rng = random.Random(5)
    for _ in range(40):
        st = random_cnf(rng, rng.randint(2, 10), rng.randint(1, 15))
        v = rng.choice(sorted(st.active_vars))
        rest = st.active_vars - {v}
        total = brute_force_count(st)
        pos = count_truth_table(condition(st.clauses, {v: True}), rest)
        neg = count_truth_table(condition(st.clauses, {v: False}), rest)
        if () in condition(st.clauses, {v: True}):
            pos = 0
        if () in condition(st.clauses, {v: False}):
            neg = 0
        assert total == pos + neg


def test_component_factorization_random():
    rng = random.Random(9)
    for _ in range(40):
        st = random_cnf(rng, rng.randint(2, 20), rng.randint(1, 25))
        clauses = {c for c in st.clauses if c and not is_tautology(c)}
        if () in st.clauses:
            continue
        free = len(st.active_vars - vars_of(clauses))
        product = 1 << free
        for comp in decompose_components(masks(clauses)):
            product *= count_truth_table(clauses_of(comp.clauses),
                                         var_set(comp.variables))
        assert product == brute_force_count(
            FormulaState(st.active_vars, clauses))


def test_clause_mask_uses_the_clause_key_literal_code():
    assert clause_mask(()) == 0
    assert clause_mask((-1,)) == 1 << 2
    assert clause_mask((1,)) == 1 << 3
    for clause in [(-1, 2), (3, -70, 9999), (-10000, 10000)]:
        clause = normalize_clause(clause)
        mask = clause_mask(clause)
        assert mask.bit_count() == len(clause)
        assert all(mask >> code & 1 for code in clause_key(clause))


def test_mask_round_trip_both_polarities_and_large_variables():
    rng = random.Random(13)
    fixed = [(), (1,), (-1,), (-1, 1), (63, -64, 65), (-65, 66, -9999),
             (-9998, 9999, 10000)]
    drawn = [[rng.choice([1, -1]) * rng.randint(1, top)
              for _ in range(rng.randint(1, 6))]
             for top in (8, 64, 200, 10000) for _ in range(50)]
    for raw in fixed + drawn:
        clause = normalize_clause(raw)
        assert mask_clause(clause_mask(clause)) == clause


def test_mask_is_injective():
    rng = random.Random(19)
    seen = {}
    for _ in range(2000):
        top = rng.choice((4, 70, 10000))
        clause = normalize_clause([rng.choice([1, -1]) * rng.randint(1, top)
                                   for _ in range(rng.randint(1, 4))])
        assert seen.setdefault(clause_mask(clause), clause) == clause


def test_different_clause_sets_give_different_keys():
    # the same literal bits in total, split into clauses differently
    units = {normalize_clause([1]), normalize_clause([-2])}
    joined = {normalize_clause([1, -2])}
    assert make_key(masks(units)) != make_key(masks(joined))
    # the same variables with one polarity flipped
    assert (make_key(masks({normalize_clause([1, 2])}))
            != make_key(masks({normalize_clause([-1, 2])})))
    assert (make_key(masks({normalize_clause([-9999, 10000])}))
            != make_key(masks({normalize_clause([9999, 10000])})))

import random

import pytest

from dyncount import (EngineConfig, FormulaState, Session, SoftCoreConfig,
                      brute_force_count, compute_soft_core, normalize_clause,
                      verify_soft_core)
from dyncount.softcore import threshold_for

from helpers import random_cnf


def run_softcore(state, config=None, session=None, order=None):
    return compute_soft_core(state, config or SoftCoreConfig(),
                             session or Session(), order=order)


def test_threshold_arithmetic():
    config = SoftCoreConfig(delta=0.2)
    assert threshold_for(1, config) == 2  # ceil(1.2)
    assert threshold_for(5, config) == 6
    assert threshold_for(10, config) == 12
    assert threshold_for(0, config) == 0


def test_non_finite_delta_rejected():
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SoftCoreConfig(delta=delta)


def test_degenerate_single_clause_kept():
    state = FormulaState({1}, {normalize_clause([1])})
    result = run_softcore(state)
    # base 1, threshold ceil(1.2)=2; removal gives 2 <= 2 so it is dropped
    assert result.base_count == 1
    assert result.threshold == 2
    assert result.removed_indices == {1}
    assert result.final_count == 2


def test_subsumed_pair_default_delta():
    clauses = [normalize_clause([1]), normalize_clause([1, 2])]
    state = FormulaState({1, 2}, set(clauses))
    result = run_softcore(state, order=clauses)
    assert result.base_count == 2
    assert result.threshold == 3
    # removing the unit first leaves (1 v 2) with count 3 <= 3: accepted;
    # dropping the second clause too would give 4 > 3, so it stays
    assert result.per_step[0].count == 3
    assert result.removed_indices == {1}
    assert result.kept_indices == {2}
    assert result.final_count == 3


def test_tight_threshold_keeps_unit():
    clauses = [normalize_clause([1]), normalize_clause([1, 2])]
    state = FormulaState({1, 2}, set(clauses))
    result = run_softcore(state, SoftCoreConfig(delta=0.0), order=clauses)
    assert result.threshold == 2
    assert result.removed_indices == {2}
    assert result.per_step[0].count == 3  # unit removal tried first, rejected
    assert result.final_count == 2


def test_huge_delta_removes_everything():
    rng = random.Random(61)
    state = random_cnf(rng, 6, 10)  # satisfiable, base count 4
    result = run_softcore(state, SoftCoreConfig(delta=1e9))
    assert result.kept_indices == set()
    assert result.final_count == 1 << len(state.active_vars)


def test_unsat_input_threshold_zero():
    state = FormulaState({1, 2}, {normalize_clause([1]),
                                  normalize_clause([-1]),
                                  normalize_clause([1, 2])})
    result = run_softcore(state)
    assert result.base_count == 0
    assert result.threshold == 0
    assert result.final_count == 0
    # only removals that keep the count at zero were accepted
    kept = {result.clause_order[i - 1] for i in result.kept_indices}
    assert brute_force_count(FormulaState({1, 2}, kept)) == 0


def test_verify_accepts_own_result():
    rng = random.Random(71)
    for _ in range(10):
        state = random_cnf(rng, rng.randint(3, 10), rng.randint(3, 15))
        config = SoftCoreConfig()
        shuffled = sorted(state.clauses)
        rng.shuffle(shuffled)
        for order in (None, shuffled, shuffled[::-1]):
            result = run_softcore(state, config, order=order)
            assert verify_soft_core(state, result, config)


def test_verify_rejects_tampered_membership():
    clauses = [normalize_clause([1]), normalize_clause([1, 2])]
    state = FormulaState({1, 2}, set(clauses))
    config = SoftCoreConfig(delta=0.0)
    result = run_softcore(state, config, order=clauses)
    result.removed_indices.add(1)
    result.kept_indices.discard(1)
    assert not verify_soft_core(state, result, config)


def test_verify_rejects_decreasing_step_counts():
    rng = random.Random(73)
    state = random_cnf(rng, 6, 8)
    config = SoftCoreConfig()
    result = run_softcore(state, config)
    accepted = [s for s in result.per_step if s.accepted]
    if not accepted:
        pytest.skip("no accepted removal to tamper with")
    accepted[-1].count = -1
    assert not verify_soft_core(state, result, config)


def test_monotonicity_and_threshold_random():
    rng = random.Random(79)
    for _ in range(15):
        state = random_cnf(rng, rng.randint(3, 12), rng.randint(3, 20))
        config = SoftCoreConfig()
        result = run_softcore(state, config)
        assert result.final_count <= result.threshold
        current = result.base_count
        for step in result.per_step:
            if step.accepted:
                assert step.count >= current
                current = step.count


def test_determinism_per_order():
    rng = random.Random(83)
    state = random_cnf(rng, 8, 14)
    order = sorted(state.clauses)
    random.Random(4).shuffle(order)
    a = run_softcore(state, order=order)
    b = run_softcore(state, order=order)
    assert a.removed_indices == b.removed_indices
    assert [s.count for s in a.per_step] == [s.count for s in b.per_step]


def test_per_step_counts_match_oracle():
    rng = random.Random(89)
    state = random_cnf(rng, 7, 12)
    config = SoftCoreConfig()
    result = run_softcore(state, config)
    present = set(state.clauses)
    for step, clause in zip(result.per_step,
                            (result.clause_order[s.index - 1]
                             for s in result.per_step)):
        trial = FormulaState(set(state.active_vars), present - {clause})
        assert step.count == brute_force_count(trial)
        if step.accepted:
            present.discard(clause)

import random

from dyncount import (FormulaState, condition, normalize_clause)
from dyncount.cache import (ComponentCache, build_renaming, canonicalize,
                            frequency_profile, key_bytes, make_key,
                            sort_profile)
from dyncount.formula import count_truth_table, vars_of

from helpers import example1_state, random_cnf


def residuals():
    st = example1_state()
    return (condition(st.clauses, {3: True}),
            condition(st.clauses, {3: False}))


def test_frequency_profile_golden_pairs():
    phi_pos, phi_neg = residuals()
    prof = frequency_profile(phi_pos)
    assert {v: p[0] for v, p in prof.items()} == {1: 1, 2: 2, 4: -4, 5: -5}
    prof = frequency_profile(phi_neg)
    assert {v: p[0] for v, p in prof.items()} == {1: -1, 2: -2, 4: -4, 5: -5}


def test_frequency_profile_tie_puts_negative_first():
    prof = frequency_profile({normalize_clause([1, 2])})
    assert prof == {1: (-1, 0, 1), 2: (-2, 0, 1)}


def test_sort_profile_golden_order():
    phi_pos, phi_neg = residuals()
    assert sort_profile(frequency_profile(phi_pos)) == [
        (5, -5), (2, 2), (4, -4), (1, 1)]
    assert sort_profile(frequency_profile(phi_neg)) == [
        (4, -4), (2, -2), (5, -5), (1, -1)]


def test_build_renaming_positional_rule():
    phi_pos, _ = residuals()
    sigma = build_renaming(sort_profile(frequency_profile(phi_pos)))
    assert sigma[-5] == -1 and sigma[2] == -2 and sigma[-4] == -3 and sigma[1] == -4
    # complements follow automatically (stability)
    assert sigma[5] == 1 and sigma[-2] == 2 and sigma[4] == 3 and sigma[-1] == 4


def test_renaming_stability_random():
    rng = random.Random(2)
    for _ in range(30):
        st = random_cnf(rng, rng.randint(2, 10), rng.randint(1, 12))
        clauses = {c for c in st.clauses if c}
        sigma = build_renaming(sort_profile(frequency_profile(clauses)))
        for l, target in sigma.items():
            assert sigma[-l] == -target


def test_canonicalize_golden_pair():
    phi_pos, phi_neg = residuals()
    key_pos, _ = canonicalize(phi_pos)
    key_neg, _ = canonicalize(phi_neg)
    assert key_pos == key_neg
    expected = {normalize_clause(c) for c in [[4, 2], [1, -4], [3, 4], [3, 2]]}
    assert set(key_pos) == expected


def test_canonicalize_empty():
    assert canonicalize(set()) == ((), {})


def test_canonicalize_preserves_count_random():
    rng = random.Random(6)
    for _ in range(40):
        st = random_cnf(rng, rng.randint(2, 15), rng.randint(1, 20))
        clauses = {c for c in st.clauses if c}
        key, _ = canonicalize(clauses)
        assert (count_truth_table(key, vars_of(key))
                == count_truth_table(clauses, vars_of(clauses)))


def test_renaming_invariance_without_ties():
    rng = random.Random(13)
    checked = 0
    while checked < 15:
        st = random_cnf(rng, rng.randint(3, 8), rng.randint(3, 14))
        clauses = {c for c in st.clauses if c}
        prof = frequency_profile(clauses)
        pairs = [(p[1], p[2]) for p in prof.values()]
        if len(set(pairs)) != len(pairs) or any(a == b for a, b in pairs):
            continue  # tied profiles are only quasi-canonical
        checked += 1
        vs = sorted(vars_of(clauses))
        shuffled = list(vs)
        rng.shuffle(shuffled)
        rho = dict(zip(vs, shuffled))
        flip = {v: rng.random() < 0.5 for v in vs}

        def rename(l):
            v, target = abs(l), rho[abs(l)]
            lit = target if l > 0 else -target
            return -lit if flip[v] else lit

        renamed = {normalize_clause([rename(l) for l in c]) for c in clauses}
        assert canonicalize(renamed)[0] == canonicalize(clauses)[0]


def test_key_is_context_free():
    phi_pos, _ = residuals()
    key = make_key(phi_pos)
    assert make_key(set(key)) == key


def test_distinguishes_sigma_pair_in_every_mode():
    sigma1 = {normalize_clause([1, 2])}
    sigma2 = {normalize_clause([1, 2]), normalize_clause([-1, -2])}
    for symmetry in (False, True):
        assert make_key(sigma1, symmetry) != make_key(sigma2, symmetry)


def test_lookup_round_trip_and_idempotent_store():
    cache = ComponentCache(1 << 20)
    key = make_key({normalize_clause([1, 2])})
    assert cache.lookup(key) is None
    cache.store(key, 3)
    cache.store(key, 3)
    assert len(cache.entries) == 1
    assert cache.lookup(key) == 3
    assert cache.entries[key].hits == 1


def test_eviction_prefers_hitless_entries():
    key_a = make_key({normalize_clause([1, 2])})
    key_b = make_key({normalize_clause([3, 4])})
    budget = key_bytes(key_a) + key_bytes(key_b)
    cache = ComponentCache(budget)
    cache.store(key_a, 3)
    cache.store(key_b, 3)
    for _ in range(5):
        cache.lookup(key_a)
    cache.store(make_key({normalize_clause([5, 6])}), 3)  # pushes over budget
    assert key_a in cache.entries
    assert key_b not in cache.entries
    assert cache.bytes_used <= budget


def test_eviction_noop_under_budget():
    cache = ComponentCache(1 << 20)
    cache.store(make_key({normalize_clause([1, 2])}), 3)
    before = dict(cache.entries)
    cache.evict()
    assert cache.entries == before


def test_oversized_key_not_stored():
    cache = ComponentCache(64)
    big = make_key({normalize_clause(list(range(1, 30)))})
    cache.store(big, 1)
    assert big not in cache.entries
    assert cache.lookup(big) is None

from dyncount import condition, normalize_clause
from dyncount.cache import ComponentCache, key_bytes, make_key

from helpers import example1_state, masks


def test_key_is_context_free():
    phi_pos = condition(example1_state().clauses, {3: True})
    key = make_key(masks(phi_pos))
    assert make_key(set(key)) == key


def test_distinguishes_sigma_pair_in_every_mode():
    sigma1 = {normalize_clause([1, 2])}
    sigma2 = {normalize_clause([1, 2]), normalize_clause([-1, -2])}
    assert make_key(masks(sigma1)) != make_key(masks(sigma2))


def test_lookup_round_trip_and_idempotent_store():
    cache = ComponentCache(1 << 20)
    key = make_key(masks({normalize_clause([1, 2])}))
    assert cache.lookup(key) is None
    cache.store(key, 3)
    cache.store(key, 3)
    assert len(cache.entries) == 1
    assert cache.lookup(key) == 3
    assert cache.entries[key].hits == 1


def test_eviction_prefers_hitless_entries():
    key_a = make_key(masks({normalize_clause([1, 2])}))
    key_b = make_key(masks({normalize_clause([3, 4])}))
    budget = key_bytes(key_a) + key_bytes(key_b)
    cache = ComponentCache(budget)
    cache.store(key_a, 3)
    cache.store(key_b, 3)
    for _ in range(5):
        cache.lookup(key_a)
    cache.store(make_key(masks({normalize_clause([5, 6])})), 3)  # pushes over budget
    assert key_a in cache.entries
    assert key_b not in cache.entries
    assert cache.bytes_used <= budget


def test_eviction_noop_under_budget():
    cache = ComponentCache(1 << 20)
    cache.store(make_key(masks({normalize_clause([1, 2])})), 3)
    before = dict(cache.entries)
    cache.evict()
    assert cache.entries == before


def test_oversized_key_not_stored():
    cache = ComponentCache(64)
    big = make_key(masks({normalize_clause(list(range(1, 30)))}))
    cache.store(big, 1)
    assert big not in cache.entries
    assert cache.lookup(big) is None

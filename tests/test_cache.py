import random

from dyncount import (EngineConfig, Session, UpdateOp, brute_force_count,
                      normalize_clause)
from dyncount.cache import ComponentCache, key_bytes, make_key

from helpers import condition, example1_state, masks, random_3cnf


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
    assert cache.entries[key] == 3


def test_eviction_drops_oldest_first():
    keys = [make_key(masks({normalize_clause([v, v + 1])})) for v in range(1, 10, 2)]
    budget = sum(map(key_bytes, keys[:4]))
    cache = ComponentCache(budget)
    for key in keys[:4]:
        cache.store(key, 3)
    for _ in range(5):
        cache.lookup(keys[0])  # hits do not protect an entry
    cache.store(keys[4], 3)  # pushes over budget; evicts down to 0.8 * budget
    assert list(cache.entries) == keys[2:]
    assert cache.evictions == 2
    assert cache.bytes_used == sum(map(key_bytes, keys[2:])) <= budget


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


def test_byte_accounting_under_eviction():
    # bytes_used is kept by adding and subtracting key_bytes, never by
    # a stored size, so after every count it must equal the recomputed sum
    rng = random.Random(131)
    evicted = 0
    for budget in (2048, 4096, 8192):
        for _ in range(6):
            session = Session(EngineConfig(cache_byte_budget=budget))
            session.state = random_3cnf(rng, 14, 50)
            for _ in range(12):
                clauses = sorted(session.state.clauses)
                if clauses and rng.random() < 0.6:
                    session.apply_op(UpdateOp.rem_clause(rng.choice(clauses)))
                else:
                    extra = random_3cnf(rng, 14, 1).clauses - session.state.clauses
                    for clause in extra:
                        session.apply_op(UpdateOp.add_clause(clause))
                assert session.checkpoint_count() == brute_force_count(session.state)
                cache = session.cache
                assert cache.bytes_used == sum(map(key_bytes, cache.entries))
                assert cache.bytes_used <= cache.byte_budget
            evicted += cache.evictions
    assert evicted > 0

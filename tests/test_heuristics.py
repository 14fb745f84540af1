import random

from dyncount import (compute_tree_decomposition, condition, dlcs_score,
                      normalize_clause, primal_graph, record_conflict,
                      select_branch_variable, td_valid_for, vsads_score)
from dyncount.formula import PrimalGraph

from helpers import example1_state, masks, random_cnf


def phi_x3():
    return condition(example1_state().clauses, {3: True})


def test_dlcs_scores():
    phi = phi_x3()
    assert dlcs_score(phi, 1) == 3
    assert dlcs_score(phi, 5) == 1
    assert dlcs_score({normalize_clause([1, 2])}, 1) == 1


def test_vsads_arithmetic():
    phi = {normalize_clause([1, 2]), normalize_clause([1, 3]),
           normalize_clause([1, -4])}
    assert vsads_score(phi, 1, {}) == 3
    assert vsads_score(phi, 1, {1: 4}) == 15


def test_vsads_matches_dlcs_without_conflicts():
    rng = random.Random(17)
    for _ in range(25):
        st = random_cnf(rng, rng.randint(2, 10), rng.randint(1, 15))
        clauses = {c for c in st.clauses if c}
        if not clauses:
            continue
        assert (select_branch_variable(masks(clauses), "dlcs")
                == select_branch_variable(masks(clauses), "vsads", {}))


def test_record_conflict_counts_clause_variables():
    conflicts = {}
    record_conflict(conflicts, normalize_clause([-1, 2]))
    assert conflicts == {1: 1, 2: 1}
    record_conflict(conflicts, normalize_clause([-1, 2]))
    assert conflicts == {1: 2, 2: 2}


def test_conflict_raises_vsads_score():
    phi = phi_x3()
    before = vsads_score(phi, 1, {})
    conflicts = record_conflict({}, normalize_clause([-1]))
    assert vsads_score(phi, 1, conflicts) > before


def test_td_empty_graph():
    td = compute_tree_decomposition(PrimalGraph(frozenset(), frozenset()))
    assert td.bags == [frozenset()]
    assert td.width == 0


def test_td_triangle():
    g = primal_graph({normalize_clause([1, 2, 3])})
    td = compute_tree_decomposition(g)
    assert td.width == 2
    assert any(bag == frozenset({1, 2, 3}) for bag in td.bags)
    assert td_valid_for(td, g)


def test_td_path_width_one():
    g = PrimalGraph(frozenset({1, 2, 3, 4}),
                    frozenset({(1, 2), (2, 3), (3, 4)}))
    td = compute_tree_decomposition(g)
    assert td.width == 1
    assert td_valid_for(td, g)


def _random_graph(rng, n, p):
    edges = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p}
    return PrimalGraph(frozenset(range(1, n + 1)), frozenset(edges))


def _bags_connected(td):
    # bags holding any fixed variable must form a connected subtree
    adj = {i: set() for i in range(len(td.bags))}
    for a, b in td.tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    variables = set().union(*td.bags) if td.bags else set()
    for v in variables:
        holding = {i for i, bag in enumerate(td.bags) if v in bag}
        start = next(iter(holding))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in holding and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != holding:
            return False
    return True


def test_td_structural_validity_random():
    rng = random.Random(23)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.6))
        td = compute_tree_decomposition(g)
        assert td_valid_for(td, g)
        assert _bags_connected(td)


def test_td_validity_survives_edge_removal():
    rng = random.Random(29)
    g = _random_graph(rng, 10, 0.4)
    td = compute_tree_decomposition(g)
    edges = sorted(g.edges)
    while edges:
        edges.pop(rng.randrange(len(edges)))
        assert td_valid_for(td, PrimalGraph(g.vertices, frozenset(edges)))


def test_td_invalid_for_new_edge_and_vertex():
    g = PrimalGraph(frozenset({1, 2, 3, 4}),
                    frozenset({(1, 2), (2, 3), (3, 4)}))
    td = compute_tree_decomposition(g)
    grown = PrimalGraph(g.vertices, g.edges | {(1, 4)})
    assert not td_valid_for(td, grown)
    extra_vertex = PrimalGraph(g.vertices | {9}, g.edges)
    assert not td_valid_for(td, extra_vertex)


def test_select_dlcs_plain():
    clauses = {normalize_clause([1, 2, 3]), normalize_clause([-1, 4])}
    assert select_branch_variable(masks(clauses), "dlcs") == 1


def test_select_example1_tie_breaks_low():
    assert select_branch_variable(masks(example1_state().clauses), "dlcs") == 1


def test_select_scale_invariance_via_conflicts():
    # multiplying all base scores by a constant keeps the argmax
    rng = random.Random(31)
    for _ in range(20):
        st = random_cnf(rng, rng.randint(2, 8), rng.randint(1, 12))
        clauses = {c for c in st.clauses if c}
        if not clauses:
            continue
        scale = {v: 6 for c in clauses for l in c for v in (abs(l),)}
        plain = select_branch_variable(masks(clauses), "vsads", {})
        scaled = select_branch_variable(masks(clauses), "vsads",
                                        {v: 5 for v in scale})
        assert plain == scaled


def test_select_matches_scalar_scores_random():
    # the bit-sliced counters against the per-variable definitions; dense
    # formulas push counts past 8, into the slices kept in a list
    rng = random.Random(37)
    for _ in range(60):
        st = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 60))
        clauses = {c for c in st.clauses if c}
        variables = sorted({abs(l) for c in clauses for l in c})
        dlcs = min(variables, key=lambda v: (-dlcs_score(clauses, v), v))
        assert select_branch_variable(masks(clauses), "dlcs") == dlcs
        conflicts = {v: rng.randint(0, 3) for v in variables}
        vsads = min(variables,
                    key=lambda v: (-vsads_score(clauses, v, conflicts), v))
        assert select_branch_variable(masks(clauses), "vsads", conflicts) == vsads

import random

from dyncount import (compute_tree_decomposition, normalize_clause,
                      primal_graph, select_branch_variable, td_valid_for)
from dyncount.formula import PrimalGraph

from helpers import (condition, dlcs_score, example1_state, masks, random_cnf,
                     reference_tree_decomposition)


def phi_x3():
    return condition(example1_state().clauses, {3: True})


def test_dlcs_scores():
    phi = phi_x3()
    assert dlcs_score(phi, 1) == 3
    assert dlcs_score(phi, 5) == 1
    assert dlcs_score({normalize_clause([1, 2])}, 1) == 1


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


def _random_graph(rng, labels, p):
    edges = {(u, v) for u in labels for v in labels
             if u < v and rng.random() < p}
    return PrimalGraph(frozenset(labels), frozenset(edges))


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
        n = rng.randint(1, 14)
        g = _random_graph(rng, range(1, n + 1), rng.uniform(0.1, 0.6))
        td = compute_tree_decomposition(g)
        assert td_valid_for(td, g)
        assert _bags_connected(td)


def test_td_matches_rescoring_reference():
    # the null, edgeless, complete, star and disconnected graphs, then
    # random ones: isolated vertices arise at low density, and labels are
    # 1..n, multiples of 7 or spread past 64, so positions and labels differ
    labels = [3, 7, 14, 65, 70, 128, 200]
    pairs = [(u, v) for u in labels for v in labels if u < v]
    graphs = [
        PrimalGraph(frozenset(), frozenset()),
        PrimalGraph(frozenset(labels), frozenset()),
        PrimalGraph(frozenset(labels), frozenset(pairs)),
        PrimalGraph(frozenset(labels), frozenset((3, v) for v in labels[1:])),
        PrimalGraph(frozenset(labels) | {300, 301, 500},
                    frozenset([(3, 7), (7, 14), (3, 14), (65, 128),
                               (128, 200), (70, 200), (300, 301)])),
    ]
    rng = random.Random(41)
    for k in range(330):
        n = rng.randint(0, 30)
        spread = [range(1, n + 1), range(7, 7 * n + 1, 7),
                  sorted(rng.sample(range(1, 400), n))][k % 3]
        p = 0.0 if k % 10 == 0 else 1.0 if k % 10 == 1 else rng.random()
        graphs.append(_random_graph(rng, spread, p))
    for g in graphs:
        td = compute_tree_decomposition(g)
        ref = reference_tree_decomposition(g)
        assert (td.bags, td.tree_edges, td.width) == \
            (ref.bags, ref.tree_edges, ref.width), g


def test_td_validity_survives_edge_removal():
    rng = random.Random(29)
    g = _random_graph(rng, range(1, 11), 0.4)
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
    assert select_branch_variable(masks(clauses)) == 1


def test_select_example1_tie_breaks_low():
    assert select_branch_variable(masks(example1_state().clauses)) == 1


def test_select_matches_scalar_scores_random():
    # the bit-sliced counters against the per-variable definition; dense
    # formulas push counts past 8, into the slices kept in a list
    rng = random.Random(37)
    for _ in range(60):
        st = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 60))
        clauses = {c for c in st.clauses if c}
        variables = sorted({abs(l) for c in clauses for l in c})
        dlcs = min(variables, key=lambda v: (-dlcs_score(clauses, v), v))
        assert select_branch_variable(masks(clauses)) == dlcs

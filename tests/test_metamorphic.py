"""Metamorphic checks: input transformations whose effect on the count is
known, so no oracle has to be trusted for the expected value."""

import random

from meccount import (
    UndirectedGraph,
    brute_count_mecs,
    brute_count_mecs_andersson,
    count_mecs,
    count_rec,
    counting,
)
from meccount.treedecomp import TreeDecomposition, tree_decomposition

import oracles
from conftest import grid, ladder, random_connected_graph

ROUTES = {
    "orientation": brute_count_mecs,
    "filter": brute_count_mecs_andersson,
    "fpt": lambda G: count_mecs(G, "fpt"),
}


def _relabel(G, perm):
    return UndirectedGraph(
        vertices=[perm[v] for v in G.vertices],
        edges=[(perm[u], perm[v]) for u, v in G.edges],
    )


def test_counts_invariant_under_relabelling():
    # a shuffled labelling reorders the skeleton edges the kernels see
    rng = random.Random(90)
    for _ in range(8):
        G = random_connected_graph(rng, rng.randint(4, 6), max_degree=3)
        shuffled = list(G.vertices)
        rng.shuffle(shuffled)
        H = _relabel(G, dict(zip(G.vertices, shuffled)))
        for name, route in ROUTES.items():
            assert route(H) == route(G), name


def test_shuffled_labels_replay_the_ordered_inputs_cuts(monkeypatch):
    # min-fill and the fold's relabelling break ties by a breadth-first walk,
    # not by the label, so a shuffled input computes the cuts the ordered
    # one does and replays the rest: a timer-free pin of the fold memo
    rows = []
    real = counting.extensions

    def recorded(cut, candidates, *sides):
        rows.append(len(candidates))
        return real(cut, candidates, *sides)

    monkeypatch.setattr(counting, "extensions", recorded)

    def work(G):
        rows.clear()
        return count_mecs(G, "fpt"), len(rows), sum(rows)

    path = UndirectedGraph(edges=[(i, i + 1) for i in range(40)])
    cycle = UndirectedGraph(edges=[(i, (i + 1) % 60) for i in range(60)])
    cases = [  # graph, computed cuts and candidate rows, shuffles
        (path, (3, 39), 3),
        (cycle, (6, 323), 3),
        (ladder(7), (8, 1075), 3),
        (ladder(11), (8, 1075), 3),
        (grid(3, 8), (15, 23692), 1),
    ]
    rng = random.Random(94)
    for G, pin, shuffles in cases:
        ordered = work(G)
        assert ordered[1:] == pin
        for _ in range(shuffles):
            labels = list(G.vertices)
            rng.shuffle(labels)
            assert work(_relabel(G, dict(zip(G.vertices, labels)))) == ordered


def test_disjoint_union_counts_the_product():
    rng = random.Random(91)
    for _ in range(6):
        A = random_connected_graph(rng, rng.randint(3, 5), max_degree=3)
        B = random_connected_graph(rng, rng.randint(3, 5), max_degree=3)
        B = _relabel(B, {v: v + A.n for v in B.vertices})
        union = UndirectedGraph(
            vertices=list(A.vertices) + list(B.vertices), edges=list(A.edges) + list(B.edges)
        )
        for name, route in ROUTES.items():
            assert route(union) == route(A) * route(B), name


def test_count_rec_total_does_not_depend_on_the_root():
    rng = random.Random(92)
    for _ in range(3):
        G = random_connected_graph(rng, rng.randint(8, 10), max_degree=3, extra=2)
        td = tree_decomposition(G)
        totals = {
            root: count_rec(
                G, TreeDecomposition(bags=dict(td.bags), tree_edges=td.tree_edges, root=root), root
            ).total()
            for root in td.indices
        }
        assert len(set(totals.values())) == 1, totals
        assert totals[td.root] == brute_count_mecs(G)


def test_count_rec_total_does_not_depend_on_the_decomposition():
    # random elimination orders, uncontracted, against the min_fill one
    rng = random.Random(93)
    for _ in range(4):
        G = random_connected_graph(rng, rng.randint(8, 10), max_degree=3, extra=2)
        td = tree_decomposition(G)
        expected = count_rec(G, td, td.root).total()
        tried = 0
        while tried < 3:
            order = list(G.vertices)
            rng.shuffle(order)
            td = oracles.td_from_elimination_order(G, order, root=rng.randrange(G.n))
            if td.width > 4:
                continue  # keeps each cut's boundary small enough for a fast test
            tried += 1
            assert count_rec(G, td, td.root).total() == expected, order

import random
import sys

import pytest

from meccount import (
    GraphInputError,
    Pdag,
    Shadow,
    ShadowTable,
    UndirectedGraph,
    brute_count_mecs,
    brute_force_count,
    count_mecs,
    count_rec,
    shadow_of_mec,
    tfp_table,
)
from meccount.counting import AUTO_BRUTE_EDGE_THRESHOLD
from meccount.tfp import EMPTY_TABLE
from meccount.treedecomp import TreeDecomposition, tree_decomposition

import oracles
from conftest import connected_graphs, random_connected_graph

FIG1 = UndirectedGraph(edges=[("A", "B"), ("A", "C")])
K2 = UndirectedGraph(edges=[("a", "b")])
P3 = UndirectedGraph(edges=[("a", "b"), ("b", "c")])
P4 = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])


class TestShadowTable:
    def test_absent_is_zero(self):
        F = ShadowTable(domain=K2)
        s = Shadow(UndirectedGraph(edges=[("a", "b")]), EMPTY_TABLE)
        assert F.count(s) == 0
        F.add(s, 2)
        F.add(s, 3)
        assert F.count(s) == 5
        assert F.total() == 5

    def test_zero_add_keeps_sparse(self):
        F = ShadowTable(domain=K2)
        s = Shadow(UndirectedGraph(edges=[("a", "b")]), EMPTY_TABLE)
        F.add(s, 0)
        assert len(F) == 0

    def test_domain_enforced(self):
        F = ShadowTable(domain=K2)
        s = Shadow(UndirectedGraph(edges=[("x", "y")]), EMPTY_TABLE)
        with pytest.raises(GraphInputError):
            F.add(s, 1)


class TestBruteForceCount:
    def test_k2(self):
        F = brute_force_count(K2)
        assert len(F) == 1 and F.total() == 1
        (s,) = list(F)
        assert s.o == Pdag(undirected=[("a", "b")])

    def test_fig1(self):
        F = brute_force_count(FIG1)
        assert F.total() == 2
        boundaries = {s.o for s in F}
        assert Pdag(undirected=[("A", "B"), ("A", "C")]) in boundaries
        assert Pdag(directed=[("B", "A"), ("C", "A")]) in boundaries

    def test_k3(self):
        K3 = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        F = brute_force_count(K3)
        assert F.total() == 1
        (s,) = list(F)
        assert s.o.is_fully_undirected()

    def test_every_count_is_one(self):
        for G in connected_graphs(4):
            F = brute_force_count(G)
            assert all(c == 1 for _, c in F.items())
            assert F.total() == brute_count_mecs(G)


class TestCountRec:
    def test_p3_two_bags(self):
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("bc")},
            tree_edges=frozenset({(0, 1)}),
            root=0,
        )
        F = count_rec(P3, td, 0)
        assert F.total() == 2

    def test_single_bag_is_base_case(self):
        td = TreeDecomposition(
            bags={0: frozenset("ab")}, tree_edges=frozenset(), root=0
        )
        F = count_rec(K2, td, 0)
        G_ = brute_force_count(K2)
        assert dict(F.items()) == dict(G_.items())

    def test_p4_three_bags(self):
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("bc"), 2: frozenset("cd")},
            tree_edges=frozenset({(0, 1), (1, 2)}),
            root=0,
        )
        F = count_rec(P4, td, 0)
        assert F.total() == brute_count_mecs(P4) == oracles.count_mecs_by_dags(P4)

    def test_table_entries_count_classes_by_boundary_shadow(self):
        rng = random.Random(61)
        from meccount import enumerate_mecs

        for _ in range(8):
            G = random_connected_graph(rng, rng.randint(3, 6))
            td = tree_decomposition(G)
            F = count_rec(G, td, td.root)
            boundary = frozenset(G.closed_neighborhood(td.bags[td.root]))
            buckets = {}
            for M in enumerate_mecs(G):
                s = shadow_of_mec(M, boundary)
                buckets[s] = buckets.get(s, 0) + 1
            assert dict(F.items()) == buckets

    def test_table_mass_at_every_recursion_level(self):
        from meccount.treedecomp import cut_last_child

        rng = random.Random(64)
        for _ in range(5):
            G = random_connected_graph(rng, rng.randint(4, 6), max_degree=3)
            stack = [(G, tree_decomposition(G))]
            while stack:
                g, t = stack.pop()
                assert count_rec(g, t, t.root).total() == brute_count_mecs(g)
                if len(t.bags) == 1:
                    continue
                td1, td2, _ = cut_last_child(t, t.root)
                stack.append((g.induced_subgraph(td1.vertices()), td1))
                stack.append((g.induced_subgraph(td2.vertices()), td2))


class TestCountMecs:
    def test_fig1(self):
        assert count_mecs(FIG1) == 2
        assert count_mecs(FIG1, "fpt") == 2
        assert count_mecs(FIG1, "brute") == 2

    def test_k2(self):
        assert count_mecs(K2) == 1

    def test_k4_complete(self):
        K4 = UndirectedGraph(edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert oracles.count_mecs_by_dags(K4) == 1
        assert count_mecs(K4, "fpt") == 1

    def test_empty_graph(self):
        assert count_mecs(UndirectedGraph()) == 1

    def test_disconnected_is_product(self):
        G = UndirectedGraph(edges=[("a", "b"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")])
        assert count_mecs(G, "fpt") == 2 * 1
        assert count_mecs(G, "brute") == 2

    def test_auto_threshold(self):
        small = UndirectedGraph(edges=[(i, i + 1) for i in range(AUTO_BRUTE_EDGE_THRESHOLD)])
        big = UndirectedGraph(edges=[(i, i + 1) for i in range(AUTO_BRUTE_EDGE_THRESHOLD + 1)])
        # both go through, whatever route auto picks must match brute
        assert count_mecs(small, "auto") == brute_count_mecs(small)
        assert count_mecs(big, "auto") == brute_count_mecs(big)

    def test_seven_cycle_with_three_pendants(self):
        # side 2 of the cut between bags {0, 2, 8} and {2, 4, 8} is the path
        # 7-2-4-6-9-1-8-5; a boundary with 0 -> 2 <- 7 and 0 -> 8 <- 5 forces
        # 2 -> 4 -> 6 and 8 -> 1, which meet at 9, outside the boundary, as a
        # collider that side 2's collider-free class does not have
        G = UndirectedGraph(
            vertices=range(10),
            edges=[(0, 2), (0, 3), (0, 8), (1, 8), (1, 9), (2, 4), (2, 7), (4, 6), (5, 8), (6, 9)],
        )
        assert count_mecs(G, "fpt") == brute_count_mecs(G) == 226

    def test_rejects_directed_input(self):
        with pytest.raises(GraphInputError):
            count_mecs(Pdag(directed=[("a", "b")]))

    def test_long_path_leaves_recursion_limit_alone(self):
        n = 600
        path = UndirectedGraph(edges=[(i, i + 1) for i in range(n - 1)])
        fib, nxt = 0, 1
        for _ in range(n):
            fib, nxt = nxt, fib + nxt
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            assert count_mecs(path) == fib
            assert sys.getrecursionlimit() == 300
        finally:
            sys.setrecursionlimit(before)


class TestInvariance:
    def test_heuristic_and_root_invariance(self):
        rng = random.Random(63)
        for _ in range(6):
            G = random_connected_graph(rng, rng.randint(3, 6), max_degree=3)
            expected = brute_count_mecs(G)
            for heuristic in ("min_fill", "min_degree"):
                td = tree_decomposition(G, heuristic)
                for root in td.indices:
                    rooted = TreeDecomposition(
                        bags=dict(td.bags), tree_edges=td.tree_edges, root=root
                    )
                    assert count_rec(G, rooted, root).total() == expected

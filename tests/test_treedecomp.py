import random

import pytest

from meccount import (
    GraphInputError,
    PreconditionError,
    TreeDecomposition,
    UndirectedGraph,
    cut_last_child,
    tree_decomposition,
    validate_td,
)
from meccount import Pdag, treedecomp

import oracles
from conftest import random_connected_graph


def test_tree_has_width_one():
    T = UndirectedGraph(edges=[(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    td = tree_decomposition(T)
    assert td.width == 1
    assert validate_td(T, td)


def test_k4_width_three():
    K4 = UndirectedGraph(edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])
    td = tree_decomposition(K4)
    assert td.width == 3


def test_c4_width_two_min_fill():
    C4 = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    td = tree_decomposition(C4)
    assert td.width == 2
    assert validate_td(C4, td)


def test_disconnected_rejected():
    for G in (
        UndirectedGraph(vertices=[0, 1, 2], edges=[(0, 1)]),
        UndirectedGraph(edges=[(0, 1), (2, 3), (3, 4)]),
    ):
        with pytest.raises(GraphInputError, match="connected"):
            tree_decomposition(G)


def test_directed_rejected():
    with pytest.raises(GraphInputError, match="undirected"):
        tree_decomposition(Pdag(directed=[(0, 1)]))


def _mixed_labels(rng, G):
    """``G`` with each vertex kept as an int or renamed to a str at random."""
    name = {v: v if rng.random() < 0.5 else f"v{v}" for v in G.vertices}
    return UndirectedGraph(
        vertices=[name[v] for v in G.vertices], edges=[(name[u], name[v]) for u, v in G.edges]
    )


class TestAgainstReference:
    def test_same_bags_edges_and_root_as_rescoring_every_vertex(self):
        # the heap re-scores only the eliminated vertex's neighbourhood and
        # contracts in one pass; the reference re-scores everything at each
        # step and restarts its contraction scan after every merge
        rng = random.Random(16)
        contracted = 0
        for k in range(520):
            n = rng.randint(2, 16)
            G = _mixed_labels(rng, random_connected_graph(rng, n, extra=rng.randint(0, 2 * n)))
            td = tree_decomposition(G)
            ref = oracles.tree_decomposition_reference(G)
            assert (td.bags, td.tree_edges, td.root) == (ref.bags, ref.tree_edges, ref.root)
            contracted += len(td.bags) < n
        assert contracted > 500

    def test_path_scores_linearly_many_fills(self, monkeypatch):
        calls = []
        real = treedecomp._fill_count

        def counted(adj, v):
            calls.append(1)
            return real(adj, v)

        monkeypatch.setattr(treedecomp, "_fill_count", counted)
        n = 2000
        td = tree_decomposition(UndirectedGraph(edges=[(i, i + 1) for i in range(n - 1)]))
        assert td.width == 1 and len(td.bags) == n - 1
        assert len(calls) <= 4 * n


class TestValidate:
    def test_valid_path_bags(self):
        P3 = UndirectedGraph(edges=[("a", "b"), ("b", "c")])
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("bc")},
            tree_edges=frozenset({(0, 1)}),
            root=0,
        )
        assert validate_td(P3, td)

    def test_uncovered_edge(self):
        P3 = UndirectedGraph(edges=[("a", "b"), ("b", "c")])
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("c")},
            tree_edges=frozenset({(0, 1)}),
            root=0,
        )
        assert not validate_td(P3, td)

    def test_disconnected_holding_set(self):
        K3 = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("bc"), 2: frozenset("ac")},
            tree_edges=frozenset({(0, 1), (1, 2)}),
            root=0,
        )
        assert not validate_td(K3, td)

    def test_separator_property_detected(self):
        # bags cover the square's vertices and edges but the intersection of
        # the two bags fails to separate the remainders
        C4 = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        td = TreeDecomposition(
            bags={0: frozenset({0, 1, 2}), 1: frozenset({2, 3, 0})},
            tree_edges=frozenset({(0, 1)}),
            root=0,
        )
        # this one is actually fine: {0, 2} separates 1 from 3
        assert validate_td(C4, td)
        bad = TreeDecomposition(
            bags={0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({2, 3, 0})},
            tree_edges=frozenset({(0, 1), (1, 2)}),
            root=0,
        )
        assert not validate_td(C4, bad)


class TestValidateAgainstReference:
    def _corrupt(self, rng, G, td):
        bags = dict(td.bags)
        edges = set(td.tree_edges)
        kinds = ("drop", "add", "rewire") if edges else ("drop", "add")
        kind = rng.choice(kinds)
        i = rng.choice(sorted(bags))
        if kind == "drop" and bags[i]:
            bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
        elif kind == "add":
            bags[i] = bags[i] | {rng.choice(G.vertices)}
        elif kind == "rewire":
            a, b = rng.choice(sorted(edges))
            edges.discard((a, b))
            keep = rng.choice((a, b))
            other = rng.choice([j for j in bags if j != keep])
            edges.add((min(keep, other), max(keep, other)))
        return TreeDecomposition(bags=bags, tree_edges=frozenset(edges), root=td.root)

    def test_linear_check_matches_definition_on_corrupted_decompositions(self):
        rng = random.Random(15)
        rejected = 0
        for k in range(320):
            G = random_connected_graph(rng, rng.randint(3, 8))
            td = oracles.td_from_random_order(G, rng) if k % 2 else tree_decomposition(G)
            assert oracles.validate_td_reference(G, td)
            bad = td
            for _ in range(rng.randint(1, 2)):
                bad = self._corrupt(rng, G, bad)
            expected = oracles.validate_td_reference(G, bad)
            assert validate_td(G, bad) == expected, (G.edges, bad)
            rejected += not expected
        assert 50 < rejected < 270


class TestCut:
    def test_two_bag_path(self):
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("bc")},
            tree_edges=frozenset({(0, 1)}),
            root=0,
        )
        td1, td2, r2 = cut_last_child(td, 0)
        assert r2 == 1
        assert set(td1.bags) == {0} and set(td2.bags) == {1}

    def test_star_of_bags(self):
        td = TreeDecomposition(
            bags={
                0: frozenset("ab"),
                1: frozenset("bc"),
                2: frozenset("bd"),
                3: frozenset("be"),
            },
            tree_edges=frozenset({(0, 1), (0, 2), (0, 3)}),
            root=0,
        )
        td1, td2, r2 = cut_last_child(td, 0)
        assert r2 == 3
        assert set(td1.bags) == {0, 1, 2}
        assert set(td2.bags) == {3}

    def test_multilevel_subtree_split(self):
        # root with two children, each carrying its own subtree: the cut
        # removes the last child's whole subtree
        td = TreeDecomposition(
            bags={
                4: frozenset({3, 7, 8}),
                6: frozenset({7, 11, 12}),
                7: frozenset({8, 13, 14}),
                8: frozenset({12, 15, 16}),
                9: frozenset({14, 17}),
            },
            tree_edges=frozenset({(4, 6), (4, 7), (6, 8), (7, 9)}),
            root=4,
        )
        td1, td2, r2 = cut_last_child(td, 4)
        assert r2 == 7
        assert set(td1.bags) == {4, 6, 8}
        assert set(td2.bags) == {7, 9}
        assert td1.root == 4 and td2.root == 7

    def test_leaf_root_rejected(self):
        td = TreeDecomposition(bags={0: frozenset("ab")}, tree_edges=frozenset(), root=0)
        with pytest.raises(PreconditionError):
            cut_last_child(td, 0)

    def test_non_root_rejected(self):
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("bc")},
            tree_edges=frozenset({(0, 1)}),
            root=0,
        )
        with pytest.raises(PreconditionError):
            cut_last_child(td, 1)


class TestCutInvariants:
    def test_cut_separator_and_union(self):
        rng = random.Random(14)
        for decompose in (tree_decomposition, lambda G: oracles.td_from_random_order(G, rng)):
            for _ in range(25):
                G = random_connected_graph(rng, rng.randint(3, 9))
                td = decompose(G)
                assert validate_td(G, td)
                stack = [td]
                while stack:
                    t = stack.pop()
                    if len(t.bags) == 1:
                        continue
                    td1, td2, r2 = cut_last_child(t, t.root)
                    V1, V2 = td1.vertices(), td2.vertices()
                    inter = V1 & V2
                    assert inter == t.bags[t.root] & t.bags[r2]
                    seen = set()
                    for u, v in G.induced_subgraph(V1 | V2).edges:
                        inside1 = u in V1 and v in V1
                        inside2 = u in V2 and v in V2
                        assert inside1 or inside2
                        if (u in V1 - inter and v in V2 - inter) or (
                            v in V1 - inter and u in V2 - inter
                        ):
                            seen.add((u, v))
                    assert not seen
                    stack.extend([td1, td2])

import logging
import random
import sys
from pathlib import Path

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
from meccount import counting, graph, mecrules
from meccount.counting import AUTO_BRUTE_EDGE_THRESHOLD
from meccount.tfp import EMPTY_TABLE
from meccount.treedecomp import TreeDecomposition, tree_decomposition, validate_td

import oracles
from conftest import connected_graphs, grid, ladder, random_connected_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the closed forms and the tree count)

FIG1 = UndirectedGraph(edges=[("A", "B"), ("A", "C")])
K2 = UndirectedGraph(edges=[("a", "b")])
P3 = UndirectedGraph(edges=[("a", "b"), ("b", "c")])
P4 = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])


def _subtree(td, b):
    """The decomposition's subtree below bag ``b``, rooted at ``b``."""
    keep, stack = set(), [b]
    while stack:
        i = stack.pop()
        keep.add(i)
        stack.extend(td.children(i))
    return TreeDecomposition(
        bags={i: td.bags[i] for i in keep},
        tree_edges=frozenset(e for e in td.tree_edges if set(e) <= keep),
        root=b,
    )


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
        # every bag is the root of its subtree once, so every fold step's
        # table is checked, not just the root's
        rng = random.Random(61)
        from meccount import enumerate_mecs

        graphs = [random_connected_graph(rng, rng.randint(3, 6)) for _ in range(8)]
        # relabelled graphs whose cuts almost repeat one another, so one
        # count both replays glue plans and must tell near misses apart
        caterpillar = [(i, i + 1) for i in range(5)] + [(0, 6), (1, 7), (1, 8), (3, 9), (4, 10)]
        pendant_cycle = [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (2, 8), (3, 9), (9, 10)]
        for edges in (caterpillar, pendant_cycle):
            labels = list(range(11))
            rng.shuffle(labels)
            graphs.append(UndirectedGraph(edges=[(labels[u], labels[v]) for u, v in edges]))
        for G in graphs + [ladder(4), grid(3, 3)]:
            td = tree_decomposition(G)
            for b in td.preorder:
                sub = _subtree(td, b)
                g = G.induced_subgraph(sub.vertices())
                F = count_rec(g, sub, b)
                boundary = frozenset(g.closed_neighborhood(td.bags[b]))
                buckets = {}
                for M in enumerate_mecs(g):
                    s = shadow_of_mec(M, boundary)
                    buckets[s] = buckets.get(s, 0) + 1
                assert dict(F.items()) == buckets
                assert all(F.count(s) == k for s, k in buckets.items())

    def test_disconnected_graph_with_a_valid_decomposition(self):
        # a valid decomposition may join components through an empty
        # separator; the fold numbers every component
        matching = UndirectedGraph(edges=[("a", "b"), ("c", "d")])
        td = TreeDecomposition(
            bags={0: frozenset("ab"), 1: frozenset("cd")}, tree_edges=frozenset({(0, 1)}), root=0
        )
        assert count_rec(matching, td, 0).total() == brute_count_mecs(matching) == 1
        rng = random.Random(65)
        for _ in range(6):
            g1 = random_connected_graph(rng, rng.randint(3, 5))
            g2 = random_connected_graph(rng, rng.randint(3, 5))
            G = UndirectedGraph(
                [f"x{v}" for v in g1.vertices] + [f"y{v}" for v in g2.vertices],
                [(f"x{u}", f"x{v}") for u, v in g1.edges]
                + [(f"y{u}", f"y{v}") for u, v in g2.edges],
            )
            t1, t2 = tree_decomposition(g1), tree_decomposition(g2)
            k = len(t1.bags)
            bags = {i: frozenset(f"x{v}" for v in b) for i, b in t1.bags.items()}
            bags.update({k + i: frozenset(f"y{v}" for v in b) for i, b in t2.bags.items()})
            edges = set(t1.tree_edges) | {(k + i, k + j) for i, j in t2.tree_edges} | {(0, k)}
            td = TreeDecomposition(bags=bags, tree_edges=frozenset(edges), root=0)
            assert count_rec(G, td, 0).total() == brute_count_mecs(G)

    def test_count_rec_folds_as_count_mecs_does(self, monkeypatch):
        # one fold for both: on a shuffled tree they build the same a-graphs,
        # cut for cut, as vertex counts and index pairs
        built = []
        real = counting._combine_tables

        def recorded(F, *args):
            built.append((len(F.labels), F.pairs))
            return real(F, *args)

        monkeypatch.setattr(counting, "_combine_tables", recorded)
        rng = random.Random(66)
        edges = workloads.random_tree_edges(30, 3, rng)
        G = _shuffled(30, edges, rng)
        total, [(_, td)] = counting.count_components(G, "fpt")
        by_count_mecs = built[:]
        built.clear()
        assert count_rec(G, td, td.root).total() == total == workloads.tree_count(edges, 30)
        assert len(built) == len(td.bags) - 1 and built == by_count_mecs

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

    def test_plain_pdag_input_transposes_once(self, monkeypatch):
        # a fully undirected plain Pdag is counted as its skeleton, whose
        # views read its rows as they are: one transpose, for the check
        edges = [(i, i + 1) for i in range(199)] + [("x", "y"), ("y", "z"), ("x", "z")]
        want = count_mecs(UndirectedGraph(edges=edges))
        transpose = graph._transpose
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return transpose(rows)

        for mod in (graph, mecrules):
            monkeypatch.setattr(mod, "_transpose", counted)
        assert count_mecs(UndirectedGraph(edges=edges)) == want and calls == []
        for method in ("auto", "fpt"):
            calls.clear()
            assert count_mecs(Pdag(undirected=edges), method) == want
            assert len(calls) <= 1

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
        # min-fill's decomposition and a random elimination order's, from
        # every root
        rng = random.Random(63)
        for _ in range(6):
            G = random_connected_graph(rng, rng.randint(3, 6), max_degree=3)
            expected = brute_count_mecs(G)
            for td in (tree_decomposition(G), oracles.td_from_random_order(G, rng)):
                for root in td.indices:
                    rooted = TreeDecomposition(
                        bags=dict(td.bags), tree_edges=td.tree_edges, root=root
                    )
                    assert count_rec(G, rooted, root).total() == expected


class TestCyclesWithPendants:
    def test_engine_matches_brute(self):
        # the family on which the side check once overcounted (227 for 226)
        rng = random.Random(64)
        for _ in range(40):
            length = rng.randint(5, 8)
            extra = rng.randint(2, 4)
            n = length + extra
            edges = [(i, (i + 1) % length) for i in range(length)]
            edges += [(rng.randrange(length), length + k) for k in range(extra)]
            labels = list(range(n))
            rng.shuffle(labels)  # the labels steer the decomposition's ties
            G = UndirectedGraph(
                vertices=labels, edges=[(labels[u], labels[v]) for u, v in edges]
            )
            assert count_mecs(G, "fpt") == brute_count_mecs(G), G.edges


def _rotated(n, edges, rng):
    """``edges`` on ``0..n-1`` relabelled ``v -> (r + s * v) mod n`` by a
    seeded rotation and reflection."""
    r, s = rng.randrange(n), rng.choice((1, -1))
    return UndirectedGraph(
        vertices=range(n), edges=[((r + s * u) % n, (r + s * v) % n) for u, v in edges]
    )


class TestClosedFormsAtScale:
    # hundreds of bags per count, most of whose cuts repeat an earlier cut
    def test_paths_count_fibonacci(self):
        rng = random.Random(71)
        for n in (150, 320):
            G = _rotated(n, workloads.path_edges(n), rng)
            assert count_mecs(G) == workloads.fibonacci(n)

    def test_cycles_count_lucas_minus_one(self):
        rng = random.Random(72)
        for n in (120, 250):
            G = _rotated(n, workloads.cycle_edges(n), rng)
            assert count_mecs(G) == workloads.lucas(n) - 1

    def test_degree_three_trees_match_the_tree_count(self):
        rng = random.Random(78)
        for n in (100, 160, 200):
            edges = workloads.random_tree_edges(n, 3, rng)
            assert count_mecs(_rotated(n, edges, rng)) == workloads.tree_count(edges, n)

    def test_longer_path_enumerates_no_more_boundaries(self, monkeypatch):
        # a cut that repeats an earlier one replays its glue plan instead of
        # enumerating the boundary candidates again
        calls = []
        real = counting._partial_mec_codes_on

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, "_partial_mec_codes_on", counted)

        def enumerations(n):
            calls.clear()
            G = _rotated(n, workloads.path_edges(n), random.Random(74))
            assert count_mecs(G) == workloads.fibonacci(n)
            return len(calls)

        assert 0 < enumerations(400) <= enumerations(100)

    def test_longer_path_builds_no_more_contexts(self, monkeypatch):
        # a replayed cut is not set up for the glue: only a cut whose plan
        # is computed gets its index record
        built = []
        real = counting._Cut

        def counted(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, "_Cut", counted)

        def contexts(n):
            built.clear()
            G = _rotated(n, workloads.path_edges(n), random.Random(75))
            assert count_mecs(G) == workloads.fibonacci(n)
            return len(built)

        assert 0 < contexts(400) <= contexts(100)

    def test_shuffled_path_builds_no_more_contexts_than_rotated(self, monkeypatch):
        # the fold runs on labels in decomposition order, so a cut's index
        # pairs, and whether it replays, do not depend on the input's labels
        built = []
        real = counting._Cut

        def counted(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, "_Cut", counted)
        n, rng = 200, random.Random(80)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = UndirectedGraph(
            vertices=range(n), edges=[(perm[u], perm[v]) for u, v in workloads.path_edges(n)]
        )
        rotated = _rotated(n, workloads.path_edges(n), rng)
        counts = []
        for G in (shuffled, rotated):
            built.clear()
            assert count_mecs(G) == workloads.fibonacci(n)
            counts.append(len(built))
        assert 0 < counts[0] <= counts[1]

    def test_runs_keep_each_decomposition_on_its_component_labels(self):
        # the fold relabels each component; what the count reports does not
        tree = workloads.random_tree_edges(30, 3, random.Random(81))
        G = UndirectedGraph(
            edges=[(f"p{u}", f"p{v}") for u, v in workloads.path_edges(40)]
            + [(u + 100, v + 100) for u, v in tree]
            + [(f"c{u}", f"c{v}") for u, v in workloads.cycle_edges(25)]
        )
        total, runs = counting.count_components(G, "fpt")
        expected = workloads.fibonacci(40) * workloads.tree_count(tree, 30)
        assert total == expected * (workloads.lucas(25) - 1)
        comps = G.components()
        assert [td.vertices() for _, td in runs] == list(comps)
        for (_, td), comp in zip(runs, comps):
            assert validate_td(G.induced_subgraph(comp), td)

    def test_no_large_graph_is_sliced(self, monkeypatch):
        # the fold reads the input only as neighbour sets: every graph it
        # slices is a small one, never the whole path
        sizes = []
        real = Pdag.induced_subgraph

        def recorded(self, S):
            sizes.append(self.n)
            return real(self, S)

        monkeypatch.setattr(Pdag, "induced_subgraph", recorded)
        G = _rotated(400, workloads.path_edges(400), random.Random(77))
        assert count_mecs(G) == workloads.fibonacci(400)
        assert max(sizes, default=0) <= 16

    def test_every_cut_checks_its_split(self, monkeypatch):
        # replayed cuts too: one check per tree edge of the decomposition
        checked = []
        real = counting._check_split

        def counted(*args):
            checked.append(1)
            return real(*args)

        monkeypatch.setattr(counting, "_check_split", counted)
        G = _rotated(200, workloads.path_edges(200), random.Random(76))
        td = tree_decomposition(G)
        assert count_rec(G, td, td.root).total() == workloads.fibonacci(200)
        assert len(checked) == len(td.bags) - 1

    def test_no_boundary_shape_is_enumerated_twice(self, monkeypatch):
        # within one count, the candidates of an a-graph shape are
        # enumerated once, even when the cuts' plans differ
        shapes = []
        real = counting._partial_mec_codes_on

        def recorded(n, pairs, **kwargs):
            shapes.append((n, tuple(pairs)))
            return real(n, pairs, **kwargs)

        monkeypatch.setattr(counting, "_partial_mec_codes_on", recorded)
        rng = random.Random(79)
        for n in (60, 120):
            edges = workloads.random_tree_edges(n, 3, rng)
            shapes.clear()
            assert count_mecs(_rotated(n, edges, rng)) == workloads.tree_count(edges, n)
            assert shapes and len(set(shapes)) == len(shapes)

    def test_count_never_builds_a_frame_graph(self, monkeypatch):
        # the fold hands the kernel the glued table's labels and pairs, so
        # no table of a count builds its domain as a Pdag
        def unread(self):
            raise AssertionError("the fold read ShadowTable.domain")

        # a table made from a graph (a leaf's) still sets it
        monkeypatch.setattr(ShadowTable, "domain", property(unread, lambda self, graph: None))
        rng = random.Random(80)
        assert count_mecs(_rotated(100, workloads.path_edges(100), rng)) == workloads.fibonacci(100)
        perm = list(range(12))
        rng.shuffle(perm)
        G = UndirectedGraph(edges=[(perm[u], perm[v]) for u, v in workloads.ladder_edges(6)])
        assert count_mecs(G) == workloads.PINNED["ladder2x6"]



def _glue_by_root(G, td, monkeypatch):
    """Per root of ``td``, the sum of ``3 ** k`` over the cuts the fold of
    ``G`` from that root builds, ``k`` the a-graph's vertex count."""
    built = []
    real = counting._combine_tables

    def recorded(F, *args):
        built.append(3 ** len(F.labels))
        return real(F, *args)

    glue = {}
    with monkeypatch.context() as m:
        m.setattr(counting, "_combine_tables", recorded)
        for root in td.indices:
            built.clear()
            rooted = TreeDecomposition(bags=td.bags, tree_edges=td.tree_edges, root=root)
            counting._count_rec(G.neighbor_sets(), rooted)
            glue[root] = sum(built)
    return glue


def _shuffled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return UndirectedGraph(vertices=range(n), edges=[(perm[u], perm[v]) for u, v in edges])


class TestFoldRoot:
    def test_estimate_is_the_glue_the_fold_builds(self, monkeypatch):
        rng = random.Random(91)
        rootings = 0
        for _ in range(120):
            G = random_connected_graph(rng, rng.randint(4, 8))
            td = tree_decomposition(G)
            assert counting.glue_estimates(G, td) == _glue_by_root(G, td, monkeypatch)
            rootings += len(td.bags)
        assert rootings > 400

    def test_root_is_the_least_glue_lower_index_on_a_tie(self, monkeypatch):
        rng = random.Random(92)
        graphs = [random_connected_graph(rng, rng.randint(5, 8)) for _ in range(30)]
        graphs += [_shuffled(n, workloads.random_tree_edges(n, 3, rng), rng) for n in (10, 12, 14)]
        moved = ties = 0
        for G in graphs:
            td = tree_decomposition(G)
            root = counting.rooted_for_fold(G, td).root
            if all(len(td.children(i)) < 2 for i in td.bags):
                assert root == td.root  # a path rooted at an end stays as it is
                continue
            glue = _glue_by_root(G, td, monkeypatch)
            least = min(glue.values())
            assert root == min(i for i in glue if glue[i] == least)
            moved += root != td.root
            ties += list(glue.values()).count(least) > 1
        assert moved and ties

    def test_rerooted_counts_and_decompositions(self):
        rng = random.Random(93)
        for n in (20, 31, 44):
            edges = workloads.random_tree_edges(n, 3, rng)
            G = _shuffled(n, edges, rng)
            total, [(route, td)] = counting.count_components(G, "fpt")
            assert total == workloads.tree_count(edges, n)
            assert route == "fpt" and validate_td(G, td)
        for G in (UndirectedGraph(edges=workloads.path_edges(30)), ladder(6)):
            _, [(_, td)] = counting.count_components(G, "fpt")
            assert td.root == 0

    def test_trees_glue_fewer_pairs(self, monkeypatch):
        # a timer-free pin of the work the root choice saves
        pairs = []
        real = counting.extensions

        def recorded(*args):
            for out in real(*args):
                pairs.append(1)
                yield out

        monkeypatch.setattr(counting, "extensions", recorded)
        rng = random.Random(94)
        batch = []
        for n in (36, 42, 48, 54):
            edges = workloads.random_tree_edges(n, 3, rng)
            batch.append((_shuffled(n, edges, rng), workloads.tree_count(edges, n)))

        def glued():
            pairs.clear()
            for G, expected in batch:
                assert count_mecs(G) == expected
            return len(pairs)

        chosen = glued()
        monkeypatch.setattr(counting, "rooted_for_fold", lambda U, td: td)
        assert chosen == 1770 < glued()  # 3,760 from bag 0

    def test_debug_log_names_each_components_root(self, caplog):
        edges = workloads.random_tree_edges(20, 3, random.Random(95))
        G = UndirectedGraph(edges=edges + [(f"p{i}", f"p{i + 1}") for i in range(12)])
        with caplog.at_level(logging.DEBUG, logger="meccount.counting"):
            _, runs = counting.count_components(G, "fpt")
        lines = [r.getMessage() for r in caplog.records if r.name == "meccount.counting"]
        assert len(lines) == len(runs) == 2
        for line, (_, td) in zip(lines, runs):
            assert line.startswith(f"{len(td.bags)} bags, width {td.width}: root {td.root}, ")

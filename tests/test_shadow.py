import itertools
import random

import pytest

from meccount import (
    CapacityError,
    GraphInputError,
    Pdag,
    PreconditionError,
    Shadow,
    UndirectedGraph,
    brute_count_mecs,
    enumerate_mecs,
    enumerate_partial_mecs,
    is_partial_mec,
    project_shadow,
    shadow_of_mec,
    tfp_table,
)
from meccount import _kernels
from meccount.shadow import DEFAULT_MARK_ENUM_CAP
from meccount.tfp import EMPTY_TABLE

from conftest import connected_graphs, random_connected_graph


def pdag(und=(), dire=(), verts=()):
    return Pdag(vertices=verts, undirected=und, directed=dire)


P4 = pdag(und=[("a", "b"), ("b", "c"), ("c", "d")])


class TestShadowOfMec:
    def test_reachability_survives_detours(self):
        s = shadow_of_mec(P4, {"a", "b", "d"})
        assert s.o == pdag(und=[("a", "b")], verts=["d"])
        # the path through the dropped vertex c still registers on d
        assert (("a", "b"), "d") in s.table.p2
        assert not any(f == ("c", "d") for _, f in s.table.p1)

    def test_whole_vertex_set(self):
        s = shadow_of_mec(P4, set(P4.vertices))
        assert s.o == P4
        assert s.table == tfp_table(P4)

    def test_collider_has_empty_tables(self):
        M = pdag(dire=[("a", "b"), ("c", "b")])
        s = shadow_of_mec(M, {"a", "b", "c"})
        assert s.o == M
        assert not s.table.p1 and not s.table.p2

    def test_requires_mec(self):
        with pytest.raises(PreconditionError):
            shadow_of_mec(pdag(dire=[("a", "b")], und=[("b", "c")]), {"a"})


class TestProjectShadow:
    def test_identity(self):
        s = shadow_of_mec(P4, {"a", "b", "c"})
        assert project_shadow(s, {"a", "b", "c"}) == s

    def test_empty(self):
        s = shadow_of_mec(P4, {"a", "b"})
        out = project_shadow(s, set())
        assert out.o.n == 0 and not out.table.p1 and not out.table.p2

    def test_restriction_drops_entries(self):
        s = shadow_of_mec(P4, {"a", "b", "c"})
        assert (("a", "b"), ("b", "c")) in s.table.p1
        out = project_shadow(s, {"a", "b"})
        assert not out.table.p1
        # p2 toward c dies with c, but nothing else existed
        assert not out.table.p2

    def test_composition(self):
        rng = random.Random(3)
        for _ in range(20):
            G = random_connected_graph(rng, rng.randint(3, 6))
            for M in enumerate_mecs(G)[:4]:
                Y = set(rng.sample(list(G.vertices), rng.randint(1, G.n)))
                X = set(rng.sample(sorted(Y), rng.randint(0, len(Y))))
                s = shadow_of_mec(M, Y)
                assert project_shadow(s, X) == shadow_of_mec(M, X)
                X2 = set(rng.sample(sorted(X), rng.randint(0, len(X))))
                assert project_shadow(project_shadow(s, X), X2) == project_shadow(
                    s, X2
                )

    def test_unknown_vertex(self):
        s = shadow_of_mec(P4, {"a", "b"})
        with pytest.raises(GraphInputError):
            project_shadow(s, {"zzz"})


class TestEnumeratePartialMecs:
    def test_k2(self):
        K2 = UndirectedGraph(edges=[("a", "b")])
        out = list(enumerate_partial_mecs(K2))
        assert len(out) == 3
        assert len(set(out)) == 3

    def test_matches_direct_filter(self):
        for G in connected_graphs(4):
            ours = set(enumerate_partial_mecs(G))
            edges = G.edges
            expected = set()
            for marks in itertools.product((0, 1, 2), repeat=len(edges)):
                und = [e for e, m in zip(edges, marks) if m == 0]
                dire = [
                    (e if m == 1 else (e[1], e[0]))
                    for e, m in zip(edges, marks)
                    if m
                ]
                P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
                if is_partial_mec(P):
                    expected.add(P)
            assert ours == expected

    def test_c4_all_undirected_excluded(self):
        C4 = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        fully_und = pdag(und=C4.edges)
        assert fully_und not in set(enumerate_partial_mecs(C4))

    def test_cap(self, monkeypatch):
        # K7's 21 edges exceed DEFAULT_MARK_ENUM_CAP (20)
        def no_sweep(*args):
            raise AssertionError("the sweep started past its cap")

        monkeypatch.setattr(_kernels, "mark_codes", no_sweep)
        K7 = UndirectedGraph(edges=list(itertools.combinations(range(7), 2)))
        with pytest.raises(CapacityError) as err:
            list(enumerate_partial_mecs(K7))
        assert err.value.limit == DEFAULT_MARK_ENUM_CAP


class TestShadowKey:
    # a shadow is a frozen dataclass of hashable parts, so == and hash are
    # its canonical identity
    def test_deterministic(self):
        s = shadow_of_mec(P4, {"a", "b", "d"})
        t = shadow_of_mec(P4, {"a", "b", "d"})
        assert s == t and hash(s) == hash(t)

    def test_p2_bit_changes_key(self):
        s = shadow_of_mec(P4, {"a", "b", "d"})
        stripped = Shadow(s.o, EMPTY_TABLE)
        assert s != stripped

    def test_different_vertices_differ(self):
        a = shadow_of_mec(P4, {"a", "b"})
        b = shadow_of_mec(P4, {"c", "d"})
        assert a != b


class TestPartition:
    def test_shadows_partition_the_classes(self):
        # summing class counts per distinct shadow recovers the total count,
        # for every boundary choice on every small connected skeleton
        for n in range(1, 5):
            for G in connected_graphs(n):
                mecs = enumerate_mecs(G)
                total = brute_count_mecs(G)
                assert len(mecs) == total
                verts = list(G.vertices)
                for k in range(n + 1):
                    for Y in itertools.combinations(verts, k):
                        buckets = {}
                        for M in mecs:
                            s = shadow_of_mec(M, set(Y))
                            buckets[s] = buckets.get(s, 0) + 1
                        assert sum(buckets.values()) == total

    def test_partition_n5_sampled(self):
        rng = random.Random(77)
        for _ in range(25):
            G = random_connected_graph(rng, 5)
            mecs = enumerate_mecs(G)
            Y = set(rng.sample(list(G.vertices), rng.randint(0, 5)))
            buckets = {}
            for M in mecs:
                s = shadow_of_mec(M, Y)
                buckets[s] = buckets.get(s, 0) + 1
            assert sum(buckets.values()) == brute_count_mecs(G)

import random

import pytest

from meccount import (
    GraphInputError,
    Pdag,
    PreconditionError,
    TfpTable,
    UndirectedGraph,
    enumerate_mecs,
    is_canonical_source,
    tfp_exists,
    tfp_table,
)

import oracles
from conftest import random_chain_chordal, random_connected_graph


def pdag(und=(), dire=(), verts=()):
    return Pdag(vertices=verts, undirected=und, directed=dire)


def reference_closure(P):
    """Literal worklist form of the two closure loops, dict-based."""
    edges = list(P.ordered_edges())
    verts = list(P.vertices)
    sk = {frozenset(e) for e in edges}
    p1 = {(e, f): 0 for e in edges for f in edges}
    p2 = {(e, w): 0 for e in edges for w in verts}
    ordered = set(edges)
    for u, v in edges:
        for w in verts:
            if w in (u, v):
                continue
            if (v, w) in ordered and frozenset((u, w)) not in sk:
                p1[((u, v), (v, w))] = 1
                p2[((u, v), w)] = 1
    changed = True
    while changed:
        changed = False
        for e in edges:
            for f in edges:
                if e == f or p1[(e, f)]:
                    continue
                for g in edges:
                    if p1[(e, g)] and p1[(g, f)]:
                        p1[(e, f)] = 1
                        changed = True
                        break
    changed = True
    while changed:
        changed = False
        for e in edges:
            for w in verts:
                if e[1] == w or p2[(e, w)]:
                    continue
                for g in edges:
                    if p1[(e, g)] and p2[(g, w)]:
                        p2[(e, w)] = 1
                        changed = True
                        break
    return (
        frozenset(k for k, bit in p1.items() if bit),
        frozenset(k for k, bit in p2.items() if bit),
    )


PATH = pdag(und=[("a", "b"), ("b", "c"), ("c", "d")])
TRIANGLE = pdag(und=[("a", "b"), ("b", "c"), ("a", "c")])


class TestTfpExists:
    def test_chordless_path(self):
        assert tfp_exists(PATH, ("a", "b"), ("c", "d"))

    def test_triangle_blocked(self):
        assert not tfp_exists(TRIANGLE, ("a", "b"), "c")

    def test_missing_ordered_edge(self):
        P = pdag(dire=[("b", "a")])
        with pytest.raises(GraphInputError):
            tfp_exists(P, ("a", "b"), "b")

    def test_degenerate_hits(self):
        assert tfp_exists(PATH, ("a", "b"), ("a", "b"))
        assert tfp_exists(PATH, ("a", "b"), "b")

    def test_long_simple_path_leaves_recursion_alone(self):
        # a directed cycle is no chain graph, so the query falls back to the
        # simple-path search, which must walk 2,998 vertices deep
        n = 3000
        P = Pdag(directed=[(i, (i + 1) % n) for i in range(n)])
        assert tfp_exists(P, (0, 1), 2998)

    def test_matches_independent_search(self):
        rng = random.Random(4)
        for _ in range(40):
            G = random_connected_graph(rng, rng.randint(2, 6))
            und, dire = [], []
            for u, v in G.edges:
                r = rng.random()
                if r < 0.5:
                    und.append((u, v))
                else:
                    dire.append((u, v) if r < 0.75 else (v, u))
            P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
            edges = list(P.ordered_edges())
            for e in edges[:6]:
                for f in edges[:6]:
                    assert tfp_exists(P, e, f) == oracles.tfp_search(P, e, to_edge=f)
                for w in P.vertices:
                    assert tfp_exists(P, e, w) == oracles.tfp_search(
                        P, e, to_vertex=w
                    )


class TestTfpTable:
    def test_path_entries(self):
        t = tfp_table(PATH)
        assert (("a", "b"), ("b", "c")) in t.p1
        assert (("a", "b"), ("c", "d")) in t.p1
        assert (("a", "b"), "d") in t.p2

    def test_triangle_empty(self):
        t = tfp_table(TRIANGLE)
        assert not t.p1 and not t.p2

    def test_single_edge_empty(self):
        t = tfp_table(pdag(und=[("a", "b")]))
        assert not t.p1 and not t.p2

    def test_contract_enforced(self):
        C4 = pdag(und=[(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(PreconditionError):
            tfp_table(C4)
        cyc = pdag(dire=[("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(PreconditionError):
            tfp_table(cyc)

    def test_matches_reference_closure(self):
        rng = random.Random(5)
        for _ in range(40):
            P = random_chain_chordal(rng)
            t = tfp_table(P)
            p1_ref, p2_ref = reference_closure(P)
            assert t.p1 == p1_ref
            assert t.p2 == p2_ref

    def test_matches_per_query_oracle(self):
        rng = random.Random(6)
        for _ in range(60):
            P = random_chain_chordal(rng)
            t = tfp_table(P)
            edges = list(P.ordered_edges())
            for e in edges:
                for f in edges:
                    expect = e != f and oracles.tfp_search(P, e, to_edge=f)
                    assert ((e, f) in t.p1) == expect
                for w in P.vertices:
                    expect = e[1] != w and oracles.tfp_search(P, e, to_vertex=w)
                    assert ((e, w) in t.p2) == expect

    def test_concatenation_closure(self):
        rng = random.Random(8)
        for _ in range(40):
            P = random_chain_chordal(rng)
            t = tfp_table(P)
            for e, g in t.p1:
                for g2, f in t.p1:
                    if g == g2 and e != f:
                        assert (e, f) in t.p1

    def test_reversal_symmetry_on_undirected_chordal(self):
        rng = random.Random(10)
        seen = 0
        while seen < 25:
            G = random_connected_graph(rng, rng.randint(3, 7))
            if not G.is_chordal():
                continue
            seen += 1
            t = tfp_table(G)
            for (u, v), (x, y) in t.p1:
                assert (((y, x), (v, u))) in t.p1

    def test_antisymmetric_on_mecs(self):
        rng = random.Random(12)
        for _ in range(10):
            G = random_connected_graph(rng, rng.randint(3, 5))
            for M in enumerate_mecs(G):
                t = tfp_table(M)
                for e, f in t.p1:
                    assert (f, e) not in t.p1


class TestTableType:
    def test_rejects_identical_pair(self):
        with pytest.raises(GraphInputError):
            TfpTable(p1=frozenset({((1, 2), (1, 2))}), p2=frozenset())

    def test_rejects_head_target(self):
        with pytest.raises(GraphInputError):
            TfpTable(p1=frozenset(), p2=frozenset({((1, 2), 2)}))


class TestCanonicalSource:
    def test_flag_path(self):
        P = pdag(dire=[("a", "b")], und=[("b", "c")])
        assert is_canonical_source(P, "a")
        assert not is_canonical_source(P, "b")
        assert not is_canonical_source(P, "c")

    def test_fully_undirected(self):
        for v in PATH.vertices:
            assert is_canonical_source(PATH, v)

    def test_isolated_arrow(self):
        P = pdag(dire=[("a", "b")])
        assert is_canonical_source(P, "a")
        assert not is_canonical_source(P, "b")

    def test_unknown_vertex(self):
        with pytest.raises(GraphInputError):
            is_canonical_source(PATH, "zz")

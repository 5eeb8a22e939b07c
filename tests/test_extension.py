import random

import pytest

from meccount import (
    GraphInputError,
    Pdag,
    PreconditionError,
    Shadow,
    TfpTable,
    UndirectedGraph,
    dpf,
    enumerate_mecs,
    enumerate_partial_mecs,
    is_extension,
    is_valid_dpf,
    project_mec,
    shadow_of_mec,
    tfp_table,
)
from meccount.extension import DecompositionContext, extensions
from meccount.tfp import EMPTY_TABLE
from meccount.treedecomp import cut_last_child, tree_decomposition

from conftest import random_connected_graph


def pdag(und=(), dire=(), verts=()):
    return Pdag(vertices=verts, undirected=und, directed=dire)


@pytest.fixture
def p3_ctx():
    H = UndirectedGraph(edges=[("a", "b"), ("b", "c")])
    ctx = DecompositionContext(
        h=H, h1={"a", "b"}, h2={"b", "c"}, s1={"a", "b"}, s2={"b", "c"}
    )
    sh1 = Shadow(UndirectedGraph(edges=[("a", "b")]), EMPTY_TABLE)
    sh2 = Shadow(UndirectedGraph(edges=[("b", "c")]), EMPTY_TABLE)
    return ctx, sh1, sh2


class TestContext:
    def test_crossing_edge_rejected(self):
        H = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(PreconditionError):
            DecompositionContext(h=H, h1={"a", "b"}, h2={"b", "c"}, s1={"a", "b"}, s2={"b", "c"})

    def test_bag_intersection_must_match(self):
        H = UndirectedGraph(edges=[("a", "b"), ("b", "c")])
        with pytest.raises(PreconditionError):
            DecompositionContext(h=H, h1={"a", "b"}, h2={"b", "c"}, s1={"a"}, s2={"c"})


class TestDpf:
    def test_edgeless_boundary(self):
        H = UndirectedGraph(vertices=["a", "b"], edges=[])
        ctx = DecompositionContext(h=H, h1={"a"}, h2={"b"}, s1={"a"}, s2={"b"})
        sh1 = Shadow(Pdag(vertices=["a"]), EMPTY_TABLE)
        sh2 = Shadow(Pdag(vertices=["b"]), EMPTY_TABLE)
        o = Pdag(vertices=["a", "b"])
        t = dpf(ctx, o, sh1, sh2)
        assert not t.p1 and not t.p2

    def test_p3_zero_shadows(self, p3_ctx):
        ctx, sh1, sh2 = p3_ctx
        o = pdag(und=[("a", "b"), ("b", "c")])
        t = dpf(ctx, o, sh1, sh2)
        assert t.p1 == frozenset(
            {(("a", "b"), ("b", "c")), (("c", "b"), ("b", "a"))}
        )
        assert t.p2 == frozenset({(("a", "b"), "c"), (("c", "b"), "a")})

    def test_imported_entries_close_transitively(self):
        # child reachability that chains with a boundary edge must propagate
        H = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        ctx = DecompositionContext(
            h=H,
            h1={"a", "b", "c"},
            h2={"c", "d"},
            s1={"b", "c"},
            s2={"c", "d"},
        )
        M1 = pdag(und=[("a", "b"), ("b", "c")])
        sh1 = shadow_of_mec(M1, ctx.b1_vertices)
        sh2 = Shadow(UndirectedGraph(edges=[("c", "d")]), EMPTY_TABLE)
        o = pdag(und=[("a", "b"), ("b", "c"), ("c", "d")])
        t = dpf(ctx, o, sh1, sh2)
        assert (("a", "b"), ("c", "d")) in t.p1
        assert (("a", "b"), "d") in t.p2

    def test_domain_mismatch_rejected(self, p3_ctx):
        ctx, sh1, sh2 = p3_ctx
        wrong = Shadow(UndirectedGraph(edges=[("a", "c")]), EMPTY_TABLE)
        o = pdag(und=[("a", "b"), ("b", "c")])
        with pytest.raises(GraphInputError):
            dpf(ctx, o, wrong, sh2)


class TestValidDpf:
    def test_empty(self):
        assert is_valid_dpf(EMPTY_TABLE)

    def test_two_cycle(self):
        t = TfpTable(
            p1=frozenset({(("a", "b"), ("c", "d")), (("c", "d"), ("a", "b"))}),
            p2=frozenset(),
        )
        assert not is_valid_dpf(t)

    def test_mec_tables_are_valid(self):
        rng = random.Random(31)
        for _ in range(10):
            G = random_connected_graph(rng, rng.randint(3, 6))
            for M in enumerate_mecs(G)[:5]:
                assert is_valid_dpf(tfp_table(M))


class TestIsExtension:
    def test_collider_accepted(self, p3_ctx):
        ctx, sh1, sh2 = p3_ctx
        assert is_extension(ctx, pdag(dire=[("a", "b"), ("c", "b")]), sh1, sh2)

    def test_chain_rejected(self, p3_ctx):
        ctx, sh1, sh2 = p3_ctx
        assert not is_extension(ctx, pdag(dire=[("a", "b"), ("b", "c")]), sh1, sh2)

    def test_undirected_accepted(self, p3_ctx):
        ctx, sh1, sh2 = p3_ctx
        assert is_extension(ctx, pdag(und=[("a", "b"), ("b", "c")]), sh1, sh2)

    def test_non_partial_mec_rejected(self, p3_ctx):
        ctx, sh1, sh2 = p3_ctx
        with pytest.raises(PreconditionError):
            is_extension(ctx, pdag(dire=[("a", "b")], und=[("b", "c")]), sh1, sh2)


def _contexts_of(G):
    td = tree_decomposition(G.skeleton())
    stack = [(G, td)]
    while stack:
        g, t = stack.pop()
        if len(t.bags) == 1:
            continue
        td1, td2, r2 = cut_last_child(t, t.root)
        V1, V2 = td1.vertices(), td2.vertices()
        ctx = DecompositionContext(
            h=g, h1=V1, h2=V2, s1=t.bags[t.root], s2=t.bags[r2]
        )
        yield g, ctx
        stack.append((g.induced_subgraph(V1), td1))
        stack.append((g.induced_subgraph(V2), td2))


class TestGroundTruth:
    def test_dpf_matches_merged_class_tables(self):
        rng = random.Random(40)
        graphs = [UndirectedGraph(edges=[("a", "b"), ("b", "c")])]
        for _ in range(6):
            graphs.append(random_connected_graph(rng, rng.randint(4, 6)))
        for G in graphs:
            for g, ctx in _contexts_of(G):
                for M in enumerate_mecs(g):
                    M1 = project_mec(M, ctx.h1)
                    M2 = project_mec(M, ctx.h2)
                    sh1 = shadow_of_mec(M1, ctx.b1_vertices)
                    sh2 = shadow_of_mec(M2, ctx.b2_vertices)
                    O = M.induced_subgraph(ctx.boundary_vertices)
                    expected = shadow_of_mec(M, ctx.boundary_vertices).table
                    assert dpf(ctx, O, sh1, sh2) == expected

    def test_extension_iff_realized(self):
        rng = random.Random(41)
        graphs = [UndirectedGraph(edges=[("a", "b"), ("b", "c")])]
        for _ in range(4):
            graphs.append(random_connected_graph(rng, rng.randint(4, 5)))
        for G in graphs:
            for g, ctx in _contexts_of(G):
                realized = set()
                for M in enumerate_mecs(g):
                    M1 = project_mec(M, ctx.h1)
                    M2 = project_mec(M, ctx.h2)
                    realized.add(
                        (
                            M.induced_subgraph(ctx.boundary_vertices),
                            shadow_of_mec(M1, ctx.b1_vertices),
                            shadow_of_mec(M2, ctx.b2_vertices),
                        )
                    )
                sh1s = list({
                    shadow_of_mec(M1, ctx.b1_vertices)
                    for M1 in enumerate_mecs(g.induced_subgraph(ctx.h1))
                })
                sh2s = list({
                    shadow_of_mec(M2, ctx.b2_vertices)
                    for M2 in enumerate_mecs(g.induced_subgraph(ctx.h2))
                })
                for O in enumerate_partial_mecs(ctx.a_graph):
                    for sh1 in sh1s:
                        for sh2 in sh2s:
                            assert is_extension(ctx, O, sh1, sh2) == (
                                (O, sh1, sh2) in realized
                            )
                # the memoized many-shadow path the engine runs
                yielded = set()
                candidates = enumerate_partial_mecs(ctx.a_graph)
                for O, i, j, table in extensions(ctx, candidates, sh1s, sh2s):
                    assert table == dpf(ctx, O, sh1s[i], sh2s[j])
                    yielded.add((O, sh1s[i], sh2s[j]))
                assert yielded == realized

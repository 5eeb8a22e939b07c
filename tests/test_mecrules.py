import random

import pytest

from meccount import (
    CapacityError,
    GraphInputError,
    Pdag,
    UndirectedGraph,
    VStructure,
    brute_count_mecs,
    brute_count_mecs_andersson,
    cpdag_of_dag,
    enumerate_acyclic_orientations,
    enumerate_mecs,
    is_chain_graph,
    is_mec,
    is_partial_mec,
    is_strongly_protected,
    project_mec,
    v_structures,
)
from meccount.extension import protected_edges
from meccount import _kernels, mecrules
from meccount.mecrules import (
    _code_of_masks,
    _encode,
    _orientation_classes,
    _pdag_on,
    dag_member,
)

import oracles
from conftest import connected_graphs, random_connected_graph


def pdag(und=(), dire=(), verts=()):
    return Pdag(vertices=verts, undirected=und, directed=dire)


FIG1 = UndirectedGraph(edges=[("A", "B"), ("A", "C")])
K2 = UndirectedGraph(edges=[("a", "b")])
K3 = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
P3 = UndirectedGraph(edges=[("a", "b"), ("b", "c")])


def complete(n):
    return UndirectedGraph(edges=[(i, j) for i in range(n) for j in range(i + 1, n)])


def no_sweep(*args):
    raise AssertionError("the sweep started past its cap")


class TestVStructures:
    def test_single_collider(self):
        P = pdag(dire=[("a", "b"), ("c", "b")])
        assert v_structures(P) == {VStructure("a", "b", "c")}

    def test_oriented_triangle(self):
        P = pdag(dire=[("a", "b"), ("b", "c"), ("a", "c")])
        assert v_structures(P) == frozenset()

    def test_undirected(self):
        assert v_structures(pdag(und=[("a", "b"), ("b", "c")])) == frozenset()

    def test_matches_reference(self):
        rng = random.Random(2)
        for _ in range(50):
            G = random_connected_graph(rng, rng.randint(3, 6))
            und, dire = [], []
            for u, v in G.edges:
                r = rng.random()
                if r < 0.4:
                    und.append((u, v))
                else:
                    dire.append((u, v) if r < 0.7 else (v, u))
            P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
            got = {(vs.a, vs.b, vs.c) for vs in v_structures(P)}
            assert got == set(oracles.vstructs(P))


class TestChainGraph:
    def test_directed_three_cycle(self):
        assert not is_chain_graph(pdag(dire=[("a", "b"), ("b", "c"), ("c", "a")]))

    def test_undirected_triangle(self):
        assert is_chain_graph(pdag(und=[("a", "b"), ("b", "c"), ("a", "c")]))

    def test_mixed_cycle(self):
        # one directed edge on an otherwise undirected triangle forms a cycle
        P = pdag(dire=[("a", "b")], und=[("b", "c"), ("c", "a")])
        assert not is_chain_graph(P)
        assert oracles.has_cycle_with_directed_edge(P)

    def test_against_cycle_search(self):
        rng = random.Random(9)
        for _ in range(80):
            G = random_connected_graph(rng, rng.randint(2, 6))
            und, dire = [], []
            for u, v in G.edges:
                r = rng.random()
                if r < 0.4:
                    und.append((u, v))
                else:
                    dire.append((u, v) if r < 0.7 else (v, u))
            P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
            assert is_chain_graph(P) == (not oracles.has_cycle_with_directed_edge(P))


class TestStrongProtection:
    def test_collider_witness(self):
        P = pdag(dire=[("a", "b"), ("c", "b")])
        assert is_strongly_protected(P, ("a", "b"))

    def test_isolated_arrow(self):
        assert not is_strongly_protected(pdag(dire=[("a", "b")]), ("a", "b"))

    def test_directed_triangle_witness(self):
        P = pdag(dire=[("a", "w"), ("w", "v"), ("a", "v")])
        assert is_strongly_protected(P, ("a", "v"))

    def test_chain_witness(self):
        P = pdag(dire=[("w", "u"), ("u", "v")])
        assert is_strongly_protected(P, ("u", "v"))

    def test_two_parent_witness(self):
        P = pdag(
            und=[("w", "u"), ("x", "u")],
            dire=[("w", "v"), ("x", "v"), ("u", "v")],
        )
        assert is_strongly_protected(P, ("u", "v"))

    def test_not_directed_edge(self):
        with pytest.raises(GraphInputError):
            is_strongly_protected(pdag(und=[("a", "b")]), ("a", "b"))

    def test_matches_reference_on_random_pdags(self):
        rng = random.Random(41)
        checked = protected = 0
        for _ in range(200):
            G = random_connected_graph(rng, rng.randint(2, 7))
            und, dire = [], []
            for u, v in G.edges:
                r = rng.random()
                if r < 0.3:
                    und.append((u, v))
                else:
                    dire.append((u, v) if r < 0.65 else (v, u))
            P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
            expect = {e for e in P.directed_edges() if oracles.strongly_protected_reference(P, e)}
            for e in P.directed_edges():
                assert is_strongly_protected(P, e) == (e in expect), (P, e)
            assert protected_edges(P) == expect
            checked += len(P.directed_edges())
            protected += len(expect)
        assert 0 < protected < checked


class TestPartialMec:
    def test_flag_pattern_rejected(self):
        assert not is_partial_mec(pdag(dire=[("a", "b")], und=[("b", "c")]))

    def test_collider_ok(self):
        assert is_partial_mec(pdag(dire=[("a", "b"), ("c", "b")]))

    def test_nonchordal_component_rejected(self):
        C4 = pdag(und=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not is_partial_mec(C4)


class TestIsMec:
    def test_fig1_undirected(self):
        assert is_mec(pdag(und=[("A", "B"), ("A", "C")]))

    def test_fig1_collider(self):
        assert is_mec(pdag(dire=[("B", "A"), ("C", "A")]))

    def test_flag_fails(self):
        assert not is_mec(pdag(dire=[("a", "b")], und=[("b", "c")]))

    def test_unprotected_arrow_fails(self):
        assert not is_mec(pdag(dire=[("a", "b")]))


class TestOrientationEnumeration:
    @pytest.mark.parametrize(
        "graph,count", [(K2, 2), (K3, 6), (P3, 4)]
    )
    def test_counts(self, graph, count):
        orients = list(enumerate_acyclic_orientations(graph))
        assert len(orients) == count
        assert len(set(orients)) == count
        for D in orients:
            assert D.is_fully_directed()
            assert is_chain_graph(D)

    def test_cap(self, monkeypatch):
        # K8's 28 edges exceed DEFAULT_ORIENTATION_CAP (24)
        monkeypatch.setattr(_kernels, "acyclic_masks", no_sweep)
        with pytest.raises(CapacityError) as err:
            list(enumerate_acyclic_orientations(complete(8)))
        assert err.value.limit == mecrules.DEFAULT_ORIENTATION_CAP

    def test_matches_reference(self):
        for G in connected_graphs(4):
            ours = {D.directed_edges() for D in enumerate_acyclic_orientations(G)}
            ref = {tuple(sorted(arcs)) for arcs in oracles.all_dag_orientations(G)}
            assert {tuple(sorted(o)) for o in ours} == ref


def test_enumerate_mecs_encodes_the_skeleton_once(monkeypatch):
    calls = []
    skeleton_edges = Pdag.skeleton_edges

    def counted(self):
        calls.append(self)
        return skeleton_edges(self)

    C4 = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    expected = brute_count_mecs(C4)
    monkeypatch.setattr(Pdag, "skeleton_edges", counted)
    assert len(enumerate_mecs(C4)) == expected
    assert calls == [C4]


class TestBruteCounts:
    def test_fig1(self):
        assert brute_count_mecs(FIG1) == 2
        assert brute_count_mecs_andersson(FIG1) == 2

    def test_k2(self):
        assert brute_count_mecs(K2) == 1
        assert brute_count_mecs_andersson(K2) == 1

    def test_k3(self):
        assert brute_count_mecs(K3) == 1
        assert brute_count_mecs_andersson(K3) == 1

    def test_cap(self, monkeypatch):
        # K6's 15 edges exceed DEFAULT_MARKS_CAP (12)
        monkeypatch.setattr(_kernels, "mark_codes", no_sweep)
        with pytest.raises(CapacityError) as err:
            brute_count_mecs_andersson(complete(6))
        assert err.value.limit == mecrules.DEFAULT_MARKS_CAP

    def test_no_vertex_ceiling(self):
        # the only limits are the edge caps: a single edge among 70 vertices
        # has one class on every route
        U = UndirectedGraph(vertices=range(70), edges=[(0, 69)])
        assert brute_count_mecs(U) == 1
        assert brute_count_mecs_andersson(U) == 1
        assert len(enumerate_mecs(U)) == 1

    def test_oracle_agreement_exhaustive(self):
        for n in range(1, 5):
            for G in connected_graphs(n):
                ours = brute_count_mecs(G)
                assert ours == brute_count_mecs_andersson(G)
                assert ours == oracles.count_mecs_by_dags(G)

    def test_oracle_agreement_random_sparse(self):
        rng = random.Random(88)
        done = 0
        while done < 40:
            G = random_connected_graph(rng, rng.randint(6, 8), max_degree=4)
            if G.edge_count() > 12:
                continue
            done += 1
            assert brute_count_mecs(G) == brute_count_mecs_andersson(G)

    def test_filter_route_decides_protection_early(self, monkeypatch):
        # a count of protection tests, so the host's speed cannot affect
        # it: in maximum-cardinality-search order the filter route decides
        # protection nearer the root than in trit order, for the same counts
        rng = random.Random(1)
        batch = []
        while len(batch) < 40:
            G = random_connected_graph(rng, rng.randint(6, 9))
            if 8 <= G.edge_count() <= 12:
                batch.append(G)
        calls = 0
        protected = _kernels.protected

        def counting(*args):
            nonlocal calls
            calls += 1
            return protected(*args)

        monkeypatch.setattr(_kernels, "protected", counting)
        counts = [brute_count_mecs_andersson(G) for G in batch]
        searched, calls = calls, 0
        in_trit_order = []
        for G in batch:
            n, eu, ev, skel, pairs = _encode(G)
            in_trit_order.append(len(_kernels.mark_codes(n, eu, ev, skel, True)))
        assert counts == in_trit_order
        assert (searched, calls) == (91413, 120227)

    def test_star_k1_12_fills_two_fingerprint_words(self):
        # 66 potential colliders at the hub: a fingerprint wider than 64 bits
        star = UndirectedGraph(edges=[(0, i) for i in range(1, 13)])
        want = 2**12 - 12  # every set of two or more parents of the hub, or none
        assert brute_count_mecs(star) == want
        assert brute_count_mecs_andersson(star) == want
        assert len(enumerate_mecs(star)) == want

    @staticmethod
    def _classes_one_by_one(G):
        # each acyclic orientation folded into the class named by the
        # v-structures of its decoded DAG, on its own
        n, eu, ev, skel, pairs = _encode(G)
        full = (1 << len(pairs)) - 1
        out = {}
        for mask in _kernels.acyclic_masks(n, eu, ev, 0, 1 << len(pairs)):
            D = _pdag_on(G.vertices, pairs, _code_of_masks(mask, full ^ mask))
            key = v_structures(D)
            fwd, rev = out.get(key, (0, 0))
            out[key] = (fwd | mask, rev | (full ^ mask))
        return out

    @pytest.mark.parametrize("chunk", [None, 5, 64])
    def test_orientation_classes_match_one_by_one_grouping(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(mecrules, "_CHUNK", chunk)
        rng = random.Random(76)
        for _ in range(25):
            G = random_connected_graph(rng, rng.randint(2, 7))
            if G.edge_count() > 12:
                continue
            got = sorted(_orientation_classes(_encode(G), 24).values())
            assert got == sorted(self._classes_one_by_one(G).values())

    def test_enumerate_mecs_all_pass_filter(self):
        for G in connected_graphs(4):
            mecs = enumerate_mecs(G)
            assert len(mecs) == brute_count_mecs(G)
            for M in mecs:
                assert is_mec(M)
                assert M.skeleton() == G


class TestCpdag:
    def test_fig1_d2(self):
        D2 = pdag(dire=[("A", "B"), ("A", "C")])
        assert cpdag_of_dag(D2) == pdag(und=[("A", "B"), ("A", "C")])

    def test_fig1_d4(self):
        D4 = pdag(dire=[("B", "A"), ("C", "A")])
        assert cpdag_of_dag(D4) == D4

    def test_single_edge(self):
        assert cpdag_of_dag(pdag(dire=[("a", "b")])) == pdag(und=[("a", "b")])

    def test_rejects_cyclic(self):
        with pytest.raises(GraphInputError):
            cpdag_of_dag(pdag(dire=[("a", "b"), ("b", "c"), ("c", "a")]))

    def test_preserves_skeleton_and_colliders(self):
        for G in connected_graphs(4):
            for D in enumerate_acyclic_orientations(G):
                M = cpdag_of_dag(D)
                assert M.skeleton() == G
                assert v_structures(M) == v_structures(D)
                assert is_mec(M)

    def test_encodes_skeleton_once(self, monkeypatch):
        calls = []
        encode = mecrules._encode

        def counting(g):
            calls.append(g)
            return encode(g)

        monkeypatch.setattr(mecrules, "_encode", counting)
        D = pdag(dire=[("a", "b"), ("c", "b"), ("b", "d"), ("a", "d")])
        assert cpdag_of_dag(D) == pdag(dire=[("a", "b"), ("c", "b"), ("b", "d"), ("a", "d")])
        assert calls == [D.skeleton()]

    def test_builds_collider_triples_once(self, monkeypatch):
        calls = []
        triples = mecrules._collider_triples

        def counted(*args):
            calls.append(args)
            return triples(*args)

        monkeypatch.setattr(mecrules, "_collider_triples", counted)
        D = pdag(dire=[("a", "b"), ("c", "b"), ("b", "d"), ("a", "d")])
        assert cpdag_of_dag(D) == D
        assert len(calls) == 1


class TestProjection:
    def test_fig1_restriction(self):
        M1 = pdag(und=[("A", "B"), ("A", "C")])
        assert project_mec(M1, {"A", "B"}) == pdag(und=[("A", "B")])

    def test_identity(self):
        M = pdag(dire=[("B", "A"), ("C", "A")])
        assert project_mec(M, set(M.vertices)) == M

    def test_collider_loses_orientation(self):
        M = pdag(dire=[("a", "b"), ("c", "b")])
        assert project_mec(M, {"a", "b"}) == pdag(und=[("a", "b")])

    def test_member_independence_and_edge_containment(self):
        rng = random.Random(21)
        for _ in range(12):
            G = random_connected_graph(rng, rng.randint(3, 5))
            for M in enumerate_mecs(G):
                members = [
                    Pdag(vertices=G.vertices, directed=sorted(arcs))
                    for arcs in oracles.all_dag_orientations(G)
                    if oracles.dag_vstructs(G, arcs)
                    == {(vs.a, vs.b, vs.c) for vs in v_structures(M)}
                ]
                S = set(rng.sample(list(G.vertices), rng.randint(1, G.n)))
                expected = project_mec(M, S)
                for D in members:
                    assert cpdag_of_dag(D.induced_subgraph(S)) == expected
                for u, v in expected.directed_edges():
                    assert M.has_directed(u, v)

    def test_dag_member_belongs_to_class(self):
        for G in connected_graphs(4):
            for M in enumerate_mecs(G):
                D = dag_member(M)
                assert D.is_fully_directed()
                assert is_chain_graph(D)
                assert D.skeleton() == G
                assert v_structures(D) == v_structures(M)

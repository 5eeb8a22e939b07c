import random

import pytest

from meccount import (
    GraphInputError,
    Pdag,
    PreconditionError,
    Shadow,
    ShadowTable,
    TfpTable,
    UndirectedGraph,
    count_mecs,
    dpf,
    enumerate_mecs,
    enumerate_partial_mecs,
    is_extension,
    is_valid_dpf,
    project_mec,
    shadow_of_mec,
    tfp_table,
)
from meccount import counting, extension
from meccount.extension import (
    DecompositionContext,
    _BoundaryClosure,
    _ShadowProfile,
    _Side,
    _combine,
    _side_checks,
    _sub_pdag_from_signature,
    boundary_signature,
    candidate_of,
    extensions,
    protected_edges,
)
from meccount.graph import label_key
from meccount.mecrules import VStructure, _pdag_on, v_structures
from meccount.shadow import partial_mec_codes
from meccount.tfp import EMPTY_TABLE, _close_p1, _close_p2, _seed_matrices
from meccount.treedecomp import cut_last_child, tree_decomposition

import oracles
from conftest import decoded_extensions, grid, ladder, random_chain_chordal, random_connected_graph


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
                candidates = partial_mec_codes(ctx.a_graph)
                for O, i, j, table in decoded_extensions(ctx, candidates, sh1s, sh2s):
                    assert table == dpf(ctx, O, sh1s[i], sh2s[j])
                    yielded.add((O, sh1s[i], sh2s[j]))
                assert yielded == realized


def _colliders_of_mask(side, mask):
    # triple t's two edge positions, each read with the trit its tail needs
    out = set()
    for t in range(len(side.sel)):
        if not (mask >> t) & 1:
            continue
        tails = []
        for j, (u, v) in zip(side.pos, side.edges):
            if (side.sel[t] >> 2 * j) & 3:
                tail, mid = (u, v) if (side.want[t] >> 2 * j) & 3 == 1 else (v, u)
                tails.append(tail)
        a, c = sorted(tails, key=label_key)
        out.add(VStructure(a, mid, c))
    return frozenset(out)


class TestIntegerSidePieces:
    def test_signatures_decode_to_what_the_boundary_shows(self):
        rng = random.Random(42)
        graphs = [ladder(3), ladder(4), grid(3, 3)]
        for _ in range(2):
            graphs.append(random_connected_graph(rng, 8, max_degree=3, extra=3))
        for G in graphs:
            for g, ctx in _contexts_of(G):
                sides = {s: _Side(ctx, s, ShadowTable(ctx.side_graph(s))) for s in (1, 2)}
                subs = {1: {}, 2: {}}
                for code, prot in partial_mec_codes(ctx.a_graph):
                    O = _pdag_on(ctx.a_graph.vertices, ctx.a_pairs, code)
                    assert candidate_of(ctx, O) == (code, prot)
                    protected = protected_edges(O)
                    for s, side in sides.items():
                        sig = boundary_signature(side, code, prot)
                        sub = _sub_pdag_from_signature(side, sig)
                        assert sub.skeleton() == ctx.side_graph(s)
                        # the marks and protected edges the tuple signature
                        # read from the whole O
                        for u, v in ctx.side_graph(s).skeleton_edges():
                            assert sub.has_directed(u, v) == O.has_directed(u, v)
                            assert sub.has_directed(v, u) == O.has_directed(v, u)
                        verts = ctx.side_vertices(s)
                        assert _protected_of(side, sig) == {
                            e for e in protected if e[0] in verts and e[1] in verts
                        }
                        mask = side.colliders(sig)
                        assert _colliders_of_mask(side, mask) == v_structures(sub)
                        subs[s][sub] = mask
                # a shadow on ``sub`` lands in the bucket of the collider
                # set the signature shows, read from its key in the table
                for s, seen in subs.items():
                    F = ShadowTable(ctx.side_graph(s))
                    for sub in seen:
                        F.add(Shadow(sub, EMPTY_TABLE), 1)
                    side = _Side(ctx, s, F)
                    shadows = list(F)
                    for mask, idxs in side.buckets.items():
                        for i in idxs:
                            assert seen[shadows[i].o] == mask


    def test_side_table_off_its_boundary_graph_is_rejected(self):
        H = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        ctx = DecompositionContext(
            h=H, h1={"a", "b", "c"}, h2={"c", "d"}, s1={"b", "c"}, s2={"c", "d"}
        )
        rows = partial_mec_codes(ctx.a_graph)
        F1, F2 = ShadowTable(ctx.b1_graph), ShadowTable(ctx.b2_graph)
        assert list(extensions(ctx, rows, F1, F2)) == []
        # the other side's graph, and the right vertices with an edge missing
        missing = ShadowTable(UndirectedGraph(vertices="abc", edges=[("a", "b")]))
        for bad1, bad2 in ((F2, F2), (missing, F2), (F1, F1), (F1, ShadowTable(Pdag("cd")))):
            with pytest.raises(GraphInputError):
                list(extensions(ctx, rows, bad1, bad2))


def _protected_of(side, sig):
    # the protected directed edges a signature records, as label pairs
    return {
        (u, v) if (sig >> 2 * j) & 3 == 1 else (v, u)
        for j, (u, v) in zip(side.pos, side.edges)
        if (sig >> side.shift + j) & 1
    }


class TestSideChecksAgainstReference:
    def test_every_signature_of_every_computed_cut(self, monkeypatch):
        # both sides of each cut the engine computes, with the real child
        # tables, for every boundary candidate's signature; this seed's
        # draws hold shadows whose justifications force an orientation the
        # signature leaves undirected or reverses
        rng = random.Random(42)
        graphs = [ladder(3), ladder(4), grid(3, 3)]
        graphs += [random_connected_graph(rng, 8, max_degree=3, extra=3) for _ in range(3)]
        seen = {"cuts": 0, "checked": 0, "passed": 0, "direction": 0, "justification": 0}
        real = counting.extensions

        def checked(cut, rows, F1, F2):
            seen["cuts"] += 1
            for s, F in ((1, F1), (2, F2)):
                side = _Side(cut, s, F)
                for code, prot in rows:
                    sig = boundary_signature(side, code, prot)
                    ok = _side_checks(side, sig)
                    assert ok == oracles.side_checks_reference(side, sig)
                    bucket = side.buckets.get(side.colliders(sig), ())
                    # the shadows the directed-trit mask lets through
                    kept = [i for i in bucket if sig & (p := side.profiles[i]).dmask == p.dval]
                    assert set(ok) <= set(kept)
                    seen["checked"] += len(bucket)
                    seen["passed"] += len(ok)
                    seen["direction"] += len(bucket) - len(kept)
                    seen["justification"] += len(kept) - len(ok)
            return real(cut, rows, F1, F2)

        monkeypatch.setattr(counting, "extensions", checked)
        for G in graphs:
            assert count_mecs(G, "fpt") == oracles.count_mecs_by_dags(G)
        assert seen["cuts"] > 20
        # verdicts of every kind: passes, rejections on a direction, and
        # rejections by the justification masks alone
        assert seen["passed"] and seen["direction"] and seen["justification"]


class TestSideCheckWork:
    # a timer-free pin of the side checks' work: before the directed-trit
    # pre-test the 2x7 ladder made 1,568 condition calls (the 3x3 grid's
    # figures did not move)
    CASES = [(ladder(7), 39584, 933, 556), (grid(3, 3), 758, 937, 937)]

    @pytest.mark.parametrize("G, count, checks, subs", CASES, ids=["ladder2x7", "grid3x3"])
    def test_condition_calls_and_side_graphs(self, G, count, checks, subs, monkeypatch):
        calls = {"_struct_ok_profiled": 0, "_sub_pdag_from_signature": 0}
        for name in calls:
            real = getattr(extension, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(extension, name, counted)
        assert count_mecs(G, "fpt") == count
        assert calls == {"_struct_ok_profiled": checks, "_sub_pdag_from_signature": subs}


# -- the closure on integer rows ---------------------------------------------


def _pairs_of(rows, slots):
    return {(s, b) for s in slots for b in range(rows[s].bit_length()) if rows[s] >> b & 1}


def _closure_reference(p1, p2, n):
    """Set-based closure of slot pairs ``p1`` and slot-vertex pairs ``p2``:
    ``p1`` closed transitively without its diagonal, ``p2`` composed with
    it without edge heads, and whether two distinct edges reach each other
    (``(p1 & p1.T).any()`` on the matrix form)."""
    rel = set(p1)
    changed = True
    while changed:
        changed = False
        for e, f in list(rel):
            for g, h in list(rel):
                if f == g and (e, h) not in rel:
                    rel.add((e, h))
                    changed = True
    rel = {(e, f) for e, f in rel if e != f}
    cyclic = any((f, e) in rel for e, f in rel)
    hits = set(p2) | {(e, w) for e, f in rel for g, w in p2 if g == f}
    return rel, {(e, w) for e, w in hits if w != e % n}, cyclic


def _random_entries(rng, n, slots, dense):
    """Rows over all ``n * n`` slots: p1 bits on other slots, p2 bits on
    vertices other than the row's head; ``dense`` of the candidates set."""
    p1, p2 = [0] * (n * n), [0] * (n * n)
    for s in slots:
        for f in range(n * n):
            if f != s and f // n != f % n and rng.random() < dense:
                p1[s] |= 1 << f
        for w in range(n):
            if w != s % n and rng.random() < dense:
                p2[s] |= 1 << w
    return p1, p2


def _profile(p1, p2):
    # only the path rows take part in the closure; no directed or
    # undirected edges, so no masks
    rows1 = {s: r for s, r in enumerate(p1) if r}
    rows2 = {s: r for s, r in enumerate(p2) if r}
    return _ShadowProfile(0, 0, [], [], rows1, rows2)


def _check_import_and_reclose(n, slots, seed1, seed2, extra1, extra2, rng):
    """Close ``seed``, import ``extra`` split over two profiles, and compare
    with closing the union (restricted to ``slots``) from scratch."""
    present = set(slots)
    closed = seed1[:]
    cyclic = _close_p1(closed, slots)
    base = _BoundaryClosure(n, slots, closed, _close_p2(closed, seed2, slots, n), cyclic)
    ref1, ref2, ref_cyclic = _closure_reference(
        _pairs_of(seed1, slots), _pairs_of(seed2, slots), n
    )
    assert (_pairs_of(base.p1, slots), _pairs_of(base.p2, slots), base.cyclic) == (
        ref1, ref2, ref_cyclic
    )
    halves = [([0] * (n * n), [0] * (n * n)) for _ in range(2)]
    for rows, k in ((extra1, 0), (extra2, 1)):
        for s, row in enumerate(rows):
            for b in range(row.bit_length()):
                if row >> b & 1:
                    halves[rng.randrange(2)][k][s] |= 1 << b
    p1, p2, cyclic = _combine(base, _profile(*halves[0]), _profile(*halves[1]))
    union1 = _pairs_of(seed1, slots) | {
        (e, f) for e, f in _pairs_of(extra1, range(n * n)) if e in present and f in present
    }
    union2 = _pairs_of(seed2, slots) | {
        (e, w) for e, w in _pairs_of(extra2, range(n * n)) if e in present
    }
    ref1, ref2, ref_cyclic = _closure_reference(union1, union2, n)
    assert _pairs_of(p1, slots) == ref1
    assert _pairs_of(p2, slots) == ref2
    assert cyclic == ref_cyclic
    # rows of absent slots stay empty
    assert not any(p1[s] or p2[s] for s in range(n * n) if s not in present)
    return ref_cyclic


class TestIntegerClosure:
    def test_random_relations(self):
        rng = random.Random(71)
        cyclic = 0
        for _ in range(150):
            n = rng.randint(2, 6)
            slots = [s for s in range(n * n) if s // n != s % n and rng.random() < 0.5]
            seed1, seed2 = _random_entries(rng, n, slots, rng.choice((0.0, 0.05, 0.15)))
            seed1 = [row & sum(1 << s for s in slots) for row in seed1]
            extra1, extra2 = _random_entries(rng, n, range(n * n), rng.choice((0.0, 0.05, 0.1)))
            extra1 = [0 if s // n == s % n else row for s, row in enumerate(extra1)]
            extra2 = [0 if s // n == s % n else row for s, row in enumerate(extra2)]
            cyclic += _check_import_and_reclose(n, slots, seed1, seed2, extra1, extra2, rng)
        assert 0 < cyclic < 150

    def test_mec_seeds_with_imported_entries(self):
        rng = random.Random(72)
        checked = 0
        for _ in range(30):
            U = random_chain_chordal(rng, max_edges=8).skeleton()
            for M in enumerate_mecs(U):
                n = M.n
                slots, seed1, seed2 = _seed_matrices(n, M._rows, U._rows)
                cells = oracles.adjacency_bytes(M)
                assert slots == [s for s in range(n * n) if cells[s]]
                extra1, extra2 = _random_entries(rng, n, slots, rng.choice((0.0, 0.05, 0.2)))
                _check_import_and_reclose(n, slots, seed1, seed2, extra1, extra2, rng)
                checked += 1
        assert checked > 50

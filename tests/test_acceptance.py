"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest -v -s tests/test_acceptance.py``.  The suites reuse a
shared instance family; the glue sweep (criteria 5/6/8) walks every
decomposition cut of every instance with at most seven vertices.
"""

import itertools
import random
import time

import pytest

from meccount import (
    Pdag,
    UndirectedGraph,
    brute_count_mecs,
    brute_count_mecs_andersson,
    construct_mec,
    count_mecs,
    enumerate_mecs,
    enumerate_partial_mecs,
    is_extension,
    is_mec,
    lbfs_with_o,
    shadow_of_mec,
    tfp_table,
    v_structures,
    verify_merge,
)
from meccount.extension import DecompositionContext
from meccount.shadow import partial_mec_codes
from meccount.treedecomp import cut_last_child, tree_decomposition, validate_td

import oracles
from conftest import connected_graphs, decoded_extensions, random_connected_graph, random_chain_chordal


@pytest.fixture(scope="module")
def suite2():
    out = []
    for n in range(1, 6):
        out.extend(connected_graphs(n))
    return out


@pytest.fixture(scope="module")
def suite3():
    rng = random.Random(20240901)
    return [
        random_connected_graph(rng, [6, 7, 8][t % 3], max_degree=4)
        for t in range(200)
    ]


def test_criterion_1_fig1_count(capsys):
    G = UndirectedGraph(edges=[("A", "B"), ("A", "C")])
    assert count_mecs(G) == 2  # warm-up and correctness
    best = min(
        _timed(lambda: count_mecs(G))[0] for _ in range(7)
    )
    assert count_mecs(G) == 2
    assert best < 1e-3, f"count took {best * 1e3:.3f} ms"
    print(f"ACCEPTANCE 1: PASS (count=2 in {best * 1e6:.0f} us)")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def test_criterion_2_exhaustive_small_graphs(suite2):
    t0 = time.perf_counter()
    for G in suite2:
        fpt = count_mecs(G, "fpt")
        brute = brute_count_mecs(G)
        assert fpt == brute, f"fpt={fpt} brute={brute} on {G!r}"
        if G.edge_count() <= 10:
            assert brute == brute_count_mecs_andersson(G)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"suite took {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 2: PASS ({len(suite2)} graphs with n<=5, three-way "
        f"agreement, {elapsed:.1f}s)"
    )


def test_criterion_3_randomized_oracle_equivalence(suite3):
    t0 = time.perf_counter()
    for G in suite3:
        assert count_mecs(G, "fpt") == brute_count_mecs(G), f"mismatch on {G!r}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"suite took {elapsed:.0f}s"
    print(f"ACCEPTANCE 3: PASS (200 random graphs n in 6..8, {elapsed:.1f}s)")


def test_criterion_4_tfp_tables():
    rng = random.Random(424242)
    t0 = time.perf_counter()
    for _ in range(500):
        P = random_chain_chordal(rng, max_edges=12)
        t = tfp_table(P)
        edges = list(P.ordered_edges())
        for e in edges:
            for f in edges:
                expect = e != f and oracles.tfp_search(P, e, to_edge=f)
                assert ((e, f) in t.p1) == expect
            for w in P.vertices:
                expect = e[1] != w and oracles.tfp_search(P, e, to_vertex=w)
                assert ((e, w) in t.p2) == expect
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"suite took {elapsed:.0f}s"
    print(f"ACCEPTANCE 4: PASS (500 path tables vs per-query search, {elapsed:.1f}s)")


class _GlueReport:
    def __init__(self):
        self.instances = 0
        self.cuts = 0
        self.dpf_checked = 0
        self.extension_checked = 0
        self.direct_extension_checked = 0
        self.glued = 0
        self.orders_checked = 0
        self.tds_validated = 0
        self.elapsed = 0.0


def _walk_cuts(G):
    td = tree_decomposition(G.skeleton())
    stack = [(G, td)]
    while stack:
        g, t = stack.pop()
        yield g, t
        if len(t.bags) == 1:
            continue
        td1, td2, r2 = cut_last_child(t, t.root)
        stack.append((g.induced_subgraph(td1.vertices()), td1))
        stack.append((g.induced_subgraph(td2.vertices()), td2))


@pytest.fixture(scope="module")
def glue_report(suite2, suite3):
    """One sweep shared by criteria 5, 6 and 8.

    For every cut of every instance with n <= 7: check the combined path
    table of each class against its true boundary table (criterion 5);
    check that ``extensions``, the routine the engine runs, yields exactly
    the realized (boundary, shadow, shadow) triples, with direct
    is_extension spot checks, the product counting identity, and glue
    round trips (criterion 6); collect the structural flags (criterion 8).
    """
    rep = _GlueReport()
    rng = random.Random(7)
    t0 = time.perf_counter()
    family = [G for G in suite2 if G.n >= 2] + [G for G in suite3 if G.n <= 7]
    for G in family:
        rep.instances += 1
        for g, t in _walk_cuts(G):
            assert validate_td(g, t)
            rep.tds_validated += 1
            if len(t.bags) == 1:
                continue
            td1, td2, r2 = cut_last_child(t, t.root)
            V1, V2 = td1.vertices(), td2.vertices()
            ctx = DecompositionContext(
                h=g, h1=V1, h2=V2, s1=t.bags[t.root], s2=t.bags[r2]
            )
            rep.cuts += 1
            g1 = g.induced_subgraph(V1)
            g2 = g.induced_subgraph(V2)
            side1: dict = {}
            proj1: dict = {}
            for M1 in enumerate_mecs(g1):
                proj1[v_structures(M1)] = M1
                side1.setdefault(shadow_of_mec(M1, ctx.b1_vertices), []).append(M1)
            side2: dict = {}
            proj2: dict = {}
            for M2 in enumerate_mecs(g2):
                proj2[v_structures(M2)] = M2
                side2.setdefault(shadow_of_mec(M2, ctx.b2_vertices), []).append(M2)
            # the engine's decision over the whole triple space
            rows = partial_mec_codes(ctx.a_graph)
            candidates = list(enumerate_partial_mecs(ctx.a_graph))
            sh1s = list(side1)
            sh2s = list(side2)
            tables = {
                (O, sh1s[i], sh2s[j]): table
                for O, i, j, table in decoded_extensions(ctx, rows, sh1s, sh2s)
            }
            # ground truth per class of the glued graph
            realized: dict = {}
            for M in enumerate_mecs(g):
                M1 = proj1[v_structures(M.induced_subgraph(V1))]
                M2 = proj2[v_structures(M.induced_subgraph(V2))]
                sh1 = shadow_of_mec(M1, ctx.b1_vertices)
                sh2 = shadow_of_mec(M2, ctx.b2_vertices)
                O = M.induced_subgraph(ctx.boundary_vertices)
                expected = shadow_of_mec(M, ctx.boundary_vertices).table
                got = tables.get((O, sh1, sh2))
                assert got == expected, f"combined table mismatch on {g!r}"
                rep.dpf_checked += 1
                realized.setdefault((O, sh1, sh2), set()).add(M)
            # extensions == realization, over the whole triple space
            for O in candidates:
                for sh1 in sh1s:
                    for sh2 in sh2s:
                        accept = (O, sh1, sh2) in tables
                        real = (O, sh1, sh2) in realized
                        assert accept == real, f"extension mismatch on {g!r}"
                        rep.extension_checked += 1
                        if accept or rng.random() < 0.01:
                            assert is_extension(ctx, O, sh1, sh2) == accept
                            rep.direct_extension_checked += 1
                        if accept:
                            m1s = side1[sh1]
                            m2s = side2[sh2]
                            assert len(realized[(O, sh1, sh2)]) == len(m1s) * len(m2s)
                            glued = set()
                            for M1 in m1s:
                                for M2 in m2s:
                                    M = construct_mec(ctx, M1, M2, O)
                                    assert verify_merge(M, ctx, M1, M2, O)
                                    assert is_mec(M)
                                    glued.add(M)
                                    rep.glued += 1
                                    rep.orders_checked += _check_orders(M1, M2, O)
                            assert glued == realized[(O, sh1, sh2)]
    rep.elapsed = time.perf_counter() - t0
    return rep


def _check_orders(M1, M2, O):
    checked = 0
    for M in (M1, M2):
        for comp in M.undirected_components():
            if len(comp) < 2:
                continue
            C = M.induced_subgraph(comp).skeleton()
            tau = lbfs_with_o(C, O)
            ranks = tau.ranks
            for v in tau.order:
                earlier = [u for u in C.neighbors(v) if ranks[u] < ranks[v]]
                for a, b in itertools.combinations(earlier, 2):
                    assert C.has_edge(a, b), "ordering is not an elimination order"
            for u, v in O.directed_edges():
                if u in ranks and v in ranks and C.has_edge(u, v):
                    assert ranks[u] < ranks[v]
            checked += 1
    return checked


def test_criterion_5_combined_tables_ground_truth(glue_report):
    assert glue_report.dpf_checked > 0
    print(
        f"ACCEPTANCE 5: PASS ({glue_report.dpf_checked} combined tables equal "
        f"the merged class's boundary table; {glue_report.cuts} cuts; "
        f"{glue_report.elapsed:.1f}s shared sweep)"
    )


def test_criterion_6_extension_soundness_completeness(glue_report):
    assert glue_report.extension_checked > 0
    assert glue_report.glued > 0
    print(
        f"ACCEPTANCE 6: PASS ({glue_report.extension_checked} triples decided, "
        f"{glue_report.direct_extension_checked} direct cross-checks, "
        f"{glue_report.glued} glue round trips verified)"
    )


def _path(n):
    return UndirectedGraph(edges=[(i, i + 1) for i in range(n - 1)])


def _random_tree_deg3(rng, n):
    while True:
        labels = list(range(n))
        edges = []
        deg = {v: 0 for v in labels}
        order = labels[:]
        rng.shuffle(order)
        ok = True
        for i in range(1, n):
            cand = [u for u in order[:i] if deg[u] < 3]
            if not cand:
                ok = False
                break
            u = rng.choice(cand)
            edges.append((min(u, order[i]), max(u, order[i])))
            deg[u] += 1
            deg[order[i]] += 1
        if ok:
            return UndirectedGraph(vertices=labels, edges=sorted(edges))


def test_criterion_7_scaling():
    sizes = (10, 20, 40, 80)
    floor = 0.05  # absorb timer noise on tiny runs
    rng = random.Random(99)
    families = {
        "path": _path,
        "tree": lambda n: _random_tree_deg3(rng, n),
    }
    count_mecs(_path(10), "fpt")  # warm
    report = []
    for name, gen in families.items():
        graphs = {n: gen(n) for n in sizes}
        assert count_mecs(graphs[10], "fpt") == brute_count_mecs(graphs[10])
        times = {}
        for n in sizes:
            times[n] = min(_timed(lambda: count_mecs(graphs[n], "fpt"))[0] for _ in range(3))
        for a, b in zip(sizes, sizes[1:]):
            ratio = times[b] / max(times[a], floor)
            assert ratio <= 4.0, f"{name}: t({b})/t({a}) = {ratio:.2f} > 4"
        report.append(
            f"{name}: " + " ".join(f"n={n}:{times[n]*1e3:.0f}ms" for n in sizes)
        )
    print(f"ACCEPTANCE 7: PASS ({'; '.join(report)})")


def test_criterion_8_structural_invariants(glue_report, suite3):
    # decompositions validated throughout the sweep; spot-validate suite3's
    # larger instances too, and the class test on every glued output ran
    # inside criterion 6 (verify_merge includes it)
    for G in suite3[:40]:
        td = tree_decomposition(G)
        assert validate_td(G, td)
    assert glue_report.tds_validated > 0
    assert glue_report.orders_checked > 0
    print(
        f"ACCEPTANCE 8: PASS ({glue_report.tds_validated} decompositions valid, "
        f"{glue_report.orders_checked} orderings are elimination orders "
        f"respecting the boundary, all glued outputs pass the class test)"
    )

import itertools
import random

import pytest
from hypothesis import HealthCheck, settings

from meccount import Pdag, ShadowTable, UndirectedGraph, count_mecs
from meccount.extension import _derived_table, extensions
from meccount.mecrules import _pdag_on, is_chain_graph

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # load the enumeration kernels once so timings elsewhere are warm
    count_mecs(UndirectedGraph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)]), "fpt")
    count_mecs(UndirectedGraph(edges=[(0, 1), (1, 2)]), "brute")


def connected_graphs(n):
    """Every connected labeled undirected graph on vertices 0..n-1."""
    verts = list(range(n))
    pairs = list(itertools.combinations(verts, 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        G = UndirectedGraph(vertices=verts, edges=edges)
        if G.is_connected():
            yield G


def random_connected_graph(rng: random.Random, n: int, max_degree=None, extra=None):
    while True:
        labels = list(range(n))
        edges = set()
        deg = {v: 0 for v in labels}
        order = labels[:]
        rng.shuffle(order)
        ok = True
        for i in range(1, n):
            cand = [
                u
                for u in order[:i]
                if max_degree is None or deg[u] < max_degree
            ]
            if not cand:
                ok = False
                break
            u = rng.choice(cand)
            v = order[i]
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
        if not ok:
            continue
        budget = rng.randint(0, n) if extra is None else extra
        for _ in range(budget):
            u, v = rng.sample(labels, 2)
            e = (min(u, v), max(u, v))
            if e in edges:
                continue
            if max_degree is not None and (deg[u] >= max_degree or deg[v] >= max_degree):
                continue
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
        return UndirectedGraph(vertices=labels, edges=sorted(edges))


def random_chain_chordal(rng: random.Random, max_edges: int = 12) -> Pdag:
    """A random chain graph with chordal undirected components."""
    while True:
        n = rng.randint(2, 7)
        G = random_connected_graph(rng, n)
        if G.edge_count() > max_edges:
            continue
        und, dire = [], []
        for u, v in G.edges:
            r = rng.random()
            if r < 0.5:
                und.append((u, v))
            elif r < 0.75:
                dire.append((u, v))
            else:
                dire.append((v, u))
        P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
        if not is_chain_graph(P):
            continue
        if all(
            len(c) <= 2 or P.induced_subgraph(c).skeleton().is_chordal()
            for c in P.undirected_components()
        ):
            return P


def decoded_extensions(ctx, candidates, sh1s, sh2s):
    """``extensions`` run on tables of the given distinct shadows, with its
    rows decoded: ``(O, i, j, table)``, ``i`` and ``j`` indices into
    ``sh1s`` and ``sh2s``."""
    F1 = ShadowTable(ctx.b1_graph)
    for sh in sh1s:
        F1.add(sh, 1)
    F2 = ShadowTable(ctx.b2_graph)
    for sh in sh2s:
        F2.add(sh, 1)
    for code, i, j, p1, p2 in extensions(ctx, candidates, F1, F2):
        O = _pdag_on(ctx.a_graph.vertices, ctx.a_pairs, code)
        yield O, i, j, _derived_table(ctx, p1, p2)


def ladder(k):
    """The 2 x k ladder."""
    edges = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return UndirectedGraph(edges=edges + [(i, k + i) for i in range(k)])


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return UndirectedGraph(edges=edges)

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import meccount
from meccount import (
    GraphInputError,
    Pdag,
    PreconditionError,
    UndirectedGraph,
    enumerate_mecs,
    markov_union,
)
from meccount.graph import _transpose, label_key
from meccount.mecrules import _code_of_pdag, _pdag_on, _skeleton_pairs

import oracles
from conftest import connected_graphs, grid, ladder, random_connected_graph


def pdag(und=(), dire=(), verts=()):
    return Pdag(vertices=verts, undirected=und, directed=dire)


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphInputError):
            Pdag(undirected=[("a", "a")])

    def test_parallel_edges_rejected(self):
        with pytest.raises(GraphInputError):
            Pdag(undirected=[("a", "b")], directed=[("b", "a")])
        with pytest.raises(GraphInputError):
            UndirectedGraph(edges=[("a", "b"), ("b", "a")])

    def test_ordered_edge_view_convention(self):
        P = pdag(und=[("a", "b")], dire=[("b", "c")])
        assert set(P.ordered_edges()) == {("a", "b"), ("b", "a"), ("b", "c")}


class TestInducedSubgraph:
    def test_directed_restriction(self):
        P = pdag(dire=[("a", "b"), ("c", "b")])
        Q = P.induced_subgraph({"a", "b"})
        assert Q.directed_edges() == (("a", "b"),)

    def test_no_edge_survives(self):
        P = pdag(und=[("a", "b"), ("b", "c")])
        Q = P.induced_subgraph({"a", "c"})
        assert Q.edge_count() == 0 and Q.vertex_set == {"a", "c"}

    def test_path_restriction(self):
        P = pdag(und=[("a", "b"), ("b", "c"), ("c", "d")])
        Q = P.induced_subgraph({"a", "b", "d"})
        assert Q.undirected_edges() == (("a", "b"),)
        assert "d" in Q

    def test_unknown_vertex(self):
        with pytest.raises(GraphInputError):
            pdag(und=[("a", "b")]).induced_subgraph({"a", "z"})


class TestNeighbors:
    def test_star(self):
        P = pdag(und=[("c", "x"), ("c", "y"), ("c", "z")])
        assert P.neighbors({"c"}) == {"x", "y", "z"}

    def test_empty(self):
        assert pdag(und=[("a", "b")]).neighbors(set()) == frozenset()

    def test_interior_members_included(self):
        P = pdag(und=[("a", "b"), ("b", "c"), ("c", "d")])
        assert P.neighbors({"b", "c"}) == {"a", "b", "c", "d"}

    def test_unknown(self):
        with pytest.raises(GraphInputError):
            pdag(und=[("a", "b")]).neighbors({"q"})


class TestComponents:
    def test_mixed(self):
        P = pdag(dire=[("a", "b")], und=[("b", "c")])
        assert P.undirected_components() == (frozenset({"a"}), frozenset({"b", "c"}))

    def test_fully_undirected(self):
        P = pdag(und=[("a", "b"), ("b", "c")])
        assert P.undirected_components() == (frozenset({"a", "b", "c"}),)

    def test_fully_directed(self):
        P = pdag(dire=[("a", "b"), ("b", "c")])
        assert len(P.undirected_components()) == 3

    def test_partition(self):
        rng = random.Random(0)
        for _ in range(30):
            G = random_connected_graph(rng, rng.randint(2, 7))
            marks = [rng.random() < 0.5 for _ in G.edges]
            und = [e for e, m in zip(G.edges, marks) if m]
            dire = [e for e, m in zip(G.edges, marks) if not m]
            P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
            comps = P.undirected_components()
            everything = set()
            for c in comps:
                assert not (everything & c)
                everything |= c
                sub = P.induced_subgraph(c)
                if len(c) > 1:
                    assert len(sub.skeleton().components()) >= 1
                    und_only = Pdag(
                        vertices=c, undirected=sub.undirected_edges()
                    )
                    assert len(und_only.components()) == 1
            assert everything == P.vertex_set


class TestChordal:
    def test_c4(self):
        C4 = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not C4.is_chordal()

    def test_tree(self):
        T = UndirectedGraph(edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
        assert T.is_chordal()

    def test_k4_minus_edge(self):
        G = UndirectedGraph(edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert G.is_chordal()

    def test_against_induced_cycle_search(self):
        for G in connected_graphs(5):
            assert G.is_chordal() == oracles.chordal_by_induced_cycles(G)
        rng = random.Random(7)
        for _ in range(120):
            G = random_connected_graph(rng, rng.randint(6, 8))
            assert G.is_chordal() == oracles.chordal_by_induced_cycles(G)


class TestSkeleton:
    def test_collider(self):
        P = pdag(dire=[("a", "b"), ("c", "b")])
        assert P.skeleton() == UndirectedGraph(edges=[("a", "b"), ("b", "c")])

    def test_identity_on_undirected(self):
        G = UndirectedGraph(edges=[("a", "b")])
        assert G.skeleton() == G

    def test_empty(self):
        assert Pdag().skeleton() == UndirectedGraph()

    def test_commutes_with_restriction(self):
        rng = random.Random(3)
        for _ in range(40):
            G = random_connected_graph(rng, rng.randint(2, 6))
            und, dire = [], []
            for u, v in G.edges:
                (und if rng.random() < 0.5 else dire).append((u, v))
            P = Pdag(vertices=G.vertices, undirected=und, directed=dire)
            S = set(rng.sample(list(P.vertices), rng.randint(0, P.n)))
            left = P.induced_subgraph(S).skeleton()
            right = P.skeleton().induced_subgraph(S)
            assert left == right


class TestMarkovUnion:
    def test_direction_wins(self):
        a = pdag(und=[("a", "b")])
        b = pdag(dire=[("a", "b")])
        assert markov_union([a, b]) == pdag(dire=[("a", "b")])

    def test_plain_union(self):
        out = markov_union([pdag(und=[("a", "b")]), pdag(und=[("b", "c")])])
        assert out == pdag(und=[("a", "b"), ("b", "c")])

    def test_synchrony_violation(self):
        with pytest.raises(PreconditionError) as exc:
            markov_union([pdag(dire=[("a", "b")]), pdag(dire=[("b", "a")])])
        assert "'a'" in str(exc.value) and "'b'" in str(exc.value)

    def test_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(30):
            gs = []
            for _ in range(3):
                G = random_connected_graph(rng, rng.randint(2, 5))
                und, dire = [], []
                for u, v in G.edges:
                    r = rng.random()
                    if r < 0.6:
                        und.append((u, v))
                    else:
                        dire.append((u, v) if r < 0.8 else (v, u))
                gs.append(Pdag(vertices=G.vertices, undirected=und, directed=dire))
            try:
                ref = markov_union(gs)
            except PreconditionError:
                continue
            assert markov_union(gs[::-1]) == ref
            assert markov_union([markov_union(gs[:2]), gs[2]]) == ref


# -- the bit-row representation against plain edge lists -------------------------

MIXED_LABELS = [*range(12), *"abcdefghijkl"]


def _random_marked(rng, n):
    """A random connected skeleton on mixed int/str labels, sometimes with
    an isolated vertex besides, its edges split into undirected and directed
    lists."""
    G = random_connected_graph(rng, n)
    name = dict(zip([*G.vertices, None], rng.sample(MIXED_LABELS, n + 1)))
    if rng.random() < 0.7:
        del name[None]
    und, dire = [], []
    for u, v in G.edges:
        u, v = name[u], name[v]
        r = rng.random()
        if r < 0.4:
            und.append((u, v))
        else:
            dire.append((u, v) if r < 0.7 else (v, u))
    return list(name.values()), und, dire


def _matrix(vertices, und, dire) -> bytes:
    """The row-major 0/1 byte matrix of the edge lists over sorted labels."""
    at = {v: i for i, v in enumerate(sorted(vertices, key=label_key))}
    n = len(at)
    want = bytearray(n * n)
    for u, v in und:
        want[at[u] * n + at[v]] = want[at[v] * n + at[u]] = 1
    for u, v in dire:
        want[at[u] * n + at[v]] = 1
    return bytes(want)


def _same(P, Q):
    assert P == Q and hash(P) == hash(Q)


class TestBitRows:
    def test_adjacency_matches_edge_lists(self):
        rng = random.Random(31)
        for _ in range(60):
            verts, und, dire = _random_marked(rng, rng.randint(2, 9))
            P = Pdag(verts, und, dire)
            assert oracles.adjacency_bytes(P) == _matrix(verts, und, dire)

    def test_equality_and_hash_across_constructors(self):
        rng = random.Random(32)
        for _ in range(60):
            verts, und, dire = _random_marked(rng, rng.randint(2, 9))
            P = Pdag(verts, und, dire)
            pairs = _skeleton_pairs(P.skeleton())
            code = _code_of_pdag(P, P.vertices, [(j, i, k) for j, (i, k) in enumerate(pairs)])
            _same(_pdag_on(P.vertices, pairs, code), P)
            S = set(rng.sample(verts, rng.randint(1, len(verts))))
            _same(
                P.induced_subgraph(S),
                Pdag(
                    S,
                    [e for e in und if set(e) <= S],
                    [e for e in dire if set(e) <= S],
                ),
            )
            _same(P.skeleton(), UndirectedGraph(verts, und + dire))
            _same(P.skeleton(), Pdag(verts, und + dire))
            k, h = rng.randint(0, len(und)), rng.randint(0, len(dire))
            halves = [Pdag(verts, und[:k], dire[:h]), Pdag(verts, und[k:], dire[h:])]
            _same(markov_union(halves), P)
            _same(markov_union([P, Pdag(verts, dire)]), P)

    def test_undirected_graphs_have_symmetric_rows(self):
        # UndirectedGraph.is_fully_undirected answers without a transpose,
        # so every way of making one must leave its rows symmetric
        rng = random.Random(34)
        for _ in range(60):
            verts, und, dire = _random_marked(rng, rng.randint(2, 9))
            U, P = UndirectedGraph(verts, und + dire), Pdag(verts, und, dire)
            S = rng.sample(verts, rng.randint(0, len(verts)))
            for G in (U, U.induced_subgraph(S), P.skeleton(), P.skeleton().induced_subgraph(S)):
                assert type(G) is UndirectedGraph and G.is_fully_undirected()
                assert list(G._rows) == _transpose(G._rows)

    @pytest.mark.parametrize(
        "U",
        [
            UndirectedGraph(edges=[(0, k) for k in range(1, 6)]),
            grid(3, 3),
            ladder(5),
        ],
        ids=["K1,5", "grid3x3", "ladder2x5"],
    )
    def test_enumerate_mecs_in_adjacency_byte_order(self, U):
        keys = [oracles.adjacency_bytes(M) for M in enumerate_mecs(U)]
        assert len(keys) > 1 and keys == sorted(keys)

    def test_enumerate_mecs_in_adjacency_byte_order_random(self):
        rng = random.Random(33)
        for _ in range(40):
            verts, und, dire = _random_marked(rng, rng.randint(2, 7))
            keys = [oracles.adjacency_bytes(M) for M in enumerate_mecs(UndirectedGraph(verts, und + dire))]
            assert keys == sorted(keys)


def test_counting_routes_do_not_import_numpy(tmp_path):
    """With NumPy unimportable, every module of the package imports and the
    CLI's count, enumerate and verify commands run."""
    path = tmp_path / "cycle8.txt"
    path.write_text("".join(f"{i} {(i + 1) % 8}\n" for i in range(8)))
    code = (
        "import contextlib, importlib, io, pkgutil, sys\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            raise ImportError('numpy is blocked')\n"
        "sys.meta_path.insert(0, NoNumpy())\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('numpy imported')\n"
        "import meccount\n"
        "for mod in pkgutil.iter_modules(meccount.__path__):\n"
        "    importlib.import_module('meccount.' + mod.name)\n"
        "from meccount import cli\n"
        "for argv in (['count', sys.argv[1]], ['enumerate', sys.argv[1]], ['verify', sys.argv[1]]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print(out.getvalue().splitlines()[-1])\n"
    )
    src = str(Path(meccount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    cycle8 = meccount.UndirectedGraph(edges=[(i, (i + 1) % 8) for i in range(8)])
    count = meccount.count_mecs(cycle8)
    assert out.stdout.splitlines() == [str(count), f"count {count}", "1/1 ok"]


def test_package_keeps_no_process_global_state():
    """No module of the package caches results across calls or moves the
    recursion limit, so a count leaves the interpreter as it found it."""
    pattern = re.compile(r"lru_cache|functools\.cache\b|setrecursionlimit")
    for path in sorted(Path(meccount.__file__).resolve().parent.glob("*.py")):
        assert not pattern.findall(path.read_text()), path.name

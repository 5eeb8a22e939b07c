"""Kernel-vs-predicate agreement.

The mark-code enumerations must coincide with filtering every assignment
through the pure predicates, and the kernels must agree with the slow
references in ``oracles``.
"""

import itertools
import random

import pytest

from meccount import Pdag, UndirectedGraph
from meccount import _kernels
from meccount.mecrules import (
    _encode,
    _pdag_on,
    _protected_pairs,
    is_mec,
    is_partial_mec,
)

import oracles
from conftest import connected_graphs, grid, ladder, random_connected_graph


class TestKernelSemantics:
    def _decode(self, G, pairs, code):
        und, dire = [], []
        for j, (i, k) in enumerate(pairs):
            t = (code >> (2 * j)) & 3
            u, v = G.vertices[i], G.vertices[k]
            if t == 0:
                und.append((u, v))
            elif t == 1:
                dire.append((u, v))
            else:
                dire.append((v, u))
        return Pdag(vertices=G.vertices, undirected=und, directed=dire)

    @pytest.mark.parametrize("require_protection", [False, True])
    def test_mark_codes_match_predicates(self, require_protection):
        pred = is_mec if require_protection else is_partial_mec
        for G in connected_graphs(4):
            n, eu, ev, skel, pairs = _encode(G)
            got = {
                self._decode(G, pairs, c)
                for c, _ in _kernels.mark_codes(n, eu, ev, skel, require_protection)
            }
            expected = set()
            for marks in itertools.product((0, 1, 2), repeat=len(pairs)):
                code = sum(m << (2 * j) for j, m in enumerate(marks))
                P = self._decode(G, pairs, code)
                if pred(P):
                    expected.add(P)
            assert got == expected

    def test_chordal_bits_matches_lbfs_test(self):
        rng = random.Random(73)
        for _ in range(60):
            G = random_connected_graph(rng, rng.randint(2, 8))
            n, eu, ev, skel, pairs = _encode(G)
            und = skel.copy()
            assert _kernels.chordal_bits(n, und) == G.is_chordal()

    def test_acyclic_masks_chunk_stitching(self):
        G = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        n, eu, ev, skel, pairs = _encode(G)
        m = len(pairs)
        whole = _kernels.acyclic_masks(n, eu, ev, 0, 1 << m)
        parts = [
            mask
            for lo in range(0, 1 << m, 7)
            for mask in _kernels.acyclic_masks(n, eu, ev, lo, min(lo + 7, 1 << m))
        ]
        assert whole == parts


class TestProtectionMasks:
    def test_masks_match_predicate_and_filter_route(self):
        rng = random.Random(75)
        done = 0
        while done < 100:
            G = random_connected_graph(rng, rng.randint(2, 8))
            n, eu, ev, skel, pairs = _encode(G)
            if len(pairs) > 9:
                continue
            done += 1
            pos = {}
            for j, (i, k) in enumerate(pairs):
                pos[i, k] = pos[k, i] = j
            rows = _kernels.mark_codes(n, eu, ev, skel, False)
            whole = []
            for code, prot in rows:
                P = _pdag_on(G.vertices, pairs, code)
                assert prot == sum(1 << pos[e] for e in _protected_pairs(P))
                reference = sum(
                    1 << pos[P._index[u], P._index[v]]
                    for u, v in P.directed_edges()
                    if oracles.strongly_protected_reference(P, (u, v))
                )
                assert prot == reference, (G.edges, code)
                directed = sum(1 << j for j in range(len(pairs)) if (code >> 2 * j) & 3)
                if prot == directed:
                    whole.append((code, prot))
            # the filter route keeps exactly the fully protected rows, in order
            assert _kernels.mark_codes(n, eu, ev, skel, True) == whole


class TestAcyclicMasksAgainstReference:
    def test_random_graphs_whole_ranges_and_chunks(self):
        rng = random.Random(74)
        done = 0
        while done < 100:
            G = random_connected_graph(rng, rng.randint(2, 8))
            n, eu, ev, skel, pairs = _encode(G)
            m = len(pairs)
            if m > 14:
                continue
            done += 1
            ref = oracles.acyclic_masks_reference(n, eu, ev, 0, 1 << m)
            whole = _kernels.acyclic_masks(n, eu, ev, 0, 1 << m)
            assert all(a < b for a, b in zip(whole, whole[1:]))
            assert whole == ref
            step = rng.choice((3, 7, 37, 100))
            parts = [
                mask
                for lo in range(0, 1 << m, step)
                for mask in _kernels.acyclic_masks(n, eu, ev, lo, min(lo + step, 1 << m))
            ]
            assert parts == ref
            lo = rng.randrange(1 << m)
            hi = rng.randint(lo, 1 << m)
            got = _kernels.acyclic_masks(n, eu, ev, lo, hi)
            assert got == oracles.acyclic_masks_reference(n, eu, ev, lo, hi)


class TestAcyclicMasksLongWalks:
    # a path and a cycle make the cycle test walk far, complete graphs
    # give it dense rows: shapes the random graphs above (n <= 8) miss.
    # Each comes with its number of acyclic orientations (K_{4,4}'s is the
    # poly-Bernoulli number B_4^(-4))
    GRAPHS = [
        (UndirectedGraph(edges=[(i, i + 1) for i in range(15)]), 2**15),
        (UndirectedGraph(edges=[(i, (i + 1) % 12) for i in range(12)]), 2**12 - 2),
        (UndirectedGraph(edges=[(i, j) for i in range(6) for j in range(i + 1, 6)]), 720),
        (UndirectedGraph(edges=[(i, j) for i in range(4) for j in range(4, 8)]), 6902),
    ]

    @pytest.mark.parametrize("G, acyclic", GRAPHS, ids=["path16", "cycle12", "K6", "K4,4"])
    def test_whole_range_and_chunks(self, G, acyclic):
        n, eu, ev, skel, pairs = _encode(G)
        m = len(pairs)
        ref = oracles.acyclic_masks_reference(n, eu, ev, 0, 1 << m)
        assert len(ref) == acyclic
        assert _kernels.acyclic_masks(n, eu, ev, 0, 1 << m) == ref
        for step in (1000, 4099):
            parts = [
                mask
                for lo in range(0, 1 << m, step)
                for mask in _kernels.acyclic_masks(n, eu, ev, lo, min(lo + step, 1 << m))
            ]
            assert parts == ref


class TestMarkCodesAgainstReference:
    # the kernel's per-depth reach rows and early protection tests must
    # keep exactly the rows the reference's whole-graph walks and leaf-only
    # protection keep, in the same order; in filter mode the kernel cuts
    # more search nodes (see TestMarkCodesPruning)
    FIXED = [
        (UndirectedGraph(vertices=range(3)), (False, True)),
        (UndirectedGraph(edges=[(0, 1), (1, 2), (0, 2)]), (False, True)),
        (UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)]), (False, True)),
        (UndirectedGraph(edges=[(i, j) for i in range(4) for j in range(i + 1, 4)]), (False, True)),
        (UndirectedGraph(edges=[(0, k) for k in range(1, 6)]), (False, True)),
        (grid(3, 3), (False, True)),  # m = 12, the filter route's cap
        (ladder(6), (False,)),  # m = 16, a boundary the engine enumerates
        (ladder(5), (False, True)),  # m = 13, past the filter route's cap
        (UndirectedGraph(edges=[(i, (i + 1) % 5) for i in range(5)]), (False, True)),
    ]

    @pytest.mark.parametrize("G, modes", FIXED)
    def test_fixed_graphs(self, G, modes):
        n, eu, ev, skel, pairs = _encode(G)
        for require_protection in modes:
            got = _kernels.mark_codes(n, eu, ev, skel, require_protection)
            assert got == oracles.mark_codes_reference(n, eu, ev, skel, require_protection)

    @pytest.mark.parametrize("require_protection", [False, True])
    def test_random_graphs(self, require_protection):
        rng = random.Random(76)
        done = 0
        while done < 300:
            G = random_connected_graph(rng, rng.randint(2, 8))
            n, eu, ev, skel, pairs = _encode(G)
            if len(pairs) > 11:
                continue
            done += 1
            got = _kernels.mark_codes(n, eu, ev, skel, require_protection)
            ref = oracles.mark_codes_reference(n, eu, ev, skel, require_protection)
            assert got == ref, G.edges


def _complete(n):
    return UndirectedGraph(vertices=range(n), edges=itertools.combinations(range(n), 2))


def _star(leaves):
    return UndirectedGraph(edges=[(0, k) for k in range(1, leaves + 1)])


class TestMarkCodesPackedReach:
    # the reach rows live in one int of (n + 1)-bit blocks: complete graphs
    # fill every block, so adding all-ones carries into every guard bit;
    # stars push through one hub; 10 vertices make the packed int wider
    # than 64 bits.  Each is checked against every trit assignment run
    # through the predicates
    GRAPHS = [_complete(n) for n in range(1, 6)] + [_star(3), _star(6), _star(9)]
    GRAPHS.append(UndirectedGraph(edges=[(i, i + 1) for i in range(9)]))

    @pytest.mark.parametrize("require_protection", [False, True])
    @pytest.mark.parametrize(
        "G", GRAPHS, ids=[f"K{n}" for n in range(1, 6)] + ["K1,3", "K1,6", "K1,9", "P10"]
    )
    def test_against_every_assignment(self, G, require_protection):
        pred = is_mec if require_protection else is_partial_mec
        n, eu, ev, skel, pairs = _encode(G)
        rows = _kernels.mark_codes(n, eu, ev, skel, require_protection)
        expected = set()
        for marks in itertools.product((0, 1, 2), repeat=len(pairs)):
            code = sum(t << 2 * j for j, t in enumerate(marks))
            if pred(_pdag_on(G.vertices, pairs, code)):
                expected.add(code)
        assert sorted(code for code, _ in rows) == sorted(expected)
        pos = {}
        for j, (i, k) in enumerate(pairs):
            pos[i, k] = pos[k, i] = j
        for code, prot in rows:
            P = _pdag_on(G.vertices, pairs, code)
            assert prot == sum(1 << pos[e] for e in _protected_pairs(P))


class TestMarkCodesPruning:
    # filter mode decides each arc's protection at the depth its last
    # incident edge is marked, so few partial classes reach the leaf's
    # chordality test; a count, so the host's speed cannot affect it
    CASES = [
        (grid(3, 3), 758, 846),
        (ladder(5), 1200, 1413),
        (UndirectedGraph(edges=[(i, j) for i in range(4) for j in range(i + 1, 4)]), 1, 1),
    ]

    @pytest.mark.parametrize("G, classes, max_leaves", CASES, ids=["grid3x3", "ladder5", "K4"])
    def test_leaves_reached_in_filter_mode(self, G, classes, max_leaves, monkeypatch):
        leaves = []
        chordal_bits = _kernels.chordal_bits

        def counting(n, und):
            leaves.append(n)
            return chordal_bits(n, und)

        monkeypatch.setattr(_kernels, "chordal_bits", counting)
        n, eu, ev, skel, pairs = _encode(G)
        assert len(_kernels.mark_codes(n, eu, ev, skel, True)) == classes
        assert len(leaves) <= max_leaves

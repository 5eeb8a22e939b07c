"""Gluing boundary graphs to child summaries.

Given a separator-respecting split of an undirected graph into two halves,
a candidate boundary graph is an *extension* of two child shadows when its
marks are exactly those forced by the children's reachability tables and
its combined path table stays antisymmetric.  The derived path table (the
combination) is the closure of the boundary's own triangle-free paths with
the entries imported from both children.

:func:`extensions` is the one place where that decision is made: the
counting engine, :func:`is_extension` and the tests all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphInputError, PreconditionError
from .graph import Pdag, UndirectedGraph
from .mecrules import _collider_triples, _pdag_from_code, _protected_pairs, is_partial_mec
from .shadow import Shadow
from .tfp import TfpTable, _close_p1, _close_p2, _matrices_to_table, _seed_matrices


class DecompositionContext:
    """A two-way separator split of an undirected host graph.

    ``h1`` and ``h2`` are the vertex sets of the two induced halves whose
    union covers every edge; ``i = h1 & h2`` separates the rest.  ``s1`` and
    ``s2`` are bag vertex sets with ``s1 & s2 == i``.  The derived boundary
    graphs: ``a_graph`` around ``s1 | s2`` inside the whole host, ``b1`` and
    ``b2`` around each bag inside its half.
    """

    def __init__(self, h: UndirectedGraph, h1, h2, s1, s2):
        self.h = h
        self.h1 = frozenset(h1)
        self.h2 = frozenset(h2)
        self.s1 = frozenset(s1)
        self.s2 = frozenset(s2)
        if not (self.h1 | self.h2) == h.vertex_set:
            raise PreconditionError("the two halves must cover the host's vertices")
        self.i = self.h1 & self.h2
        for u, v in h.skeleton_edges():
            inside1 = u in self.h1 and v in self.h1
            inside2 = u in self.h2 and v in self.h2
            if not (inside1 or inside2):
                raise PreconditionError(
                    f"edge ({u!r}, {v!r}) crosses the separator split"
                )
        if not self.s1 <= self.h1 or not self.s2 <= self.h2:
            raise PreconditionError("bag sets must lie inside their halves")
        if self.s1 & self.s2 != self.i:
            raise PreconditionError("bag intersection must equal the separator")
        self.half1 = h.induced_subgraph(self.h1)
        self.half2 = h.induced_subgraph(self.h2)
        self.boundary_vertices = frozenset(h.closed_neighborhood(self.s1 | self.s2))
        self.a_graph = h.induced_subgraph(self.boundary_vertices)
        self.b1_vertices = frozenset(self.half1.closed_neighborhood(self.s1))
        self.b2_vertices = frozenset(self.half2.closed_neighborhood(self.s2))
        self.b1_graph = self.half1.induced_subgraph(self.b1_vertices)
        self.b2_graph = self.half2.induced_subgraph(self.b2_vertices)
        # the a-graph's skeleton edges as index pairs, in the order the
        # candidates' trit codes use
        idx = self.a_graph._index
        self.a_pairs = [(idx[u], idx[v]) for u, v in self.a_graph.skeleton_edges()]

    def side_graph(self, side: int) -> Pdag:
        return self.b1_graph if side == 1 else self.b2_graph

    def side_vertices(self, side: int) -> frozenset:
        return self.b1_vertices if side == 1 else self.b2_vertices


def is_valid_dpf(t: TfpTable) -> bool:
    """Antisymmetry: no pair of distinct edges reachable in both directions."""
    return not any((f, e) in t.p1 for e, f in t.p1)


def _check_side_shadow(ctx: DecompositionContext, sh: Shadow, side: int) -> None:
    expect = ctx.side_graph(side)
    if sh.o.vertex_set != expect.vertex_set or not np.array_equal(
        sh.o.adjacency | sh.o.adjacency.T, expect.adjacency | expect.adjacency.T
    ):
        raise GraphInputError(
            f"side-{side} shadow does not live on the bag boundary graph"
        )


def _check_boundary(ctx: DecompositionContext, o: Pdag) -> None:
    if o.vertex_set != ctx.a_graph.vertex_set or not np.array_equal(
        o.adjacency | o.adjacency.T, ctx.a_graph.adjacency
    ):
        raise GraphInputError("candidate boundary graph has the wrong skeleton")
    if not is_partial_mec(o):
        raise PreconditionError("candidate boundary graph must be a partial MEC")


@dataclass
class _BoundaryClosure:
    """Step-1 state of the derived-path computation, reusable across pairs."""

    edges: list
    eidx: dict
    p1: np.ndarray
    p2: np.ndarray
    vindex: dict


def _boundary_closure(o: Pdag) -> _BoundaryClosure:
    edges, eidx, p1, p2 = _seed_matrices(o)
    p1c = _close_p1(p1)
    p2c = _close_p2(p1c, p2, edges, o._index)
    return _BoundaryClosure(edges=edges, eidx=eidx, p1=p1c, p2=p2c, vindex=o._index)


def _import_side(base: _BoundaryClosure, sh: Shadow, p1: np.ndarray, p2: np.ndarray):
    # copy the child's entries whose ordered pairs survive in the boundary's
    # ordered-edge view; pairs oriented away by the boundary simply have no
    # row or column to land in, mirroring the domain of the closure loops
    eidx = base.eidx
    vindex = base.vindex
    for e, f in sh.table.p1:
        ie = eidx.get(e)
        jf = eidx.get(f)
        if ie is not None and jf is not None:
            p1[ie, jf] = True
    for e, w in sh.table.p2:
        ie = eidx.get(e)
        if ie is not None:
            p2[ie, vindex[w]] = True


def _combine(base: _BoundaryClosure, o: Pdag, sh1: Shadow, sh2: Shadow):
    p1 = base.p1.copy()
    p2 = base.p2.copy()
    _import_side(base, sh1, p1, p2)
    _import_side(base, sh2, p1, p2)
    if np.array_equal(p1, base.p1) and np.array_equal(p2, base.p2):
        return p1, p2  # the base is closed already
    p1 = _close_p1(p1)
    p2 = _close_p2(p1, p2, base.edges, base.vindex)
    return p1, p2


def dpf(ctx: DecompositionContext, o: Pdag, sh1: Shadow, sh2: Shadow) -> TfpTable:
    """Derived path table: the boundary's own reachability, the children's
    imported entries, and the transitive closure of the two together.

    Assumes the structural mark conditions already hold for ``(o, sh1,
    sh2)``; :func:`is_extension` is the checked entry point.
    """
    _check_boundary(ctx, o)
    _check_side_shadow(ctx, sh1, 1)
    _check_side_shadow(ctx, sh2, 2)
    base = _boundary_closure(o)
    p1, p2 = _combine(base, o, sh1, sh2)
    return _matrices_to_table(o, base.edges, p1, p2)


# -- structural mark conditions -----------------------------------------
#
# A boundary candidate is the kernel's row ``(code, protected)`` over the
# a-graph's skeleton edges ``ctx.a_pairs`` (see ``shadow.partial_mec_codes``).
# A side check sees only the side's part of it, one integer: the trits at
# the side's edge positions and the protected bits there.


class _ShadowProfile:
    """Per-shadow facts reused across many boundary candidates."""

    __slots__ = ("directed", "vstructs", "und_pairs", "p1", "p2")

    def __init__(self, sh: Shadow, vstructs: int):
        self.directed = sh.o.directed_edges()
        self.vstructs = vstructs
        pairs = []
        for u, v in sh.o.undirected_edges():
            pairs.append((u, v))
            pairs.append((v, u))
        self.und_pairs = tuple(pairs)
        self.p1 = sh.table.p1
        self.p2 = sh.table.p2


class _Side:
    """One side of a cut as its checks see the candidates: where its edges
    sit in the a-graph's codes, its potential colliders, its shadows'
    profiles bucketed by collider set, and the verdicts per signature."""

    __slots__ = ("graph", "pos", "edges", "pairs", "tmask", "pmask", "shift", "sel", "want",
                 "buckets", "memo")

    def __init__(self, ctx: DecompositionContext, side: int, shadows):
        g = ctx.side_graph(side)
        labels = ctx.a_graph.vertices
        where = {}
        for j, (i, k) in enumerate(ctx.a_pairs):
            where[labels[i], labels[k]] = where[labels[k], labels[i]] = j
        self.graph = g
        # the side's edges by a-graph position, each oriented as its a-graph pair
        self.pos = sorted(where[e] for e in g.skeleton_edges())
        self.edges = [(labels[ctx.a_pairs[j][0]], labels[ctx.a_pairs[j][1]]) for j in self.pos]
        self.pairs = [(g._index[u], g._index[v]) for u, v in self.edges]
        self.tmask = sum(3 << 2 * j for j in self.pos)
        self.pmask = sum(1 << j for j in self.pos)
        self.shift = 2 * len(ctx.a_pairs)
        skel = [0] * g.n
        for i, k in self.pairs:
            skel[i] |= 1 << k
            skel[k] |= 1 << i
        # triple t is a collider when both its edges point into its middle
        # vertex: trit 1 on an edge whose pair lists the tail first, else 2
        self.sel, self.want = [], []
        for a, wa, c, wc in zip(*(x.tolist() for x in _collider_triples(g.n, self.pairs, skel))):
            ja, jc = 2 * self.pos[a], 2 * self.pos[c]
            self.sel.append(3 << ja | 3 << jc)
            self.want.append((2 - wa) << ja | (2 - wc) << jc)
        self.buckets: dict = {}
        for i, sh in enumerate(shadows):
            prof = _ShadowProfile(sh, self.colliders(self.code_of(sh.o)))
            self.buckets.setdefault(prof.vstructs, []).append((i, prof))
        self.memo: dict = {}

    def colliders(self, code: int) -> int:
        """Bitmask of the potential collider triples that ``code`` realizes."""
        return sum(1 << t for t, (s, w) in enumerate(zip(self.sel, self.want)) if (code & s) == w)

    def code_of(self, o: Pdag) -> int:
        """The trits of a graph over the side's skeleton, at a-graph positions."""
        adj, idx = o.adjacency, o._index
        code = 0
        for j, (u, v) in zip(self.pos, self.edges):
            fwd, back = adj[idx[u], idx[v]], adj[idx[v], idx[u]]
            if fwd != back:
                code |= (1 if fwd else 2) << 2 * j
        return code

    def protected(self, sig: int) -> frozenset:
        """The protected directed edges a signature records, as label pairs."""
        return frozenset(
            (u, v) if (sig >> 2 * j) & 3 == 1 else (v, u)
            for j, (u, v) in zip(self.pos, self.edges)
            if (sig >> self.shift + j) & 1
        )


def boundary_signature(side: _Side, code: int, prot: int) -> int:
    """What a side check may observe of a candidate: its marks on the side's
    edges and which of those are protected in the whole boundary graph."""
    return code & side.tmask | (prot & side.pmask) << side.shift


def _sub_pdag_from_signature(side: _Side, sig: int) -> Pdag:
    # the side's trits, moved from a-graph positions to the side's own
    compact = 0
    for k, j in enumerate(side.pos):
        compact |= ((sig >> 2 * j) & 3) << 2 * k
    return _pdag_from_code(side.graph, side.pairs, compact)


def _struct_ok_profiled(sub: Pdag, sub_vstructs, prot, prof: _ShadowProfile) -> bool:
    """Mark conditions between a side shadow and the boundary graph, seen
    through the side's signature (``sub``, its collider set ``sub_vstructs``
    and its protected edges ``prot``).

    (1) the shadow's directed edges keep their direction; (2) collider sets
    agree on the shadow's vertices; (3) each edge undirected in the shadow
    is directed in the boundary exactly when protection or one of the two
    imported reachability justifications forces it, and never against a
    direction a justification forces.
    """
    if prof.vstructs != sub_vstructs:
        return False
    for u, v in prof.directed:
        if not sub.has_directed(u, v):
            return False
    # the shadow's undirected edges are edges of ``sub`` too: each is
    # directed one way in it, or undirected
    activated = {(x, y) for x, y in prof.und_pairs if sub.has_directed(x, y)}
    p1, p2 = prof.p1, prof.p2
    for u, v in prof.und_pairs:
        justified = any(
            ((x, y), (u, v)) in p1
            or (((x, y), v) in p2 and ((v, u), x) in p2)
            for x, y in activated
        )
        if (u, v) in activated:
            if not ((u, v) in prot or justified):
                return False
        elif justified:
            # forced u -> v, but the boundary leaves the edge undirected or
            # directs it v -> u
            return False
    return True


def protected_edges(o: Pdag) -> frozenset:
    labels = o.vertices
    return frozenset((labels[i], labels[j]) for i, j in _protected_pairs(o))


def _side_checks(side: _Side, sig: int) -> list:
    """Indices of the side's shadows that pass for ``sig``, ascending.

    A side check sees only the signature, so candidates sharing one share
    the verdicts; only shadows with the signature's collider set can pass.
    """
    ok = side.memo.get(sig)
    if ok is None:
        vs = side.colliders(sig)
        bucket = side.buckets.get(vs)
        ok = []
        if bucket:
            sub = _sub_pdag_from_signature(side, sig)
            prot = side.protected(sig)
            ok = [i for i, prof in bucket if _struct_ok_profiled(sub, vs, prot, prof)]
        side.memo[sig] = ok
    return ok


def extensions(ctx: DecompositionContext, candidates, sh1s, sh2s):
    """Every extension among ``candidates`` x ``sh1s`` x ``sh2s``.

    ``candidates`` are rows ``(code, protected)`` of partial MECs on
    ``ctx.a_graph``, as :func:`shadow.partial_mec_codes` gives them.
    Yields ``(O, i, j, table)`` for each candidate boundary graph ``O``
    that extends ``sh1s[i]`` and ``sh2s[j]``, with ``table`` the derived
    path table of the three, in candidate order, then ``i``, then ``j``.
    The shadows must live on the side boundary graphs; :func:`is_extension`
    is the checked entry point.
    """
    side1 = _Side(ctx, 1, sh1s)
    side2 = _Side(ctx, 2, sh2s)
    for code, prot in candidates:
        ok1 = _side_checks(side1, boundary_signature(side1, code, prot))
        if not ok1:
            continue
        ok2 = _side_checks(side2, boundary_signature(side2, code, prot))
        if not ok2:
            continue
        O = _pdag_from_code(ctx.a_graph, ctx.a_pairs, code)
        base = _boundary_closure(O)
        for i in ok1:
            for j in ok2:
                p1, p2 = _combine(base, O, sh1s[i], sh2s[j])
                if bool((p1 & p1.T).any()):
                    continue
                yield O, i, j, _matrices_to_table(O, base.edges, p1, p2)


def candidate_of(ctx: DecompositionContext, o: Pdag) -> tuple[int, int]:
    """The row ``(code, protected)`` of the boundary graph ``o``, as
    :func:`shadow.partial_mec_codes` gives it."""
    prot = protected_edges(o)
    labels = ctx.a_graph.vertices
    code = mask = 0
    for j, (i, k) in enumerate(ctx.a_pairs):
        u, v = labels[i], labels[k]
        if o.has_directed(u, v):
            trit, e = 1, (u, v)
        elif o.has_directed(v, u):
            trit, e = 2, (v, u)
        else:
            continue
        code |= trit << 2 * j
        if e in prot:
            mask |= 1 << j
    return code, mask


def is_extension(
    ctx: DecompositionContext, o: Pdag, sh1: Shadow, sh2: Shadow
) -> bool:
    """Full extension test: structural mark conditions on both sides, then
    antisymmetry of the combined path table."""
    _check_boundary(ctx, o)
    _check_side_shadow(ctx, sh1, 1)
    _check_side_shadow(ctx, sh2, 2)
    return next(extensions(ctx, [candidate_of(ctx, o)], [sh1], [sh2]), None) is not None

"""Gluing boundary graphs to child summaries.

Given a separator-respecting split of an undirected graph into two halves,
a candidate boundary graph is an *extension* of two child shadows when its
marks are exactly those forced by the children's reachability tables and
its combined path table stays antisymmetric.  The derived path table (the
combination) is the closure of the boundary's own triangle-free paths with
the entries imported from both children.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphInputError, PreconditionError
from .graph import Pdag, UndirectedGraph
from .mecrules import _protected_pairs, is_partial_mec, v_structures
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
        self._side_edges = (self.b1_graph.skeleton_edges(), self.b2_graph.skeleton_edges())

    def side_graph(self, side: int) -> Pdag:
        return self.b1_graph if side == 1 else self.b2_graph

    def side_vertices(self, side: int) -> frozenset:
        return self.b1_vertices if side == 1 else self.b2_vertices

    def side_edges(self, side: int) -> tuple:
        return self._side_edges[side - 1]


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


def boundary_signature(ctx: DecompositionContext, o: Pdag, protected, side: int):
    """What a side check may observe of ``o``: its marks on the side's
    boundary edges and which of those are protected in the full ``o``."""
    adj = o.adjacency
    idx = o._index
    marks = []
    for u, v in ctx.side_edges(side):
        fwd, back = adj[idx[u], idx[v]], adj[idx[v], idx[u]]
        marks.append("-" if fwd and back else ">" if fwd else "<")
    verts = ctx.side_vertices(side)
    prot = frozenset(e for e in protected if e[0] in verts and e[1] in verts)
    return (side, tuple(marks), prot)


def _sub_pdag_from_signature(ctx: DecompositionContext, sig) -> Pdag:
    side, marks, _ = sig
    expect = ctx.side_graph(side)
    idx = expect._index
    adj = np.zeros((expect.n, expect.n), dtype=bool)
    for (u, v), mk in zip(ctx.side_edges(side), marks):
        i, j = idx[u], idx[v]
        if mk == "-":
            adj[i, j] = adj[j, i] = True
        elif mk == ">":
            adj[i, j] = True
        else:
            adj[j, i] = True
    return Pdag._from_matrix(expect.vertices, adj)


class _ShadowProfile:
    """Per-shadow facts reused across many boundary candidates."""

    __slots__ = ("directed", "vstructs", "und_pairs", "p1", "p2")

    def __init__(self, sh: Shadow):
        self.directed = sh.o.directed_edges()
        self.vstructs = v_structures(sh.o)
        pairs = []
        for u, v in sh.o.undirected_edges():
            pairs.append((u, v))
            pairs.append((v, u))
        self.und_pairs = tuple(pairs)
        self.p1 = sh.table.p1
        self.p2 = sh.table.p2


def _struct_ok_profiled(sub: Pdag, sub_vstructs, prot, prof: _ShadowProfile) -> bool:
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
        elif (v, u) not in activated:
            if justified:
                return False
    return True


def struct_ok(ctx: DecompositionContext, sig, sh: Shadow) -> bool:
    """Mark conditions between a side shadow and the boundary graph.

    (1) the shadow's directed edges keep their direction; (2) collider sets
    agree on the shadow's vertices; (3) each edge undirected in the shadow
    is directed in the boundary exactly when protection or one of the two
    imported reachability justifications forces it.
    """
    sub = _sub_pdag_from_signature(ctx, sig)
    return _struct_ok_profiled(sub, v_structures(sub), sig[2], _ShadowProfile(sh))


def protected_edges(o: Pdag) -> frozenset:
    labels = o.vertices
    return frozenset((labels[i], labels[j]) for i, j in _protected_pairs(o))


def is_extension(
    ctx: DecompositionContext, o: Pdag, sh1: Shadow, sh2: Shadow
) -> bool:
    """Full extension test: structural mark conditions on both sides, then
    antisymmetry of the combined path table."""
    _check_boundary(ctx, o)
    _check_side_shadow(ctx, sh1, 1)
    _check_side_shadow(ctx, sh2, 2)
    prot = protected_edges(o)
    if not struct_ok(ctx, boundary_signature(ctx, o, prot, 1), sh1):
        return False
    if not struct_ok(ctx, boundary_signature(ctx, o, prot, 2), sh2):
        return False
    base = _boundary_closure(o)
    p1, _ = _combine(base, o, sh1, sh2)
    return not bool((p1 & p1.T).any())

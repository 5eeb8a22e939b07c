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

from functools import cached_property

from .errors import GraphInputError, PreconditionError
from .graph import Pdag, UndirectedGraph, _graph_on
from .mecrules import (
    _code_of_pdag,
    _code_rows,
    _collider_triples,
    _protected_pairs,
    is_partial_mec,
)
from .shadow import Shadow, ShadowTable
from .tfp import TfpTable, _close_p1, _close_p2, _closed_rows, _matrices_to_table


class _Cut:
    """A cut as the glue reads it: its a-graph's ranked ``a_labels`` (see
    :func:`_induced`), its skeleton edges as ascending index pairs
    ``a_pairs`` (the order of trit codes) and as rows ``a_skel``, and in
    ``domains`` the ascending positions of each side's boundary graph,
    ``b1`` and ``b2``."""

    def __init__(self, labels: tuple, pairs: tuple, b1, b2):
        self.a_labels, self.a_pairs = labels, pairs
        self.a_skel = _code_rows(len(labels), pairs, 0)
        self.domains = tuple(tuple(k for k, v in enumerate(labels) if v in b) for b in (b1, b2))

    def side(self, side: int) -> tuple:
        """The boundary graph of ``side``: its ranked labels, its skeleton
        edges as ascending index pairs, and where each sits in ``a_pairs``."""
        dom = self.domains[side - 1]
        at = {a: t for t, a in enumerate(dom)}
        pairs, pos = [], []
        for j, (i, k) in enumerate(self.a_pairs):
            if i in at and k in at:
                pairs.append((at[i], at[k]))
                pos.append(j)
        return tuple(self.a_labels[a] for a in dom), pairs, pos


def _cut_frame(nbrs: dict, host, s1, s2, rank) -> tuple:
    """The closed neighbourhoods ``x1`` and ``x2`` of the bags ``s1`` and
    ``s2`` inside ``host``, and the a-graph ``G[x1 | x2]`` (see
    :func:`_induced`): how the counting fold and
    :class:`DecompositionContext` alike derive a cut."""
    x1 = host & s1.union(*(nbrs[v] for v in s1))
    x2 = host & s2.union(*(nbrs[v] for v in s2))
    return x1, x2, *_induced(x1 | x2, nbrs, rank)


def _induced(vs, nbrs: dict, rank) -> tuple:
    """``G[vs]`` as its labels in ascending ``rank``, any key (the fold's
    decomposition order, :class:`DecompositionContext`'s label order), and
    its skeleton edges as ascending index pairs over them; ``nbrs`` holds
    ``G``'s neighbour sets."""
    labels = tuple(sorted(vs, key=rank))
    at = {v: k for k, v in enumerate(labels)}
    pairs = sorted(
        (i, k) for i, u in enumerate(labels) for v in nbrs[u] if (k := at.get(v, -1)) > i
    )
    return labels, tuple(pairs)


class DecompositionContext(_Cut):
    """A two-way separator split of an undirected host graph.

    ``h1`` and ``h2`` are the vertex sets of the two induced halves whose
    union covers every edge; ``i = h1 & h2`` separates the rest.  ``s1`` and
    ``s2`` are bag vertex sets with ``s1 & s2 == i``.  The derived boundary
    graphs: ``a_graph`` around ``s1 | s2`` inside the whole host, ``b1`` and
    ``b2`` around each bag inside its half; ``x_prime``, the vertices around
    ``s1`` inside the whole host, is the domain the glued table keeps.

    The split is derived as the counting engine derives a computed cut,
    into the same record (:class:`_Cut`); the graphs are built from it.
    """

    def __init__(self, h: UndirectedGraph, h1, h2, s1, s2):
        self.h = h
        self.h1 = frozenset(h1)
        self.h2 = frozenset(h2)
        self.s1 = frozenset(s1)
        self.s2 = frozenset(s2)
        self.i = _check_split(h.vertex_set, self.h1, self.h2, self.s1, self.s2, h.skeleton_edges())
        # no edge from a bag leaves its half, so the bag's closed
        # neighborhood inside its half is the host's cut down to the half,
        # and the a-graph holds it
        x1, x2, labels, pairs = _cut_frame(
            h.neighbor_sets(), h.vertex_set, self.s1, self.s2, h._index.__getitem__
        )
        self.x_prime = x1
        self.boundary_vertices = x1 | x2
        self.b1_vertices = x1 & self.h1
        self.b2_vertices = x2 & self.h2
        super().__init__(labels, pairs, self.b1_vertices, self.b2_vertices)

    a_graph = cached_property(lambda self: _graph_on(self.a_labels, self.a_pairs))
    b1_graph = cached_property(lambda self: _graph_on(*self.side(1)[:2]))
    b2_graph = cached_property(lambda self: _graph_on(*self.side(2)[:2]))
    half1 = cached_property(lambda self: self.h.induced_subgraph(self.h1))
    half2 = cached_property(lambda self: self.h.induced_subgraph(self.h2))

    def side_graph(self, side: int) -> Pdag:
        return self.b1_graph if side == 1 else self.b2_graph

    def side_vertices(self, side: int) -> frozenset:
        return self.b1_vertices if side == 1 else self.b2_vertices


def _check_split(host, h1, h2, s1, s2, edges) -> frozenset:
    """The separator ``h1 & h2`` of a split of the host's vertex set
    ``host`` into halves ``h1``, ``h2`` with bags ``s1``, ``s2``; raises
    :class:`PreconditionError` unless the halves cover the host, none of the
    host's ``edges`` crosses between the halves, each bag lies inside its
    half and the bags meet in the separator."""
    if h1 | h2 != host:
        raise PreconditionError("the two halves must cover the host's vertices")
    for u, v in edges:
        if not (u in h1 and v in h1 or u in h2 and v in h2):
            raise PreconditionError(f"edge ({u!r}, {v!r}) crosses the separator split")
    if not s1 <= h1 or not s2 <= h2:
        raise PreconditionError("bag sets must lie inside their halves")
    i = h1 & h2
    if s1 & s2 != i:
        raise PreconditionError("bag intersection must equal the separator")
    return i


def is_valid_dpf(t: TfpTable) -> bool:
    """Antisymmetry: no pair of distinct edges reachable in both directions."""
    return not any((f, e) in t.p1 for e, f in t.p1)


def _check_boundary(ctx: DecompositionContext, o: Pdag) -> None:
    if o.skeleton() != ctx.a_graph:
        raise GraphInputError("candidate boundary graph has the wrong skeleton")
    if not is_partial_mec(o):
        raise PreconditionError("candidate boundary graph must be a partial MEC")


# -- the derived path table on integer rows --------------------------------
#
# Rows live on the a-graph's ordered-pair slots ``u * n + v`` (see ``tfp``).
# A candidate's own closure is computed once and shared by all its pairs;
# each pair imports its two shadows' rows, through position maps built once
# per cut and side, and closes again only when the import added a bit.


class _BoundaryClosure:
    """A candidate's own closed rows, and which slots it keeps present."""

    __slots__ = ("n", "slots", "present", "p1", "p2", "cyclic")

    def __init__(self, n, slots, p1, p2, cyclic):
        self.n, self.slots, self.p1, self.p2, self.cyclic = n, slots, p1, p2, cyclic
        self.present = sum(1 << s for s in slots)


def _boundary_closure(cut: _Cut, code: int) -> _BoundaryClosure:
    n = len(cut.a_labels)
    return _BoundaryClosure(n, *_closed_rows(n, _code_rows(n, cut.a_pairs, code), cut.a_skel))


def _combine(base: _BoundaryClosure, prof1: "_ShadowProfile", prof2: "_ShadowProfile"):
    """The derived rows ``(p1, p2, cyclic)`` of a candidate and two shadows.

    A shadow's entries are imported where both ends survive in the
    candidate's ordered-edge view; pairs oriented away by the boundary
    simply have no slot to land in.  ``cyclic`` tells that two distinct
    edges reach each other (see ``tfp._close_p1``).
    """
    present = base.present
    p1, p2 = base.p1, base.p2
    add1, add2 = [], []
    for prof in (prof1, prof2):
        for s, row in prof.p1.items():
            if present >> s & 1:
                row &= present
                if row & ~p1[s]:
                    add1.append((s, row))
        for s, row in prof.p2.items():
            if present >> s & 1 and row & ~p2[s]:
                add2.append((s, row))
    if not add1 and not add2:
        return p1, p2, base.cyclic  # the base is closed already
    cyclic = base.cyclic
    if add1:
        p1 = p1[:]
        for s, row in add1:
            p1[s] |= row
        cyclic = _close_p1(p1, base.slots) or cyclic
    p2 = p2[:]
    for s, row in add2:
        p2[s] |= row
    return p1, _close_p2(p1, p2, base.slots, base.n), cyclic


def _single(graph: Pdag, sh: Shadow) -> ShadowTable:
    F = ShadowTable(graph)
    F.add(sh, 1)
    return F


def dpf(ctx: DecompositionContext, o: Pdag, sh1: Shadow, sh2: Shadow) -> TfpTable:
    """Derived path table: the boundary's own reachability, the children's
    imported entries, and the transitive closure of the two together.

    Assumes the structural mark conditions already hold for ``(o, sh1,
    sh2)``; :func:`is_extension` is the checked entry point.
    """
    _check_boundary(ctx, o)
    side1 = _Side(ctx, 1, _single(ctx.b1_graph, sh1))
    side2 = _Side(ctx, 2, _single(ctx.b2_graph, sh2))
    base = _boundary_closure(ctx, candidate_of(ctx, o)[0])
    p1, p2, _ = _combine(base, side1.profile(0), side2.profile(0))
    return _derived_table(ctx, p1, p2)


def _derived_table(ctx: DecompositionContext, p1, p2) -> TfpTable:
    """The path table of derived rows over all the a-graph's slots."""
    return _matrices_to_table(ctx.a_labels, range(len(ctx.a_labels) ** 2), p1, p2)


# -- structural mark conditions -----------------------------------------
#
# A boundary candidate is the kernel's row ``(code, protected)`` over the
# a-graph's skeleton edges ``cut.a_pairs`` (see ``shadow.partial_mec_codes``).
# A side check sees only the side's part of it, one integer: the trits at
# the side's edge positions and the protected bits there.  A side's shadows
# are the integer keys of its table, whose frame numbers vertices, slots and
# edge positions its own way; the side maps them onto the a-graph's.  The
# checks name an orientation of the a-graph's edge ``j`` by a bit laid out
# as trits are: bit ``2j`` for the way its pair lists it, ``2j + 1`` back.


class _ShadowProfile:
    """Per-shadow facts reused across many boundary candidates.

    ``dmask`` and ``dval`` are the trits of the shadow's directed edges at
    a-graph positions: a signature keeps their directions, condition (1)
    of :func:`_struct_ok_profiled`, exactly when ``sig & dmask == dval``.
    ``und`` lists its undirected edges as ``(u, v, bit)``, ``bit`` the
    orientation ``u -> v`` and ``bit << 1`` its reverse.  ``just`` pairs
    each undirected orientation that justifies any with the mask of those
    that activating it justifies, as read from its path rows ``p1`` and
    ``p2``, which are kept by a-graph slot."""

    __slots__ = ("dmask", "dval", "und", "just", "p1", "p2")

    def __init__(self, dmask, dval, und, just, p1, p2):
        self.dmask, self.dval, self.und, self.just = dmask, dval, und, just
        self.p1, self.p2 = p1, p2


class _Side:
    """One side of a cut as its checks see the candidates: where its edges
    sit in the a-graph's codes and in its table's frame, its potential
    colliders, its table's shadows bucketed by collider set, their profiles
    once a bucket is first checked, and the verdicts per signature."""

    __slots__ = ("labels", "index", "rows", "marks", "pos", "edges", "tmask", "pmask", "shift",
                 "sel", "want", "keys", "slots", "orient", "smap", "vmap", "buckets", "profiles",
                 "memo")

    def __init__(self, cut: _Cut, side: int, table: ShadowTable):
        labels, pairs, pos = cut.side(side)
        edges = [(labels[i], labels[k]) for i, k in pairs]
        if table._skeleton != (labels, tuple(edges)):
            raise GraphInputError(f"side-{side} table does not live on the bag boundary graph")
        self.labels, self.pos, self.edges = labels, pos, edges
        # the side's graph as rows with every edge both ways, which a
        # signature's directed trits thin out (_sub_pdag_from_signature)
        m = len(labels)
        self.index = {lab: k for k, lab in enumerate(labels)}
        self.rows = _code_rows(m, pairs, 0)
        self.marks = [(2 * j, i, k) for j, (i, k) in zip(pos, pairs)]
        self.tmask = sum(3 << 2 * j for j in pos)
        self.pmask = sum(1 << j for j in pos)
        self.shift = 2 * len(cut.a_pairs)
        # the table's domain and its edges are the side's, in the same
        # order, and both list a pair's ends in rank order, so a trit
        # reads the same in either; the frame's vertices, slots and edge
        # positions as the a-graph numbers them.  ``orient`` holds per edge
        # its trit's shift in keys and in signatures, its ends, and both
        # orientations as (slot, reverse slot, tail, head, orientation bit)
        n, nf = len(cut.a_labels), len(table.labels)
        self.vmap = dict(zip(table.inside, cut.domains[side - 1]))
        self.smap = {}
        self.orient = []
        for j, (jf, i, k), (u, v) in zip(pos, table.edges, edges):
            ai, ak = self.vmap[i], self.vmap[k]
            self.smap[i * nf + k] = ai * n + ak
            self.smap[k * nf + i] = ak * n + ai
            fwd = (ai * n + ak, ak * n + ai, ai, ak, 1 << 2 * j)
            back = (ak * n + ai, ai * n + ak, ak, ai, 2 << 2 * j)
            self.orient.append((2 * jf, 2 * j, u, v, fwd, back))
        # triple t is a collider when both its edges point into its middle
        # vertex: trit 1 on an edge whose pair lists the tail first, else 2;
        # read at a-graph positions in signatures, at frame positions in keys
        self.sel, self.want = [], []
        fsel, fwant = [], []
        for a, wa, c, wc in zip(*_collider_triples(m, pairs, self.rows)):
            for sel, want, ja, jc in (
                (self.sel, self.want, 2 * pos[a], 2 * pos[c]),
                (fsel, fwant, 2 * table.edges[a][0], 2 * table.edges[c][0]),
            ):
                sel.append(3 << ja | 3 << jc)
                want.append((2 - wa) << ja | (2 - wc) << jc)
        self.keys = list(table.entries)
        self.slots = table.slots
        self.buckets: dict = {}
        for i, key in enumerate(self.keys):
            self.buckets.setdefault(_realized(key[0], fsel, fwant), []).append(i)
        self.profiles: list = [None] * len(self.keys)
        self.memo: dict = {}

    def colliders(self, code: int) -> int:
        """Bitmask of the potential collider triples that ``code`` realizes."""
        return _realized(code, self.sel, self.want)

    def profile(self, i: int) -> _ShadowProfile:
        """The profile of the ``i``-th shadow, built on first use."""
        prof = self.profiles[i]
        if prof is None:
            code, p1, p2 = self.keys[i]
            smap, vmap = self.smap, self.vmap
            rows1, rows2 = {}, {}
            for s, r1, r2 in zip(self.slots, p1, p2):
                if r1:
                    rows1[smap[s]] = _moved(r1, smap)
                if r2:
                    rows2[smap[s]] = _moved(r2, vmap)
            dmask = dval = 0
            und, orients = [], []
            for jf, j2, u, v, fwd, back in self.orient:
                trit = code >> jf & 3
                if trit:
                    dmask |= 3 << j2
                    dval |= trit << j2
                else:
                    und.append((u, v, fwd[4]))
                    orients += (fwd, back)
            # x -> y justifies u -> v by a path x -> y ... u -> v, or by
            # paths x -> y ... v and v -> u ... x
            just = []
            for sxy, _, ix, _, bxy in orients:
                r1, r2 = rows1.get(sxy, 0), rows2.get(sxy, 0)
                mask = 0
                for suv, svu, _, iv, buv in orients:
                    if r1 >> suv & 1 or (r2 >> iv & 1 and rows2.get(svu, 0) >> ix & 1):
                        mask |= buv
                if mask:
                    just.append((bxy, mask))
            prof = self.profiles[i] = _ShadowProfile(dmask, dval, und, just, rows1, rows2)
        return prof


def _realized(code: int, sel, want) -> int:
    out, bit = 0, 1
    for s, w in zip(sel, want):
        if code & s == w:
            out |= bit
        bit <<= 1
    return out


def _moved(row: int, where: dict) -> int:
    """``row`` with bit ``b`` moved to bit ``where[b]``."""
    out = 0
    while row:
        low = row & -row
        row ^= low
        out |= 1 << where[low.bit_length() - 1]
    return out


def boundary_signature(side: _Side, code: int, prot: int) -> int:
    """What a side check may observe of a candidate: its marks on the side's
    edges and which of those are protected in the whole boundary graph."""
    return code & side.tmask | (prot & side.pmask) << side.shift


def _sub_pdag_from_signature(side: _Side, sig: int) -> Pdag:
    """The side's graph with the marks the signature shows on its edges."""
    rows = side.rows[:]
    for s, i, k in side.marks:
        trit = sig >> s & 3
        if trit == 1:
            rows[k] ^= 1 << i
        elif trit == 2:
            rows[i] ^= 1 << k
    return Pdag._from_rows(side.labels, rows, side.index)


def _struct_ok_profiled(sub: Pdag, prot: int, prof: _ShadowProfile) -> bool:
    """Condition (2) of the mark conditions between a side shadow and the
    boundary graph, seen through the side's signature: ``sub``, the side's
    graph with the signature's marks, and ``prot``, its protected edges as
    both orientation bits at a-graph positions.  The caller decides the
    rest: the shadow's collider set is the signature's (the bucket ensures
    it), and (1) the shadow's directed edges keep their direction (its
    profile's directed-trit mask).

    (2) each edge undirected in the shadow is directed in the boundary
    exactly when protection or one of the two imported reachability
    justifications forces it, and never against a direction a
    justification forces.  With ``on`` the shadow's undirected
    orientations that ``sub`` directs and ``jset`` those they justify, that
    is two tests: ``jset`` lies inside ``on``, and what of ``on`` lies
    outside ``jset`` is protected.
    """
    on = 0
    for u, v, bit in prof.und:
        if sub.has_directed(u, v):
            on |= bit
        elif sub.has_directed(v, u):
            on |= bit << 1
    jset = 0
    for bit, justified in prof.just:
        if on & bit:
            jset |= justified
    return not (jset & ~on or on & ~jset & ~prot)


def protected_edges(o: Pdag) -> frozenset:
    labels = o.vertices
    return frozenset((labels[i], labels[j]) for i, j in _protected_pairs(o))


def _side_checks(side: _Side, sig: int) -> list:
    """Indices of the side's shadows that pass for ``sig``, ascending.

    A side check sees only the signature, so candidates sharing one share
    the verdicts; only shadows with the signature's collider set and its
    directions on their directed edges can pass.
    """
    ok = side.memo.get(sig)
    if ok is None:
        ok = []
        sub = None
        profiles = side.profiles
        for i in side.buckets.get(side.colliders(sig), ()):
            prof = profiles[i] or side.profile(i)
            if sig & prof.dmask != prof.dval:
                continue
            if sub is None:
                sub = _sub_pdag_from_signature(side, sig)
                # bit j of the protected part, spread to bits 2j and 2j + 1
                prot = int(format(sig >> side.shift, "b"), 4) * 3
            if _struct_ok_profiled(sub, prot, prof):
                ok.append(i)
        side.memo[sig] = ok
    return ok


def extensions(cut: _Cut, candidates, F1: ShadowTable, F2: ShadowTable):
    """Every extension among ``candidates`` x ``F1`` x ``F2``.

    ``cut`` is a computed cut or a :class:`DecompositionContext`.
    ``candidates`` are rows ``(code, protected)`` of partial MECs on its
    a-graph, as :func:`shadow.partial_mec_codes` gives them; ``F1`` and
    ``F2`` are tables on the side boundary graphs.  Yields ``(code, i,
    j, p1, p2)`` for each candidate that extends the ``i``-th shadow of
    ``F1`` and the ``j``-th of ``F2`` (in table order), with ``p1`` and
    ``p2`` the derived path rows of the three over all the a-graph's slots
    (see ``tfp``), in candidate order, then ``i``, then ``j``.
    """
    side1 = _Side(cut, 1, F1)
    side2 = _Side(cut, 2, F2)
    for code, prot in candidates:
        ok1 = _side_checks(side1, boundary_signature(side1, code, prot))
        if not ok1:
            continue
        ok2 = _side_checks(side2, boundary_signature(side2, code, prot))
        if not ok2:
            continue
        base = _boundary_closure(cut, code)
        for i in ok1:
            prof1 = side1.profiles[i]
            for j in ok2:
                p1, p2, cyclic = _combine(base, prof1, side2.profiles[j])
                if not cyclic:
                    yield code, i, j, p1, p2


def candidate_of(ctx: DecompositionContext, o: Pdag) -> tuple[int, int]:
    """The row ``(code, protected)`` of the boundary graph ``o``, as
    :func:`shadow.partial_mec_codes` gives it."""
    prot = protected_edges(o)
    labels = ctx.a_labels
    code = _code_of_pdag(o, labels, [(j, i, k) for j, (i, k) in enumerate(ctx.a_pairs)])
    mask = 0
    for j, (i, k) in enumerate(ctx.a_pairs):
        trit = code >> 2 * j & 3
        if trit and ((labels[i], labels[k]) if trit == 1 else (labels[k], labels[i])) in prot:
            mask |= 1 << j
    return code, mask


def is_extension(
    ctx: DecompositionContext, o: Pdag, sh1: Shadow, sh2: Shadow
) -> bool:
    """Full extension test: structural mark conditions on both sides, then
    antisymmetry of the combined path table."""
    _check_boundary(ctx, o)
    F1 = _single(ctx.b1_graph, sh1)
    F2 = _single(ctx.b2_graph, sh2)
    return next(extensions(ctx, [candidate_of(ctx, o)], F1, F2), None) is not None

"""Predicates and brute-force oracles for Markov equivalence classes.

Two independent counting routes are kept deliberately separate so they can
cross-check each other and the treewidth engine:

* the orientation route enumerates every acyclic orientation of a skeleton
  and deduplicates by collider (v-structure) set;
* the filter route enumerates every three-way edge-mark assignment and keeps
  those passing the chain/chordal/protection characterization of a class
  representative graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .errors import CapacityError, GraphInputError, InternalInvariantError, PreconditionError
from .graph import Edge, Label, Pdag, label_key

DEFAULT_ORIENTATION_CAP = 24  # max skeleton edges for 2^m orientation sweeps
DEFAULT_MARKS_CAP = 12        # max skeleton edges for 3^m mark sweeps
_CHUNK = 1 << 18


@dataclass(frozen=True)
class VStructure:
    """An induced ``a -> b <- c`` with ``a`` and ``c`` non-adjacent.

    Canonicalized so that ``a`` precedes ``c`` in label order.
    """

    a: Label
    b: Label
    c: Label

    def __lt__(self, other):
        return (label_key(self.a), label_key(self.b), label_key(self.c)) < (
            (label_key(other.a), label_key(other.b), label_key(other.c))
        )


def v_structures(P: Pdag) -> frozenset[VStructure]:
    """All canonicalized collider triples of ``P``."""
    adj = P.adjacency
    d = adj & ~adj.T
    sk = adj | adj.T
    labels = P.vertices
    out: set[VStructure] = set()
    for b in np.nonzero(d.sum(axis=0) > 1)[0].tolist():
        tails = np.nonzero(d[:, b])[0]
        for i in range(len(tails)):
            for j in range(i + 1, len(tails)):
                a, c = int(tails[i]), int(tails[j])
                if not sk[a, c]:
                    la, lc = labels[a], labels[c]
                    if label_key(lc) < label_key(la):
                        la, lc = lc, la
                    out.add(VStructure(la, labels[b], lc))
    return frozenset(out)


def is_chain_graph(P: Pdag) -> bool:
    """No cycle of ``P`` (forward walk) contains a directed edge.

    Checked by contracting the undirected components and requiring that no
    directed edge joins two vertices of one component and that the
    inter-component digraph is acyclic.
    """
    comps = P.undirected_components()
    comp_of = {}
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    succ: dict[int, set[int]] = {k: set() for k in range(len(comps))}
    for u, v in P.directed_edges():
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            return False
        succ[cu].add(cv)
    # topological elimination of the component digraph
    indeg = {k: 0 for k in succ}
    for k, outs in succ.items():
        for t in outs:
            indeg[t] += 1
    stack = [k for k, dgr in indeg.items() if dgr == 0]
    seen = 0
    while stack:
        k = stack.pop()
        seen += 1
        for t in succ[k]:
            indeg[t] -= 1
            if indeg[t] == 0:
                stack.append(t)
    return seen == len(succ)


def _protected_pairs(P: Pdag) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` of the strongly protected edges ``i -> j``.

    The four witnesses for ``u -> v``: some ``w -> u`` with ``w`` and ``v``
    non-adjacent; some ``w -> v`` with ``w != u`` non-adjacent to ``u``; a
    directed detour ``u -> w -> v``; or two non-adjacent ``w - u``, ``w' - u``
    neighbors with ``w -> v`` and ``w' -> v``.  Tested by the kernel that
    the class enumeration uses, on bitmask rows.
    """
    n = P.n
    und, out, inb = [0] * n, [0] * n, [0] * n
    ii, jj = np.nonzero(P.adjacency)
    ordered = set(zip(ii.tolist(), jj.tolist()))
    directed = []
    for i, j in ordered:
        if (j, i) in ordered:
            und[i] |= 1 << j
        else:
            out[i] |= 1 << j
            inb[j] |= 1 << i
            directed.append((i, j))
    skel = [a | b | c for a, b, c in zip(und, out, inb)]
    return [(i, j) for i, j in directed if _kernels.protected(n, i, j, skel, und, out, inb)]


def is_strongly_protected(P: Pdag, e: Edge) -> bool:
    """Does the directed edge ``e`` sit in a protecting configuration?"""
    u, v = e
    if not P.has_directed(u, v):
        raise GraphInputError(f"({u!r}, {v!r}) is not a directed edge")
    return (P._index[u], P._index[v]) in _protected_pairs(P)


def _no_flag_pattern(P: Pdag) -> bool:
    # no induced x -> y - w (x, w non-adjacent)
    adj = P.adjacency
    d = adj & ~adj.T
    und = adj & adj.T
    sk = adj | adj.T
    for x, y in zip(*np.nonzero(d)):
        bad = und[y] & ~sk[x]
        bad[x] = False
        if bad.any():
            return False
    return True


def is_partial_mec(P: Pdag) -> bool:
    """Chain graph, chordal undirected components, no induced ``x -> y - w``."""
    if not is_chain_graph(P):
        return False
    if not _no_flag_pattern(P):
        return False
    for comp in P.undirected_components():
        if len(comp) > 2 and not P.induced_subgraph(comp).skeleton().is_chordal():
            return False
    return True


def is_mec(P: Pdag) -> bool:
    """Characterization of class-representative graphs: a partial MEC whose
    directed edges are all strongly protected."""
    if not is_partial_mec(P):
        return False
    return len(_protected_pairs(P)) == len(P.directed_edges())


# -- encodings shared with the enumeration kernels ----------------------


def _require_undirected(U: Pdag) -> Pdag:
    if not U.is_fully_undirected():
        raise GraphInputError("expected a graph with no directed edges")
    return U


def _encode(g: Pdag):
    """Kernel encoding of a skeleton: index arrays and bitmask rows."""
    n = g.n
    pairs = [(g._index[u], g._index[v]) for u, v in g.skeleton_edges()]
    m = len(pairs)
    _kernels.check_bitset_capacity(n, m)
    eu = np.array([p[0] for p in pairs], dtype=np.int64)
    ev = np.array([p[1] for p in pairs], dtype=np.int64)
    skel = np.zeros(n, dtype=np.int64)
    for i, j in pairs:
        skel[i] |= np.int64(1) << j
        skel[j] |= np.int64(1) << i
    return n, eu, ev, skel, pairs


def _collider_triples(n, pairs, skel):
    """Potential collider triples (a, b, c) of a skeleton, kernel-encoded."""
    eidx = {}
    for j, (i, k) in enumerate(pairs):
        eidx[(i, k)] = j
        eidx[(k, i)] = j
    e1, w1, e2, w2 = [], [], [], []
    for b in range(n):
        nbrs = [i for i in range(n) if (skel[b] >> i) & 1]
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                a, c = nbrs[x], nbrs[y]
                if (skel[a] >> c) & 1:
                    continue
                j1 = eidx[(a, b)]
                j2 = eidx[(c, b)]
                e1.append(j1)
                w1.append(1 if (a, b) == pairs[j1] else 0)
                e2.append(j2)
                w2.append(1 if (c, b) == pairs[j2] else 0)
    return (
        np.array(e1, dtype=np.int64),
        np.array(w1, dtype=np.int64),
        np.array(e2, dtype=np.int64),
        np.array(w2, dtype=np.int64),
    )


def _check_edge_cap(m: int, max_edges: int, sweep: str) -> None:
    if m > max_edges:
        raise CapacityError(
            f"{m} edges exceeds the {sweep} enumeration cap of {max_edges}",
            limit=max_edges,
        )


def _pdag_from_code(U: Pdag, pairs, code: int) -> Pdag:
    """The graph over ``U``'s vertices that trit ``j`` of ``code`` marks on
    pair ``j = (i, k)``: 0 undirected, 1 ``i -> k``, 2 ``k -> i``."""
    n = U.n
    cells = bytearray(n * n)
    for j, (i, k) in enumerate(pairs):
        trit = (code >> (2 * j)) & 3
        if trit != 2:
            cells[i * n + k] = 1
        if trit != 1:
            cells[k * n + i] = 1
    # read-only from the start, so the graph keeps it without a copy
    adj = np.frombuffer(bytes(cells), dtype=bool).reshape(n, n)
    return Pdag._from_matrix(U.vertices, adj)


def _code_of_masks(fwd: int, rev: int) -> int:
    """The trit code of pair ``j`` present as ``i -> k`` where bit ``j`` of
    ``fwd`` is set and as ``k -> i`` where bit ``j`` of ``rev`` is; every
    pair is present one way or both."""
    # read as base 4, a binary numeral's bit j lands on bit 2j
    return int(format(fwd & ~rev, "b"), 4) | int(format(rev & ~fwd, "b"), 4) << 1


def enumerate_acyclic_orientations(
    U: Pdag, *, max_edges: int = DEFAULT_ORIENTATION_CAP
) -> Iterator[Pdag]:
    """Yield every DAG orientation of ``U``, each exactly once, in a fixed order."""
    _require_undirected(U)
    n, eu, ev, skel, pairs = _encode(U)
    m = len(pairs)
    _check_edge_cap(m, max_edges, "orientation")
    full = (1 << m) - 1
    for lo in range(0, 1 << m, _CHUNK):
        hi = min(lo + _CHUNK, 1 << m)
        for mask in _kernels.acyclic_masks(n, eu, ev, lo, hi).tolist():
            yield _pdag_from_code(U, pairs, _code_of_masks(mask, full ^ mask))


def _orientation_classes(U: Pdag, max_edges: int) -> dict[bytes, tuple[int, int]]:
    """Group acyclic orientations by collider fingerprint.

    Returns ``fingerprint -> (fwd_seen, rev_seen)`` where the two masks
    record, per edge, which directions occur within the class.
    """
    n, eu, ev, skel, pairs = _encode(U)
    m = len(pairs)
    _check_edge_cap(m, max_edges, "orientation")
    e1, w1, e2, w2 = _collider_triples(n, pairs, skel)
    nwords = max(1, (len(e1) + 63) // 64)
    full = (1 << m) - 1
    classes: dict[bytes, tuple[int, int]] = {}
    for lo in range(0, 1 << m, _CHUNK):
        hi = min(lo + _CHUNK, 1 << m)
        masks = _kernels.acyclic_masks(n, eu, ev, lo, hi)
        if len(masks) == 0:
            continue
        words = _kernels.collider_words(masks, e1, w1, e2, w2, nwords)
        uniq, inverse = np.unique(words, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        for g in range(uniq.shape[0]):
            sel = masks[inverse == g]
            fwd = int(np.bitwise_or.reduce(sel))
            rev = int(np.bitwise_or.reduce(~sel)) & full
            key = uniq[g].tobytes()
            if key in classes:
                f0, r0 = classes[key]
                classes[key] = (f0 | fwd, r0 | rev)
            else:
                classes[key] = (fwd, rev)
    return classes


def enumerate_mecs(U: Pdag, *, max_edges: int = DEFAULT_ORIENTATION_CAP) -> list[Pdag]:
    """All class-representative graphs over skeleton ``U``, deterministically ordered."""
    _require_undirected(U)
    if U.edge_count() == 0:
        return [Pdag(vertices=U.vertices)]
    pairs = [(U._index[u], U._index[v]) for u, v in U.skeleton_edges()]
    classes = _orientation_classes(U, max_edges)
    mecs = [_pdag_from_code(U, pairs, _code_of_masks(fwd, rev)) for fwd, rev in classes.values()]
    return sorted(mecs, key=lambda M: M.adjacency.tobytes())


def brute_count_mecs(U: Pdag, *, max_edges: int = DEFAULT_ORIENTATION_CAP) -> int:
    """Number of distinct collider sets among all DAG orientations of ``U``."""
    _require_undirected(U)
    if U.edge_count() == 0:
        return 1
    return len(_orientation_classes(U, max_edges))


def brute_count_mecs_andersson(U: Pdag, *, max_edges: int = DEFAULT_MARKS_CAP) -> int:
    """Number of mark assignments over ``U`` passing :func:`is_mec`.

    Independent of the orientation route: enumerates all three-way edge
    marks directly and filters by the characterization.
    """
    _require_undirected(U)
    n, eu, ev, skel, pairs = _encode(U)
    _check_edge_cap(len(pairs), max_edges, "mark")
    return int(len(_kernels.mark_codes(n, eu, ev, skel, True)))


def cpdag_of_dag(D: Pdag, *, max_edges: int = DEFAULT_ORIENTATION_CAP) -> Pdag:
    """The representative graph of the class containing the DAG ``D``.

    Computed as the direction-preferring union over all DAG orientations of
    ``D``'s skeleton sharing ``D``'s collider set.
    """
    if not D.is_fully_directed():
        raise GraphInputError("expected a fully directed acyclic graph")
    if not is_chain_graph(D):
        raise GraphInputError("input digraph has a cycle")
    if D.edge_count() == 0:
        return Pdag(vertices=D.vertices)
    U = D.skeleton()
    n, eu, ev, skel, pairs = _encode(U)
    # D's collider fingerprint names its class among all orientations
    e1, w1, e2, w2 = _collider_triples(n, pairs, skel)
    nwords = max(1, (len(e1) + 63) // 64)
    dmask = 0
    for j, (i, k) in enumerate(pairs):
        if D.adjacency[i, k]:
            dmask |= 1 << j
    key = _kernels.collider_words(
        np.array([dmask], dtype=np.int64), e1, w1, e2, w2, nwords
    )[0].tobytes()
    fwd, rev = _orientation_classes(U, max_edges)[key]
    M = _pdag_from_code(U, pairs, _code_of_masks(fwd, rev))
    if not is_mec(M):
        raise InternalInvariantError("orientation-union graph fails the MEC test")
    return M


def dag_member(M: Pdag) -> Pdag:
    """Some DAG belonging to the class represented by ``M``.

    Each undirected component is oriented along its LBFS order; that keeps
    the graph acyclic and introduces no new collider.
    """
    adj = M.adjacency.copy()
    und = M.adjacency & M.adjacency.T
    for comp in M.undirected_components():
        if len(comp) < 2:
            continue
        sub = M.induced_subgraph(comp).skeleton()
        rank = {v: r for r, v in enumerate(sub.lbfs_order())}
        for u in comp:
            for v in comp:
                iu, iv = M._index[u], M._index[v]
                if und[iu, iv] and rank[u] > rank[v]:
                    adj[iu, iv] = False
    return Pdag._from_matrix(M.vertices, adj)


def project_mec(M: Pdag, S, *, max_edges: int = DEFAULT_ORIENTATION_CAP) -> Pdag:
    """The unique class over ``skeleton(M[S])`` sharing ``M[S]``'s colliders.

    Realized by restricting a DAG member of ``M`` to ``S`` and rebuilding
    the class representative from it.
    """
    if not is_mec(M):
        raise PreconditionError("projection is defined for MEC graphs only")
    D = dag_member(M).induced_subgraph(S)
    return cpdag_of_dag(D, max_edges=max_edges)

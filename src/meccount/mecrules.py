"""Predicates and brute-force oracles for Markov equivalence classes.

Two independent counting routes are kept deliberately separate so they can
cross-check each other and the treewidth engine:

* the orientation route enumerates every acyclic orientation of a skeleton
  and deduplicates by collider (v-structure) set;
* the filter route searches the three-way edge-mark assignments and keeps
  those passing the chain/chordal/protection characterization of a class
  representative graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _kernels
from .errors import CapacityError, GraphInputError, InternalInvariantError, PreconditionError
from .graph import Edge, Label, Pdag, _bits, _transpose, label_key

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
    rows = P._rows
    back = _transpose(rows)
    labels = P.vertices
    out: set[VStructure] = set()
    for b, (row, col) in enumerate(zip(rows, back)):
        tails = list(_bits(col & ~row))  # the a with a -> b
        for x, a in enumerate(tails):
            for c in tails[x + 1:]:
                if not (rows[a] | back[a]) >> c & 1:
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


def _protection_rows(P: Pdag):
    """``P`` as the protection kernel's bitmask rows ``far, und, out, inb``
    (see :func:`_kernels.protected`) and its directed edges as index pairs."""
    rows = P._rows
    back = _transpose(rows)
    far = _kernels.far_rows(P.n, [row | col for row, col in zip(rows, back)])
    und = [row & col for row, col in zip(rows, back)]
    out = [row & ~col for row, col in zip(rows, back)]
    inb = [col & ~row for row, col in zip(rows, back)]
    directed = [(i, j) for i, row in enumerate(out) for j in _bits(row)]
    return (far, und, out, inb), directed


def _protected_pairs(P: Pdag) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` of the strongly protected edges ``i -> j``.

    The four witnesses for ``u -> v``: some ``w -> u`` with ``w`` and ``v``
    non-adjacent; some ``w -> v`` with ``w != u`` non-adjacent to ``u``; a
    directed detour ``u -> w -> v``; or two non-adjacent ``w - u``, ``w' - u``
    neighbors with ``w -> v`` and ``w' -> v``.  Tested by the kernel that
    the class enumeration uses, on bitmask rows.
    """
    rows, directed = _protection_rows(P)
    return [(i, j) for i, j in directed if _kernels.protected(i, j, *rows)]


def is_strongly_protected(P: Pdag, e: Edge) -> bool:
    """Does the directed edge ``e`` sit in a protecting configuration?"""
    u, v = e
    if not P.has_directed(u, v):
        raise GraphInputError(f"({u!r}, {v!r}) is not a directed edge")
    rows, _ = _protection_rows(P)
    return _kernels.protected(P._index[u], P._index[v], *rows)


def _no_flag_pattern(P: Pdag) -> bool:
    # no induced x -> y - w (x, w non-adjacent)
    rows = P._rows
    back = _transpose(rows)
    for x, (row, col) in enumerate(zip(rows, back)):
        for y in _bits(row & ~col):
            if rows[y] & back[y] & ~(row | col | 1 << x):
                return False
    return True


def _is_chordal_chain(P: Pdag) -> bool:
    """A chain graph whose undirected components are chordal."""
    return is_chain_graph(P) and all(
        len(c) <= 2 or P.induced_subgraph(c).skeleton().is_chordal()
        for c in P.undirected_components()
    )


def is_partial_mec(P: Pdag) -> bool:
    """Chain graph, chordal undirected components, no induced ``x -> y - w``."""
    return _is_chordal_chain(P) and _no_flag_pattern(P)


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


def _skeleton_pairs(g: Pdag) -> list[tuple[int, int]]:
    """``g``'s skeleton edges as vertex index pairs, in the order trit codes
    use (see :func:`_pdag_on`)."""
    return [(g._index[u], g._index[v]) for u, v in g.skeleton_edges()]


def _encode(g: Pdag):
    """Kernel encoding of a skeleton: index lists and bitmask rows."""
    return _encode_on(g.n, _skeleton_pairs(g))


def _encode_on(n: int, pairs):
    """Kernel encoding of the skeleton on ``n`` vertices whose edges are the
    index ``pairs``, in trit-code order."""
    eu = [i for i, _ in pairs]
    ev = [j for _, j in pairs]
    skel = [0] * n
    for i, j in pairs:
        skel[i] |= 1 << j
        skel[j] |= 1 << i
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
    return e1, w1, e2, w2


def _check_edge_cap(m: int, cap: int, sweep: str) -> None:
    if m > cap:
        raise CapacityError(
            f"{m} edges exceeds the {sweep} enumeration cap of {cap}",
            limit=cap,
        )


def _code_rows(n: int, pairs, code: int) -> list[int]:
    """The graph that trit ``j`` of ``code`` marks on pair ``j = (i, k)``
    (0 undirected, 1 ``i -> k``, 2 ``k -> i``) as bit rows: bit ``k``
    of row ``i`` is set when the ordered pair ``(i, k)`` is present."""
    adj = [0] * n
    for j, (i, k) in enumerate(pairs):
        trit = code >> 2 * j & 3
        if trit != 2:
            adj[i] |= 1 << k
        if trit != 1:
            adj[k] |= 1 << i
    return adj


def _pdag_on(labels: tuple, pairs, code: int) -> Pdag:
    """The graph over ``labels`` that ``code`` marks on ``pairs`` (see
    :func:`_code_rows` and, for the order of ``labels``, ``Pdag._from_rows``)."""
    return Pdag._from_rows(labels, _code_rows(len(labels), pairs, code))


def _code_of_pdag(P: Pdag, labels, edges) -> int:
    """The trit code of ``P``'s marks on ``edges``, triples ``(j, i, k)``:
    trit ``j`` on the edge between ``labels[i]`` and ``labels[k]``."""
    code = 0
    for j, i, k in edges:
        u, v = labels[i], labels[k]
        if P.has_directed(u, v):
            code |= 1 << 2 * j
        elif P.has_directed(v, u):
            code |= 2 << 2 * j
    return code


def _code_of_masks(fwd: int, rev: int) -> int:
    """The trit code of pair ``j`` present as ``i -> k`` where bit ``j`` of
    ``fwd`` is set and as ``k -> i`` where bit ``j`` of ``rev`` is; every
    pair is present one way or both."""
    # read as base 4, a binary numeral's bit j lands on bit 2j
    return int(format(fwd & ~rev, "b"), 4) | int(format(rev & ~fwd, "b"), 4) << 1


def _acyclic_chunks(enc, cap: int):
    """The acyclic orientation masks of the encoded skeleton ``enc`` (see
    :func:`_encode`), once its edge count is within the orientation
    ``cap``, as ascending chunks of at most ``_CHUNK`` masks, each computed
    when it is reached."""
    n, eu, ev, _, pairs = enc
    m = len(pairs)
    _check_edge_cap(m, cap, "orientation")
    return (
        _kernels.acyclic_masks(n, eu, ev, lo, min(lo + _CHUNK, 1 << m))
        for lo in range(0, 1 << m, _CHUNK)
    )


def enumerate_acyclic_orientations(U: Pdag) -> Iterator[Pdag]:
    """Yield every DAG orientation of ``U``, each exactly once, in a fixed order."""
    _require_undirected(U)
    enc = _encode(U)
    pairs = enc[4]
    chunks = _acyclic_chunks(enc, DEFAULT_ORIENTATION_CAP)
    full = (1 << len(pairs)) - 1
    for masks in chunks:
        for mask in masks:
            yield _pdag_on(U.vertices, pairs, _code_of_masks(mask, full ^ mask))


def _orientation_classes(enc, max_edges: int, triples=None) -> dict[int, tuple[int, int]]:
    """Group the acyclic orientations of the encoded skeleton ``enc`` (see
    :func:`_encode`) by collider fingerprint; ``triples`` are its potential
    collider triples (see :func:`_collider_triples`), if already built.

    Returns ``fingerprint -> (fwd_seen, rev_seen)`` where the two masks
    record, per edge, which directions occur within the class.
    """
    n, _, _, skel, pairs = enc
    chunks = _acyclic_chunks(enc, max_edges)
    e1, w1, e2, w2 = triples or _collider_triples(n, pairs, skel)
    full = (1 << len(pairs)) - 1
    fwds: dict[int, int] = {}
    revs: dict[int, int] = {}
    for masks in chunks:
        for mask, key in zip(masks, _kernels.collider_words(masks, e1, w1, e2, w2)):
            fwds[key] = fwds.get(key, 0) | mask
            revs[key] = revs.get(key, 0) | (full ^ mask)
    return {key: (fwd, revs[key]) for key, fwd in fwds.items()}


def enumerate_mecs(U: Pdag, *, max_edges: int = DEFAULT_ORIENTATION_CAP) -> list[Pdag]:
    """All class-representative graphs over skeleton ``U``, deterministically ordered."""
    _require_undirected(U)
    enc = _encode(U)
    mecs = [_pdag_on(U.vertices, enc[4], code) for code in _mec_codes(enc, max_edges)]
    return sorted(mecs, key=_cells)


def _cells(P: Pdag) -> str:
    """``P``'s ordered-pair cells row by row as a string of 0s and 1s, so
    graphs of one size sort as their row-major 0/1 matrices of pairs do."""
    n = P.n
    flat = 0  # cell (u, v) at bit u * n + v
    for row in reversed(P._rows):
        flat = flat << n | row
    return format(flat, f"0{n * n}b")[::-1]


def mec_codes(U: Pdag) -> list[int]:
    """The classes over skeleton ``U`` as trit codes over its skeleton edges
    (see :func:`_pdag_on`), one per class."""
    _require_undirected(U)
    return _mec_codes(_encode(U), DEFAULT_ORIENTATION_CAP)


def _mec_codes(enc, max_edges: int) -> list[int]:
    """:func:`mec_codes` of the encoded skeleton ``enc`` (see :func:`_encode`)."""
    if not enc[4]:
        return [0]
    classes = _orientation_classes(enc, max_edges)
    return [_code_of_masks(fwd, rev) for fwd, rev in classes.values()]


def brute_count_mecs(U: Pdag) -> int:
    """Number of distinct collider sets among all DAG orientations of ``U``."""
    _require_undirected(U)
    if U.edge_count() == 0:
        return 1
    return len(_orientation_classes(_encode(U), DEFAULT_ORIENTATION_CAP))


def brute_count_mecs_andersson(U: Pdag) -> int:
    """Number of mark assignments over ``U`` passing :func:`is_mec`.

    Independent of the orientation route: a depth-first search over
    three-way edge marks that keeps exactly the assignments meeting the
    characterization, cutting a branch as soon as its marks violate it.
    Only the number of assignments is kept, so the search marks the edges
    in :func:`_mcs_edge_order`, which decides protection nearer the root
    than the trit order does.
    """
    _require_undirected(U)
    n, _, _, skel, pairs = _encode(U)
    _check_edge_cap(len(pairs), DEFAULT_MARKS_CAP, "mark")
    _, eu, ev, _, _ = _encode_on(n, _mcs_edge_order(n, skel, pairs))
    return len(_kernels.mark_codes(n, eu, ev, skel, True))


def _mcs_edge_order(n: int, skel, pairs) -> list[tuple[int, int]]:
    """``pairs`` sorted by the later, then the earlier position of their
    ends in a maximum-cardinality search (Tarjan & Yannakakis 1984) of the
    graph on bitmask rows ``skel``.  The search visits next the vertex with
    the most visited neighbours, ties to the larger degree, then the lower
    index, so it starts at a vertex of largest degree.  Each vertex's edges
    back to the vertices visited before it are then marked together, so the
    edges at the two ends of an arc tend to be marked close together, and
    its protection, final once they all are, is decided nearer the root."""
    deg = [bin(row).count("1") for row in skel]
    weight = [0] * n
    pos = [0] * n
    left = set(range(n))
    for step in range(n):
        v = max(left, key=lambda i: (weight[i], deg[i], -i))
        left.remove(v)
        pos[v] = step
        for w in _bits(skel[v]):
            weight[w] += 1
    return sorted(pairs, key=lambda p: (max(pos[p[0]], pos[p[1]]), min(pos[p[0]], pos[p[1]])))


def cpdag_of_dag(D: Pdag) -> Pdag:
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
    enc = _encode(U)
    n, _, _, skel, pairs = enc
    # D's collider fingerprint names its class among all orientations
    dmask = 0
    for j, (i, k) in enumerate(pairs):
        if D._rows[i] >> k & 1:
            dmask |= 1 << j
    triples = _collider_triples(n, pairs, skel)
    (key,) = _kernels.collider_words([dmask], *triples)
    fwd, rev = _orientation_classes(enc, DEFAULT_ORIENTATION_CAP, triples)[key]
    M = _pdag_on(U.vertices, pairs, _code_of_masks(fwd, rev))
    if not is_mec(M):
        raise InternalInvariantError("orientation-union graph fails the MEC test")
    return M


def dag_member(M: Pdag) -> Pdag:
    """Some DAG belonging to the class represented by ``M``.

    Each undirected component is oriented along its LBFS order; that keeps
    the graph acyclic and introduces no new collider.
    """
    rows = list(M._rows)
    und = [row & col for row, col in zip(rows, _transpose(rows))]
    labels = M.vertices
    for comp in M.undirected_components():
        if len(comp) < 2:
            continue
        sub = M.induced_subgraph(comp).skeleton()
        rank = {v: r for r, v in enumerate(sub.lbfs_order())}
        for u in comp:
            iu = M._index[u]
            for iv in _bits(und[iu]):
                if rank[u] > rank[labels[iv]]:
                    rows[iu] &= ~(1 << iv)
    return Pdag._from_rows(labels, rows)


def project_mec(M: Pdag, S) -> Pdag:
    """The unique class over ``skeleton(M[S])`` sharing ``M[S]``'s colliders.

    Realized by restricting a DAG member of ``M`` to ``S`` and rebuilding
    the class representative from it.
    """
    if not is_mec(M):
        raise PreconditionError("projection is defined for MEC graphs only")
    D = dag_member(M).induced_subgraph(S)
    return cpdag_of_dag(D)

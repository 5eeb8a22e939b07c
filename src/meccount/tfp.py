"""Triangle-free-path reachability.

A triangle-free path is a path (distinct vertices, consecutive ordered
pairs present) in which no two vertices at distance two along the path are
adjacent in the skeleton.  Reachability between ordered edges, and from an
ordered edge to a vertex, is the long-range information the boundary
machinery carries around.

For chain graphs with chordal undirected components the closure computation
(:func:`tfp_table`) is exact; the per-query oracle (:func:`tfp_exists`)
works on arbitrary graphs and is what the tables are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, PreconditionError
from .graph import Edge, Label, Pdag, _bits
from .mecrules import _is_chordal_chain


@dataclass(frozen=True)
class TfpTable:
    """Sparse 0/1 relations over ordered edges and vertices.

    Membership of ``(e, f)`` in ``p1`` means a triangle-free path runs from
    ``e`` to ``f``; membership of ``(e, w)`` in ``p2`` means one runs from
    ``e`` to the vertex ``w``.  Degenerate queries (``e == f`` or ``w`` the
    head of ``e``) are excluded by construction.
    """

    p1: frozenset[tuple[Edge, Edge]]
    p2: frozenset[tuple[Edge, Label]]

    def __post_init__(self):
        for e, f in self.p1:
            if e == f:
                raise GraphInputError(f"p1 entry with identical edges {e!r}")
        for e, w in self.p2:
            if e[1] == w:
                raise GraphInputError(f"p2 entry {e!r} -> {w!r} targets the edge head")

    def restrict(self, edges, vertices) -> "TfpTable":
        """Drop entries whose edges or target vertex fall outside the sets."""
        edges = set(edges)
        vertices = set(vertices)
        return TfpTable(
            p1=frozenset((e, f) for e, f in self.p1 if e in edges and f in edges),
            p2=frozenset((e, w) for e, w in self.p2 if e in edges and w in vertices),
        )


EMPTY_TABLE = TfpTable(frozenset(), frozenset())


# -- closure on integer rows ----------------------------------------------
#
# A graph on vertices 0..n-1 is its bit rows: bit v of ``adj[u]`` is
# set when the ordered pair (u, v) is present.  Ordered pairs occupy slots
# ``s = u * n + v``; ``p1[s]`` holds one bit per slot and ``p2[s]`` one bit
# per vertex, for every slot s (zero where the pair is absent).


def _seed_matrices(n: int, adj: list[int], skel: list[int]):
    """Length-three path seeds (u, v, w) with u, w non-adjacent: the present
    slots in ascending order, and ``p1``, ``p2`` over all ``n * n`` slots."""
    slots = []
    p1 = [0] * (n * n)
    p2 = [0] * (n * n)
    for u in range(n):
        row = adj[u]
        block = skel[u] | 1 << u
        while row:
            low = row & -row
            row ^= low
            v = low.bit_length() - 1
            s = u * n + v
            slots.append(s)
            # continuations w of (u, v); the pairs (v, w) sit at v * n + w
            p2[s] = hits = adj[v] & ~block
            p1[s] = hits << n * v
    return slots, p1, p2


def _close_p1(p1: list[int], slots) -> bool:
    """Transitive closure in place (Warshall over the slots), diagonal kept
    clear.  The input has no diagonal bit (neither seeds nor imported
    entries do), so it returns True exactly when two distinct edges reach
    each other: when a diagonal bit had to be cleared."""
    live = [s for s in slots if p1[s]]  # a row empty now stays empty
    for k in live:
        rk = p1[k]
        bit = 1 << k
        for i in live:
            if p1[i] & bit:
                p1[i] |= rk
    cyclic = False
    for s in live:
        if p1[s] >> s & 1:
            p1[s] ^= 1 << s
            cyclic = True
    return cyclic


def _close_p2(p1_closed: list[int], p2: list[int], slots, n: int) -> list[int]:
    """One composition step suffices once p1 is transitively closed; the
    head of each edge is cleared from its row."""
    out = p2[:]
    for s in slots:
        row = p1_closed[s]
        acc = p2[s]
        while row:
            low = row & -row
            row ^= low
            acc |= p2[low.bit_length() - 1]
        out[s] = acc & ~(1 << s % n)
    return out


def _closed_rows(n: int, adj: list[int], skel: list[int]):
    """Seeds closed: ``(slots, p1, p2, cyclic)``, see :func:`_close_p1`."""
    slots, p1, p2 = _seed_matrices(n, adj, skel)
    cyclic = _close_p1(p1, slots)
    return slots, p1, _close_p2(p1, p2, slots, n), cyclic


def _matrices_to_table(labels, slots, p1, p2) -> TfpTable:
    """The table whose rows ``p1[t]``, ``p2[t]`` belong to ``slots[t]``."""
    n = len(labels)

    def edge(s):
        return labels[s // n], labels[s % n]

    pairs = frozenset((edge(s), edge(f)) for s, row in zip(slots, p1) if row for f in _bits(row))
    hits = frozenset((edge(s), labels[w]) for s, row in zip(slots, p2) if row for w in _bits(row))
    return TfpTable(p1=pairs, p2=hits)


def tfp_table(P: Pdag) -> TfpTable:
    """All triangle-free-path reachability facts of ``P``.

    Seeds every length-three triangle-free triple, then closes the two
    relations transitively.  Requires the closure to be exact: ``P`` must be
    a chain graph whose undirected components are chordal.
    """
    if not _is_chordal_chain(P):
        raise PreconditionError(
            "reachability closure requires a chain graph with chordal "
            "undirected components"
        )
    slots, p1, p2, _ = _closed_rows(P.n, P._rows, P._skeleton_rows())
    return _matrices_to_table(
        P.vertices, slots, [p1[s] for s in slots], [p2[s] for s in slots]
    )


def tfp_exists(P: Pdag, from_edge: Edge, to) -> bool:
    """Per-query oracle: does a triangle-free path run from ``from_edge`` to
    ``to`` (an ordered edge, or a vertex)?

    Degenerate hits count: an edge reaches itself and its own head vertex
    via the two-vertex path.  On chain graphs with chordal components the
    query runs as a reachability search over (previous, current) states; on
    anything else it falls back to exhaustive simple-path search.
    """
    u, v = from_edge
    if not P.has_ordered_edge(u, v):
        raise GraphInputError(f"({u!r}, {v!r}) is not in the ordered-edge view")
    to_edge: Edge | None = None
    to_vertex: Label | None = None
    if isinstance(to, tuple):
        x, y = to
        if not P.has_ordered_edge(x, y):
            raise GraphInputError(f"({x!r}, {y!r}) is not in the ordered-edge view")
        to_edge = (x, y)
    else:
        if not P.has_vertex(to):
            raise GraphInputError(f"unknown vertex {to!r}")
        to_vertex = to
    if to_edge == from_edge or (to_vertex is not None and to_vertex == v):
        return True
    if _is_chordal_chain(P):
        return _state_search(P, from_edge, to_edge, to_vertex)
    return _simple_path_search(P, from_edge, to_edge, to_vertex)


def _state_search(P: Pdag, from_edge, to_edge, to_vertex) -> bool:
    adj = P._rows
    sk = P._skeleton_rows()
    idx = P._index
    start = (idx[from_edge[0]], idx[from_edge[1]])
    goal = (idx[to_edge[0]], idx[to_edge[1]]) if to_edge else None
    goal_v = idx[to_vertex] if to_vertex is not None else None
    seen = {start}
    stack = [start]
    while stack:
        a, b = stack.pop()
        for c in _bits(adj[b]):
            if c == a or sk[a] >> c & 1:
                continue
            state = (b, c)
            if state in seen:
                continue
            if goal is not None and state == goal:
                return True
            if goal_v is not None and c == goal_v:
                return True
            seen.add(state)
            stack.append(state)
    return False


def _simple_path_search(P: Pdag, from_edge, to_edge, to_vertex) -> bool:
    adj = P._rows
    sk = P._skeleton_rows()
    idx = P._index
    path = [idx[from_edge[0]], idx[from_edge[1]]]
    goal = (idx[to_edge[0]], idx[to_edge[1]]) if to_edge else None
    goal_v = idx[to_vertex] if to_vertex is not None else None
    used = set(path)
    # depth-first over the simple triangle-free paths from the start edge,
    # with an explicit stack: one iterator over the continuations of each
    # path vertex past the first, so no input can overflow the recursion
    stack = [_bits(adj[path[-1]])]
    while stack:
        a, b = path[-2], path[-1]
        for c in stack[-1]:
            if c in used or sk[a] >> c & 1:
                continue
            if goal is not None and (b, c) == goal:
                return True
            if goal_v is not None and c == goal_v:
                return True
            path.append(c)
            used.add(c)
            stack.append(_bits(adj[c]))
            break
        else:
            stack.pop()
            used.remove(path.pop())
    return False


def is_canonical_source(P: Pdag, s: Label) -> bool:
    """No directed edge of ``P`` reaches ``s`` by a triangle-free path.

    An edge directed straight into ``s`` disqualifies it via the degenerate
    two-vertex path.
    """
    if not P.has_vertex(s):
        raise GraphInputError(f"unknown vertex {s!r}")
    for u, v in P.directed_edges():
        if v == s:
            return False
        if tfp_exists(P, (u, v), s):
            return False
    return True

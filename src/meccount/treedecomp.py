"""Tree decompositions by min-fill elimination, validation, and cutting.

The counting fold only needs a valid decomposition; its answer does not
depend on the width, only its runtime does.  A decomposition is rooted
once: every bag's children are its tree neighbors away from the root, in
increasing index order, and :attr:`TreeDecomposition.preorder` lists the
bags root first with each subtree contiguous.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphInputError, InternalInvariantError, PreconditionError
from .graph import Pdag, label_key

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    bags: dict[int, frozenset]
    tree_edges: frozenset[tuple[int, int]]
    root: int

    def __post_init__(self):
        if self.root not in self.bags:
            raise GraphInputError(f"root {self.root} is not a bag index")
        for i, j in self.tree_edges:
            if i not in self.bags or j not in self.bags:
                raise GraphInputError(f"tree edge ({i}, {j}) references a missing bag")

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.bags))

    def vertices(self) -> frozenset:
        out: set = set()
        for b in self.bags.values():
            out |= b
        return frozenset(out)

    @cached_property
    def _rooted(self) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
        # depth-first from the root, smallest child first; bags the root
        # cannot reach are left out
        adj: dict[int, set] = {i: set() for i in self.bags}
        for a, b in self.tree_edges:
            adj[a].add(b)
            adj[b].add(a)
        order = []
        kids = {}
        seen = {self.root}
        stack = [self.root]
        while stack:
            i = stack.pop()
            order.append(i)
            kids[i] = tuple(sorted(j for j in adj[i] if j not in seen))
            seen.update(kids[i])
            stack.extend(reversed(kids[i]))
        return tuple(order), kids

    @property
    def preorder(self) -> tuple[int, ...]:
        """Bags reachable from the root, parents before children."""
        return self._rooted[0]

    def children(self, i: int) -> tuple[int, ...]:
        """Tree neighbors away from the root, in increasing index order."""
        return self._rooted[1][i]


def tree_decomposition(U: Pdag) -> TreeDecomposition:
    """Min-fill decomposition from an elimination ordering.

    Each step eliminates the vertex whose elimination adds the fewest edges,
    ties broken by the vertex's place in :func:`_bfs_rank`'s walk rather than
    by its label, so that relabelling the input seldom moves the bags.
    Bags contained in a tree-neighbor bag are contracted away.  No width
    guarantee.  The graph must be connected: the last bag of each
    component hangs off no other, and more than one such bag raises
    :class:`GraphInputError`.

    Scores sit in a heap with lazy deletion (Bodlaender & Koster,
    "Treewidth computations I. Upper bounds", Inf. Comput. 2010).
    Eliminating ``v`` changes only the fill of ``N(v)`` and their
    neighbours, so only those are re-scored.  On a graph of bounded degree
    the whole decomposition is near-linear.
    """
    if not U.is_fully_undirected():
        raise GraphInputError("tree decomposition expects an undirected graph")
    if U.n == 0:
        return TreeDecomposition(bags={0: frozenset()}, tree_edges=frozenset(), root=0)

    adj = U.neighbor_sets()
    rank = _bfs_rank(adj)
    score = {v: _fill_count(adj, v) for v in adj}
    heap = [(s, rank[v], v) for v, s in score.items()]
    heapq.heapify(heap)

    elim_pos: dict = {}
    raw_bags: list[frozenset] = []
    while heap:
        s, _, v = heapq.heappop(heap)
        if v in elim_pos or score[v] != s:
            continue
        nbrs = adj.pop(v)
        elim_pos[v] = len(raw_bags)
        raw_bags.append(frozenset({v} | nbrs))
        for a in nbrs:
            adj[a] |= nbrs
            adj[a].discard(a)
            adj[a].discard(v)
        for x in nbrs.union(*(adj[a] for a in nbrs)):
            s = _fill_count(adj, x)
            if s != score[x]:
                score[x] = s
                heapq.heappush(heap, (s, rank[x], x))

    # bag i hangs off the bag of its neighbour eliminated next; elimination
    # keeps each component connected, so one bag per component has no
    # neighbour left
    parent = [
        min(elim_pos[x] for x in bag if elim_pos[x] > i) if len(bag) > 1 else None
        for i, bag in enumerate(raw_bags)
    ]
    if parent.count(None) > 1:
        raise GraphInputError("tree decomposition expects a connected graph")
    bags, edges = _contract_redundant(raw_bags, parent)
    remap = {old: new for new, old in enumerate(sorted(bags))}
    bags = {remap[i]: b for i, b in bags.items()}
    edges = {(remap[a], remap[b]) for a, b in edges}
    td = TreeDecomposition(bags=bags, tree_edges=frozenset(edges), root=0)
    if not validate_td(U, td):
        raise InternalInvariantError("constructed decomposition failed validation")
    return td


def _bfs_rank(adj: dict) -> dict:
    """Each vertex's position in a breadth-first walk of the graph with
    neighbour sets ``adj``, taking unvisited neighbours in ``(degree,
    label)`` order.  The walk numbers one component after another, each
    from its least unvisited ``(degree, label)`` vertex.

    The label only breaks the ties that degree and walk order leave, so
    relabelling the input changes the numbering only where such a tie falls
    between vertices that no automorphism swaps.  O(n + m) on a connected
    graph of bounded degree, without recursion.
    """
    key = {v: (len(nbrs), label_key(v)) for v, nbrs in adj.items()}
    rank: dict = {}
    while len(rank) < len(key):
        start = min((v for v in key if v not in rank), key=key.__getitem__)
        rank[start] = len(rank)
        queue = [start]
        for v in queue:  # the list grows as the walk reaches new vertices
            fresh = sorted([u for u in adj[v] if u not in rank], key=key.__getitem__)
            for u in fresh:
                rank[u] = len(rank)
            queue += fresh
    return rank


def _fill_count(adj: dict, v) -> int:
    """Edges that eliminating ``v`` would add between its neighbours."""
    nbrs = adj[v]
    return sum(len(nbrs - adj[u]) - 1 for u in nbrs) // 2


def _contract_redundant(raw_bags: list[frozenset], parent: list):
    """Merge every bag contained in a tree-neighbour into that neighbour, in
    one pass in elimination order; ``parent[i]`` is the bag that bag ``i``
    hangs off.

    A bag's own vertex lies in no later bag, so only a parent can be
    contained in its child; the child absorbs it, keeping its own index and
    contents, and takes the parent's place.  Each bag in turn absorbs its
    ancestors while the next is contained in it.  A bag that stops never
    gains a containment later: its parent can only be replaced by a
    sibling's bag, which holds the sibling's own vertex.  So the result is
    that of merging the least contained tree edge first.  Returns the kept
    bags by index and the tree edges as ascending index pairs.
    """
    absorbed: dict[int, int] = {}  # bag index -> the bag that absorbed it
    top: dict[int, int] = {}  # kept bag -> the highest bag it absorbed
    for c, bag in enumerate(raw_bags):
        if c in absorbed:
            continue
        t = c
        # an absorbed parent now holds a sibling's bag: no containment
        while (p := parent[t]) is not None and p not in absorbed and raw_bags[p] <= bag:
            absorbed[p] = c
            t = p
        top[c] = t
    bags = {c: raw_bags[c] for c in top}
    edges = set()
    for c, t in top.items():
        if parent[t] is not None:
            p = absorbed.get(parent[t], parent[t])
            edges.add((min(c, p), max(c, p)))
    return bags, edges


def validate_td(U: Pdag, td: TreeDecomposition) -> bool:
    """Check the decomposition laws: the bags form a tree, they cover every
    vertex and every skeleton edge, and the bags holding any one vertex
    span a subtree (running intersection).

    These laws already make each tree edge's bag intersection separate the
    vertices on its two sides.  An edge ``u - v`` with ``u`` only on one
    side and ``v`` only on the other lies in some bag; that bag is on one
    side and holds both ends, so running intersection puts the other end in
    both bags of the tree edge.  No separator is checked per tree edge, and
    the check is linear: O(B·w + m) for B bags of width w and m edges.
    Returns False (with a debug log of the reason) on failure.
    """
    if len(td.tree_edges) != len(td.bags) - 1 or len(td.preorder) != len(td.bags):
        log.debug("bags do not form a tree")
        return False
    holding: dict = {}
    for i, bag in td.bags.items():
        for v in bag:
            holding.setdefault(v, set()).add(i)
    if holding.keys() != U.vertex_set:
        log.debug("vertex coverage fails: %r", U.vertex_set ^ holding.keys())
        return False
    for u, v in U.skeleton_edges():
        if not holding[u] & holding[v]:
            log.debug("edge (%r, %r) not inside any bag", u, v)
            return False
    # the tree edges inside a vertex's bags form a forest, which is one
    # subtree exactly when it has one edge fewer than it has bags
    inside = dict.fromkeys(holding, 0)
    for a, b in td.tree_edges:
        for v in td.bags[a] & td.bags[b]:
            inside[v] += 1
    for v, held in holding.items():
        if inside[v] != len(held) - 1:
            log.debug("bags holding %r are disconnected in the tree", v)
            return False
    return True


def cut_last_child(
    td: TreeDecomposition, r1: int
) -> tuple[TreeDecomposition, TreeDecomposition, int]:
    """Remove the tree edge to the root's last child.

    Returns the two induced decompositions, rooted at ``r1`` and at the cut
    child ``r2``.  "Last" follows increasing bag index, so cutting the last
    child again and again undoes, in reverse, the splits the counting fold
    combines.
    """
    if r1 != td.root:
        raise PreconditionError(f"{r1} is not the root of this decomposition")
    kids = td.children(r1)
    if not kids:
        raise PreconditionError("root has no child to cut")
    r2 = kids[-1]
    side2 = set()
    stack = [r2]
    while stack:
        i = stack.pop()
        side2.add(i)
        stack.extend(td.children(i))
    return _restrict(td, td.bags.keys() - side2, r1), _restrict(td, side2, r2), r2


def _restrict(td: TreeDecomposition, side: set, root: int) -> TreeDecomposition:
    return TreeDecomposition(
        bags={i: td.bags[i] for i in sorted(side)},
        tree_edges=frozenset(e for e in td.tree_edges if e[0] in side and e[1] in side),
        root=root,
    )

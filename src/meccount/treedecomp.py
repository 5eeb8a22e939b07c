"""Tree decompositions by elimination heuristics, validation, and cutting.

The counting fold only needs a valid decomposition; its answer does not
depend on the width, only its runtime does.  A decomposition is rooted
once: every bag's children are its tree neighbors away from the root, in
increasing index order, and :attr:`TreeDecomposition.preorder` lists the
bags root first with each subtree contiguous.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

from .errors import GraphInputError, InternalInvariantError, PreconditionError
from .graph import Pdag, label_key

log = logging.getLogger(__name__)

HEURISTICS = ("min_fill", "min_degree")


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
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, set] = {i: set() for i in self.bags}
        for a, b in self.tree_edges:
            adj[a].add(b)
            adj[b].add(a)
        return {i: tuple(sorted(js)) for i, js in adj.items()}

    @cached_property
    def _rooted(self) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
        # depth-first from the root, smallest child first; bags the root
        # cannot reach are left out
        order = []
        kids = {}
        seen = {self.root}
        stack = [self.root]
        while stack:
            i = stack.pop()
            order.append(i)
            kids[i] = tuple(j for j in self._adjacency[i] if j not in seen)
            seen.update(kids[i])
            stack.extend(reversed(kids[i]))
        return tuple(order), kids

    @property
    def preorder(self) -> tuple[int, ...]:
        """Bags reachable from the root, parents before children."""
        return self._rooted[0]

    def tree_neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]

    def children(self, i: int) -> tuple[int, ...]:
        """Tree neighbors away from the root, in increasing index order."""
        return self._rooted[1][i]


def tree_decomposition(
    U: Pdag, heuristic: str = "min_fill"
) -> TreeDecomposition:
    """Heuristic decomposition from an elimination ordering.

    ``min_fill`` picks the vertex whose elimination adds the fewest edges;
    ``min_degree`` picks the smallest current neighborhood.  Ties break on
    the label.  Bags contained in a tree-neighbor bag are contracted away.
    No width guarantee.
    """
    if heuristic not in HEURISTICS:
        raise GraphInputError(f"unknown heuristic {heuristic!r}; expected {HEURISTICS}")
    if not U.is_fully_undirected():
        raise GraphInputError("tree decomposition expects an undirected graph")
    if not U.is_connected():
        raise GraphInputError("tree decomposition expects a connected graph")
    if U.n == 0:
        return TreeDecomposition(bags={0: frozenset()}, tree_edges=frozenset(), root=0)

    adj: dict = {v: set() for v in U.vertices}
    for a, b in U.skeleton_edges():
        adj[a].add(b)
        adj[b].add(a)

    def fill_count(v) -> int:
        nbrs = list(adj[v])
        cnt = 0
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if nbrs[j] not in adj[nbrs[i]]:
                    cnt += 1
        return cnt

    elim_pos: dict = {}
    raw_bags: list[frozenset] = []
    elim_vertex: list = []
    k = 0
    while adj:
        if heuristic == "min_fill":
            v = min(adj, key=lambda x: (fill_count(x), label_key(x)))
        else:
            v = min(adj, key=lambda x: (len(adj[x]), label_key(x)))
        nbrs = adj[v]
        raw_bags.append(frozenset({v} | nbrs))
        elim_vertex.append(v)
        elim_pos[v] = k
        k += 1
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        for a in nbrs:
            adj[a].discard(v)
        del adj[v]

    edges: set[tuple[int, int]] = set()
    for i, bag in enumerate(raw_bags):
        rest = bag - {elim_vertex[i]}
        if not rest:
            # last elimination in this component; attach to any later bag
            # already holding the vertex, or to the previous bag
            if i + 1 < len(raw_bags):
                edges.add((i, i + 1))
            continue
        parent_vertex = min(rest, key=lambda x: elim_pos[x])
        j = elim_pos[parent_vertex]
        edges.add((min(i, j), max(i, j)))

    bags = {i: b for i, b in enumerate(raw_bags)}
    bags, edges = _contract_redundant(bags, edges)
    remap = {old: new for new, old in enumerate(sorted(bags))}
    bags = {remap[i]: b for i, b in bags.items()}
    edges = {(min(remap[a], remap[b]), max(remap[a], remap[b])) for a, b in edges}
    td = TreeDecomposition(bags=bags, tree_edges=frozenset(edges), root=0)
    if not validate_td(U, td):
        raise InternalInvariantError("constructed decomposition failed validation")
    return td


def _contract_redundant(bags: dict[int, frozenset], edges: set[tuple[int, int]]):
    """Merge every bag contained in a tree-neighbor into that neighbor."""
    changed = True
    while changed:
        changed = False
        for a, b in sorted(edges):
            small, big = None, None
            if bags[a] <= bags[b]:
                small, big = a, b
            elif bags[b] <= bags[a]:
                small, big = b, a
            if small is None:
                continue
            edges.discard((min(small, big), max(small, big)))
            for x, y in list(edges):
                if x == small or y == small:
                    other = y if x == small else x
                    edges.discard((x, y))
                    if other != big:
                        edges.add((min(other, big), max(other, big)))
            del bags[small]
            changed = True
            break
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

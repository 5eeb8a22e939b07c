"""Counting classes over a skeleton: leaf enumeration plus a bottom-up fold
over a tree decomposition.

The state passed up the fold is a sparse table mapping boundary shadows to
the number of classes of the subgraph folded so far realizing each shadow;
absent keys mean zero.  A bag's table starts from direct enumeration of its
own induced graph; each child subtree's table is then combined into it over
every boundary partial MEC accepted by the extension test.  Only shadows
with nonzero counts are iterated, which is equivalent to sweeping the whole
shadow space because zero-count factors contribute nothing to any product.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import GraphInputError, PreconditionError
from .extension import DecompositionContext, extensions
from .graph import Pdag, UndirectedGraph
from .mecrules import DEFAULT_ORIENTATION_CAP, brute_count_mecs, enumerate_mecs
from .shadow import DEFAULT_MARK_ENUM_CAP, Shadow, enumerate_partial_mecs, project_shadow
from .tfp import tfp_table
from .treedecomp import TreeDecomposition, tree_decomposition, validate_td

AUTO_BRUTE_EDGE_THRESHOLD = 10


class ShadowTable:
    """Sparse map from boundary shadows to positive class counts.

    ``domain`` is the boundary graph all keys must live on; a shadow that
    never got an entry counts zero.
    """

    def __init__(self, domain: Pdag):
        self.domain = domain
        self._entries: dict[Shadow, int] = {}

    def add(self, s: Shadow, k: int) -> None:
        if k < 0:
            raise ValueError("counts are nonnegative")
        if k == 0:
            return
        dom = self.domain.adjacency
        sk = s.o.adjacency | s.o.adjacency.T
        if s.o.vertices != self.domain.vertices or not np.array_equal(sk, dom | dom.T):
            raise GraphInputError("shadow lives on a different boundary graph")
        self._entries[s] = self._entries.get(s, 0) + k

    def count(self, s: Shadow) -> int:
        return self._entries.get(s, 0)

    def items(self):
        return self._entries.items()

    def total(self) -> int:
        return sum(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Shadow]:
        return iter(self._entries)


def brute_force_count(
    G: Pdag, *, max_edges: int = DEFAULT_ORIENTATION_CAP
) -> ShadowTable:
    """Leaf table: one entry per class of ``G``, keyed by its full-graph
    shadow (the class graph with its own path table), each counting one."""
    F = ShadowTable(domain=G.skeleton())
    for M in enumerate_mecs(G, max_edges=max_edges):
        F.add(Shadow._trusted(M, tfp_table(M)), 1)
    return F


def count_rec(
    G: UndirectedGraph,
    td: TreeDecomposition,
    r1: int,
    *,
    orientation_cap: int = DEFAULT_ORIENTATION_CAP,
    mark_cap: int = DEFAULT_MARK_ENUM_CAP,
) -> ShadowTable:
    """Class counts of ``G`` grouped by shadow on ``G[R1 ∪ N(R1)]``."""
    if r1 != td.root:
        raise PreconditionError(f"{r1} is not the root of the decomposition")
    if not validate_td(G, td):
        raise PreconditionError("decomposition is not valid for this graph")
    return _count_rec(G, td, orientation_cap, mark_cap)


def _count_rec(G, td, orientation_cap, mark_cap) -> ShadowTable:
    """Fold a valid decomposition of ``G`` into the root's table, children
    before parents, without recursion.

    A bag ``r`` starts from the leaf table of ``G[bag]`` and absorbs its
    children ``c`` in increasing index order: the same splits that cutting
    the root's last child again and again would make.  A cut only looks at
    the two bags' closed neighborhood.  Which of those vertices the part
    folded into ``r`` holds, and which ``c``'s subtree holds, follows from
    the preorder position of the first bag holding each vertex: by running
    intersection, a vertex outside a subtree's top bag lies in that subtree
    exactly when its first bag does.
    """
    order = td.preorder
    pos = {i: k for k, i in enumerate(order)}
    first: dict = {}
    for i in order:
        for v in td.bags[i]:
            first.setdefault(v, pos[i])
    nbrs: dict = {v: set() for v in G.vertices}
    for u, v in G.skeleton_edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    end: dict[int, int] = {}  # one past the last preorder position of a subtree
    tables: dict[int, ShadowTable] = {}
    for r in reversed(order):
        s1 = td.bags[r]
        F = brute_force_count(G.induced_subgraph(s1), max_edges=orientation_cap)
        kids = td.children(r)
        for c in kids:
            s2 = td.bags[c]
            near = (s1 | s2).union(*(nbrs[v] for v in s1 | s2))
            h1 = {v for v in near if v in s1 or pos[r] < first[v] < pos[c]}
            h2 = {v for v in near if v in s2 or pos[c] <= first[v] < end[c]}
            ctx = DecompositionContext(h=G.induced_subgraph(h1 | h2), h1=h1, h2=h2, s1=s1, s2=s2)
            F = _combine_tables(ctx, F, tables.pop(c), mark_cap)
        end[r] = end[kids[-1]] if kids else pos[r] + 1
        tables[r] = F
    return tables[td.root]


def _combine_tables(ctx, F1: ShadowTable, F2: ShadowTable, mark_cap) -> ShadowTable:
    x_prime = frozenset(ctx.h.closed_neighborhood(ctx.s1))
    F = ShadowTable(domain=ctx.h.induced_subgraph(x_prime))
    if not F1 or not F2:
        return F
    sh1s, counts1 = zip(*F1.items())
    sh2s, counts2 = zip(*F2.items())
    candidates = enumerate_partial_mecs(ctx.a_graph, max_edges=mark_cap)
    for O, i, j, table in extensions(ctx, candidates, sh1s, sh2s):
        F.add(project_shadow(Shadow._trusted(O, table), x_prime), counts1[i] * counts2[j])
    return F


def count_mecs(
    G: Pdag,
    method: str = "auto",
    *,
    heuristic: str = "min_fill",
    orientation_cap: int = DEFAULT_ORIENTATION_CAP,
    mark_cap: int = DEFAULT_MARK_ENUM_CAP,
) -> int:
    """Number of classes whose skeleton is ``G``.

    ``brute`` enumerates orientations; ``fpt`` folds a tree decomposition
    bottom-up in one pass; ``auto`` takes the brute route for small edge
    counts.  A disconnected input multiplies the per-component answers,
    since collider sets combine independently across components.  The empty
    graph counts one (the empty class).
    """
    if not G.is_fully_undirected():
        raise GraphInputError("counting expects an undirected skeleton")
    if method not in ("auto", "brute", "fpt"):
        raise GraphInputError(f"unknown method {method!r}")
    if G.n == 0:
        return 1
    comps = G.components()
    if len(comps) > 1:
        return math.prod(
            count_mecs(
                G.induced_subgraph(c),
                method,
                heuristic=heuristic,
                orientation_cap=orientation_cap,
                mark_cap=mark_cap,
            )
            for c in comps
        )
    chosen = method
    if chosen == "auto":
        chosen = "brute" if G.edge_count() <= AUTO_BRUTE_EDGE_THRESHOLD else "fpt"
    if chosen == "brute":
        return brute_count_mecs(G, max_edges=orientation_cap)
    U = G.skeleton()
    # tree_decomposition validates what it builds
    return _count_rec(U, tree_decomposition(U, heuristic), orientation_cap, mark_cap).total()

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

from .errors import GraphInputError, PreconditionError
from .extension import DecompositionContext, extensions
from .graph import Pdag, UndirectedGraph
from .mecrules import DEFAULT_ORIENTATION_CAP, brute_count_mecs, mec_codes
from .shadow import DEFAULT_MARK_ENUM_CAP, ShadowTable, partial_mec_codes
from .treedecomp import TreeDecomposition, tree_decomposition, validate_td

AUTO_BRUTE_EDGE_THRESHOLD = 10


def brute_force_count(
    G: Pdag, *, max_edges: int = DEFAULT_ORIENTATION_CAP
) -> ShadowTable:
    """Leaf table: one entry per class of ``G``, keyed by its full-graph
    shadow (the class graph with its own path table), each counting one."""
    F = ShadowTable(domain=G)
    for code in mec_codes(G, max_edges=max_edges):
        F.add_class(code)
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

    Paths, cycles and trees repeat the same local structure bag after bag,
    so the count memoises what depends on structure alone: a leaf table by
    its bag graph's vertex count and edges, a cut's glue plan by the key
    :func:`_combine_tables` files it under.  The memo is dropped when the
    count returns.
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
    leaves: dict = {}  # leaf entries by the bag graph's index structure
    plans: dict = {}  # glue plans by what the glue reads (see _combine_tables)
    for r in reversed(order):
        s1 = td.bags[r]
        F = ShadowTable(G.induced_subgraph(s1))
        shape = (F.frame.n, tuple(F.pairs))
        if shape not in leaves:
            leaves[shape] = brute_force_count(F.domain, max_edges=orientation_cap).entries
        F.entries = dict(leaves[shape])
        kids = td.children(r)
        for c in kids:
            s2 = td.bags[c]
            near = (s1 | s2).union(*(nbrs[v] for v in s1 | s2))
            h1 = {v for v in near if v in s1 or pos[r] < first[v] < pos[c]}
            h2 = {v for v in near if v in s2 or pos[c] <= first[v] < end[c]}
            ctx = DecompositionContext(h=G.induced_subgraph(h1 | h2), h1=h1, h2=h2, s1=s1, s2=s2)
            F = _combine_tables(ctx, F, tables.pop(c), mark_cap, plans)
        end[r] = end[kids[-1]] if kids else pos[r] + 1
        tables[r] = F
    return tables[td.root]


def _combine_tables(ctx, F1: ShadowTable, F2: ShadowTable, mark_cap, plans: dict) -> ShadowTable:
    """The classes of the two sides glued over every boundary candidate,
    grouped by their shadow on ``x' = N[s1]``: the glued rows live on the
    a-graph, which holds ``x'``, so the table keeps the a-graph as frame.

    The glue is a plan: one ``(out_key, i, j)`` per extension of the
    ``i``-th shadow of ``F1`` and the ``j``-th of ``F2`` (in entry order),
    applied to the two sides' counts.  The plan is a function of its key in
    ``plans``, which holds everything the glue reads, in a-graph index
    terms: the a-graph's skeleton, where ``x'`` sits in it, and per side
    (see :func:`_side_key`) the frame, where the domain sits in the a-graph
    and the table's keys in order.  A cut with an earlier cut's key replays
    that cut's plan.  The key holds the parts themselves, never a digest of
    them: a collision would miscount.
    """
    a = ctx.a_graph
    F = ShadowTable(a.induced_subgraph(ctx.x_prime), a)
    if not F1 or not F2:
        return F
    key = (
        a.n,
        tuple(ctx.a_pairs),
        tuple(a._index[v] for v in F.domain.vertices),
        _side_key(F1, a),
        _side_key(F2, a),
    )
    plan = plans.get(key)
    if plan is None:
        candidates = partial_mec_codes(a, max_edges=mark_cap)
        plan = plans[key] = [
            (F._key(code, p1, p2), i, j)
            for code, i, j, p1, p2 in extensions(ctx, candidates, F1, F2)
        ]
    counts1 = list(F1.entries.values())
    counts2 = list(F2.entries.values())
    entries = F.entries
    for out, i, j in plan:
        entries[out] = entries.get(out, 0) + counts1[i] * counts2[j]
    return F


def _side_key(F: ShadowTable, a) -> tuple:
    """What the glue reads of a side table, in a-graph index terms."""
    fi = F.frame._index
    return (
        F.frame.n,
        tuple(F.edges),
        tuple((fi[v], a._index[v]) for v in F.domain.vertices),
        tuple(F.entries),
    )


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

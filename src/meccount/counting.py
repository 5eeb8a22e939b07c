"""Counting classes over a skeleton: leaf enumeration plus a bottom-up fold
over a tree decomposition.

The state passed up the fold is a sparse table mapping boundary shadows to
the number of classes of the subgraph folded so far realizing each shadow;
absent keys mean zero.  A bag's table starts from direct enumeration of its
own induced graph; each child subtree's table is then combined into it over
every boundary partial MEC accepted by the extension test.  Only shadows
with nonzero counts are iterated, which is equivalent to sweeping the whole
shadow space because zero-count factors contribute nothing to any product.

The fold reads the input only as neighbour sets: each cut is derived from
them once, as label sets and index pairs, and is handed to the extension
test as that index record when its glue plan is new.
"""

from __future__ import annotations

import logging

from .errors import GraphInputError, PreconditionError
from .extension import _check_split, _Cut, _cut_frame, _induced, extensions
from .graph import Pdag, UndirectedGraph, _graph_on
from .mecrules import brute_count_mecs, mec_codes
from .shadow import ShadowTable, _partial_mec_codes_on
from .treedecomp import _bfs_rank, TreeDecomposition, tree_decomposition, validate_td

AUTO_BRUTE_EDGE_THRESHOLD = 10

log = logging.getLogger(__name__)


def brute_force_count(G: Pdag) -> ShadowTable:
    """Leaf table: one entry per class of ``G``, keyed by its full-graph
    shadow (the class graph with its own path table), each counting one."""
    F = ShadowTable(domain=G)
    for code in mec_codes(G):
        F.add_class(code)
    return F


def count_rec(G: UndirectedGraph, td: TreeDecomposition, r1: int) -> ShadowTable:
    """Class counts of ``G`` grouped by shadow on ``G[R1 ∪ N(R1)]``."""
    if r1 != td.root:
        raise PreconditionError(f"{r1} is not the root of the decomposition")
    if not validate_td(G, td):
        raise PreconditionError("decomposition is not valid for this graph")
    return _count_rec(G.neighbor_sets(), td)


def _count_rec(nbrs: dict, td: TreeDecomposition) -> ShadowTable:
    """Fold a valid decomposition of the graph ``G`` with neighbour sets
    ``nbrs`` into the root's table, children before parents, without
    recursion.

    A bag ``r`` starts from the leaf table of ``G[bag]`` and absorbs its
    children ``c`` in increasing index order: the same splits that cutting
    the root's last child again and again would make.  A cut only looks at
    the two bags' closed neighborhood.  Which of those vertices the part
    folded into ``r`` holds, and which ``c``'s subtree holds, follows from
    the preorder position of the first bag holding each vertex: by running
    intersection, a vertex outside a subtree's top bag lies in that subtree
    exactly when its first bag does.  Every cut's split is checked on those
    vertex sets (see :func:`extension._check_split`).

    Bag graphs and a-graphs are read off the neighbour sets as labels and
    index pairs, once per cut (see :func:`extension._cut_frame`), the labels
    ranked by that first position, ties by :func:`_bfs_rank`, so cuts of
    the same local structure get the same pairs whatever the labels.  Paths,
    cycles and trees repeat the same local structure bag after bag, so the
    count memoises what depends on structure alone: a leaf table by its bag
    graph's vertex count and edges, a cut's glue plan by the key
    :func:`_combine_tables` files it under, and the a-graph's boundary
    candidates by its vertex count and edges.  Table keys are positional, so
    a leaf table is computed on the bag graph over ``0..k-1``, the only
    ``Pdag`` the fold builds.  The memo is dropped when the count returns.
    """
    order = td.preorder
    pos = {i: k for k, i in enumerate(order)}
    first: dict = {}
    for i in order:
        for v in td.bags[i]:
            first.setdefault(v, pos[i])
    bfs = _bfs_rank(nbrs)
    rank = {v: k for k, v in enumerate(sorted(first, key=lambda v: (first[v], bfs[v])))}.__getitem__
    end: dict[int, int] = {}  # one past the last preorder position of a subtree
    tables: dict[int, ShadowTable] = {}
    leaves: dict = {}  # leaf entries by the bag graph's index structure
    memo = ({}, {})  # glue plans and boundary candidates (see _combine_tables)
    for r in reversed(order):
        s1 = td.bags[r]
        labels, pairs = _induced(s1, nbrs, rank)
        F = ShadowTable._on_labels(labels, pairs)
        shape = (len(labels), F.pairs)
        if shape not in leaves:
            leaves[shape] = brute_force_count(_graph_on(range(len(labels)), pairs)).entries
        F.entries = dict(leaves[shape])
        kids = td.children(r)
        for c in kids:
            s2 = td.bags[c]
            near = (s1 | s2).union(*(nbrs[v] for v in s1 | s2))
            host = {v for v in near if v in s1 or pos[r] < first[v] < end[c]}
            h1 = {v for v in host if v in s1 or first[v] < pos[c]}
            h2 = {v for v in host if v in s2 or first[v] >= pos[c]}
            _check_split(host, h1, h2, s1, s2, ((u, v) for u in h1 - h2 for v in nbrs[u] & host))
            x1, x2, labels, pairs = _cut_frame(nbrs, host, s1, s2, rank)
            x_prime = tuple(k for k, v in enumerate(labels) if v in x1)
            glued = ShadowTable._on_labels(labels, pairs, x_prime)
            F = _combine_tables(glued, F, tables.pop(c), (x1 & h1, x2 & h2), memo)
        end[r] = end[kids[-1]] if kids else pos[r] + 1
        tables[r] = F
    return tables[td.root]


def _combine_tables(F: ShadowTable, F1: ShadowTable, F2: ShadowTable, domains, memo):
    """``F`` after gluing the classes of the two sides over every boundary
    candidate, grouped by their shadow on ``x' = N[s1]``: ``F`` comes empty,
    with the cut's a-graph as frame and ``x'`` as domain, since the glued
    rows live on the a-graph; ``domains`` holds the sides' boundary graphs,
    ``x1 & h1`` and ``x2 & h2``, as label sets.

    The glue is a plan: one ``(out_key, i, j)`` per extension of the
    ``i``-th shadow of ``F1`` and the ``j``-th of ``F2`` (in entry order),
    applied to the two sides' counts.  The plan is a function of its key in
    ``plans``, which holds everything the glue reads, in a-graph index
    terms: the a-graph's skeleton, where ``x'`` sits in it, and per side
    (see :func:`_side_key`) the frame, where the domain sits in the a-graph
    and the table's keys in order.  A cut with an earlier cut's key replays
    that cut's plan.  The key holds the parts themselves, never a digest of
    them: a collision would miscount.

    Only a cut whose key is new is set up, as an :class:`extension._Cut`
    read off ``F`` and ``domains``; its boundary candidates depend on the
    a-graph's shape alone, so ``candidates`` keeps them by shape.
    """
    if not F1 or not F2:
        return F
    plans, candidates = memo
    at = {v: k for k, v in enumerate(F.labels)}
    shape = (len(F.labels), F.pairs)
    key = (*shape, F.inside, _side_key(F1, at), _side_key(F2, at))
    plan = plans.get(key)
    if plan is None:
        cut = _Cut(F.labels, F.pairs, *domains)
        rows = candidates.get(shape)
        if rows is None:
            rows = candidates[shape] = _partial_mec_codes_on(*shape)
        plan = plans[key] = [
            (F._key(code, p1, p2), i, j) for code, i, j, p1, p2 in extensions(cut, rows, F1, F2)
        ]
    counts1 = list(F1.entries.values())
    counts2 = list(F2.entries.values())
    entries = F.entries
    for out, i, j in plan:
        entries[out] = entries.get(out, 0) + counts1[i] * counts2[j]
    return F


def _side_key(F: ShadowTable, at: dict) -> tuple:
    """What the glue reads of a side table, in the index terms of the
    a-graph whose label-to-index map is ``at``."""
    labels = F.labels
    return (len(labels), F.edges, tuple([(f, at[labels[f]]) for f in F.inside]), tuple(F.entries))


def count_mecs(G: Pdag, method: str = "auto") -> int:
    """Number of classes whose skeleton is ``G``.

    ``brute`` enumerates orientations; ``fpt`` folds a tree decomposition
    bottom-up in one pass; ``auto`` takes the brute route for small edge
    counts.  A disconnected input multiplies the per-component answers,
    since collider sets combine independently across components.  The empty
    graph counts one (the empty class).
    """
    return count_components(G, method)[0]


def count_components(G: Pdag, method: str = "auto") -> tuple[int, list]:
    """:func:`count_mecs`'s answer, and what it ran: per connected
    component, by least label, the pair ``(route, td)`` of the route it took
    and the decomposition the engine folded (``None`` on the brute route),
    rooted as :func:`rooted_for_fold` roots it.

    ``auto`` decides per component: the brute route up to
    ``AUTO_BRUTE_EDGE_THRESHOLD`` edges, the engine above.
    """
    # a graph is undirected exactly when it equals its skeleton, whose views
    # read its rows as they are, with no transpose
    U = G.skeleton()
    if U != G:
        raise GraphInputError("counting expects an undirected skeleton")
    if method not in ("auto", "brute", "fpt"):
        raise GraphInputError(f"unknown method {method!r}")
    comps = U.components()
    total, runs = 1, []
    for part in [U] if len(comps) == 1 else [U.induced_subgraph(c) for c in comps]:
        route = method
        if route == "auto":
            route = "brute" if part.edge_count() <= AUTO_BRUTE_EDGE_THRESHOLD else "fpt"
        if route == "brute":
            total *= brute_count_mecs(part)
            runs.append((route, None))
        else:
            # tree_decomposition validates what it builds
            td = rooted_for_fold(part, tree_decomposition(part))
            total *= _count_rec(part.neighbor_sets(), td).total()
            runs.append((route, td))
    return total, runs


def rooted_for_fold(U: Pdag, td: TreeDecomposition) -> TreeDecomposition:
    """``td``, a valid decomposition of the connected undirected graph
    ``U``, rooted where its fold has the least estimated glue work (see
    :func:`glue_estimates`), the lower bag index on a tie.

    A path rooted at an end, where no bag has two children, is left as it
    is: re-rooting it rarely pays for its estimate.  At ``DEBUG`` level
    (``MECCOUNT_LOG=DEBUG`` in the CLI) it logs one line per decomposition:
    its bags, its width, the chosen root, and the estimate there and at
    ``td``'s own root.
    """
    cost = None
    root = td.root
    if any(len(td.children(i)) > 1 for i in td.bags):
        cost = glue_estimates(U, td)
        root = min(cost, key=lambda i: (cost[i], i))
    if log.isEnabledFor(logging.DEBUG):
        if cost is None:
            cost = glue_estimates(U, td)
        log.debug(
            "%d bags, width %d: root %d, glue estimate %d (%d at bag %d)",
            len(td.bags), td.width, root, cost[root], cost[td.root], td.root,
        )
    if root == td.root:
        return td
    return TreeDecomposition(bags=td.bags, tree_edges=td.tree_edges, root=root)


def glue_estimates(U: Pdag, td: TreeDecomposition) -> dict[int, int]:
    """For every bag of ``td``, a valid decomposition of the connected
    undirected graph ``U``, the glue work of folding ``td`` from that bag:
    the sum of ``3 ** k`` over its cuts, where ``k`` is the number of
    vertices of the cut's a-graph, exactly as :func:`_count_rec` builds it.

    A cut from bag ``p`` to its child ``c`` reads ``p``'s bag, ``c``'s bag,
    the neighbours of both that lie in ``c``'s branch, and ``p``'s
    neighbours in the branches of the children ``p`` absorbed before ``c``.
    Outside ``p``'s bag those branches are disjoint (running intersection),
    so ``k`` is ``c``'s own term plus the sizes of the earlier branches'
    terms, and a bag's cuts are priced, for each choice of its parent, from
    its tree neighbours' terms alone.  Moving the root across one tree edge
    changes the parents of its two bags only, so one walk of the tree
    prices every root.
    """
    at, rows = U._index, U._rows
    bag, nbr = {}, {}
    for i, b in td.bags.items():
        bag[i] = sum(1 << at[v] for v in b)
        nbr[i] = 0
        for v in b:
            nbr[i] |= rows[at[v]]
    # side[p, c]: the vertices of the bags on c's side of the tree edge p - c;
    # a vertex on both sides lies in both bags
    everything = (1 << U.n) - 1
    side = {}
    for p in reversed(td.preorder):
        for c in td.children(p):
            down = bag[c]
            for d in td.children(c):
                down |= side[c, d]
            side[p, c] = down
            side[c, p] = (everything & ~down) | (bag[p] & bag[c])
    adj = {i: [] for i in td.bags}  # tree neighbours, ascending
    for p, c in sorted(side):
        adj[p].append(c)

    def cost(p, parent) -> int:
        # p absorbs its children in increasing index order; each cut reads
        # the branches of the children absorbed before it
        total = earlier = 0
        for c in adj[p]:
            if c != parent:
                branch = side[p, c]
                own = bag[p] | ((bag[c] | nbr[p] | nbr[c]) & branch)
                total += 3 ** (own.bit_count() + earlier)
                earlier += (nbr[p] & branch & ~bag[p]).bit_count()
        return total

    # a fold pays cost(p, parent) at each bag p, for p's parent under its root
    alone = {p: cost(p, None) for p in td.bags}
    under = {c: cost(c, p) for p in td.preorder for c in td.children(p)}
    est = {td.root: alone[td.root] + sum(under.values())}
    for p in td.preorder:
        for c in td.children(p):
            est[c] = est[p] - alone[p] - under[c] + cost(p, c) + alone[c]
    return est

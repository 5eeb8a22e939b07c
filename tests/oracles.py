"""Independent reference implementations used only as test oracles.

Deliberately written against plain dict/set structures with none of the
package's matrix machinery, so that agreement means two unrelated routes
reached the same answer.
"""

from __future__ import annotations

import collections
import itertools

from meccount import Pdag, _kernels


def edge_views(P):
    """(ordered pair set, skeleton pair set) of a package graph."""
    ordered = set(P.ordered_edges())
    skel = {frozenset(e) for e in ordered}
    return ordered, skel


def chordal_by_induced_cycles(P) -> bool:
    """No vertex subset induces a cycle of length four or more."""
    verts = list(P.vertices)
    _, skel = edge_views(P)
    for k in range(4, len(verts) + 1):
        for sub in itertools.combinations(verts, k):
            inside = {frozenset((u, v)) for u, v in itertools.combinations(sub, 2)}
            cyc = inside & skel
            if len(cyc) != k:
                continue
            deg = {v: 0 for v in sub}
            for e in cyc:
                for v in e:
                    deg[v] += 1
            if any(d != 2 for d in deg.values()):
                continue
            # connected 2-regular subgraph on k >= 4 vertices: a chordless cycle
            start = sub[0]
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for e in cyc:
                    if x in e:
                        (y,) = e - {x}
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
            if len(seen) == k:
                return False
    return True


def has_cycle_with_directed_edge(P) -> bool:
    """Some closed forward walk traverses a directed edge."""
    ordered, _ = edge_views(P)
    succ: dict = {}
    for u, v in ordered:
        succ.setdefault(u, set()).add(v)
    directed = {(u, v) for u, v in ordered if (v, u) not in ordered}

    def simple_path(src, dst, banned_first) -> bool:
        # forward path src -> dst avoiding the reversed copy of the seed edge
        stack = [(src, frozenset([src]))]
        while stack:
            x, used = stack.pop()
            for y in succ.get(x, ()):  # noqa: B007
                if (x, y) == banned_first:
                    continue
                if y == dst:
                    return True
                if y not in used:
                    stack.append((y, used | {y}))
        return False

    for u, v in directed:
        if simple_path(v, u, banned_first=(v, u)):
            return True
    return False


def vstructs(P) -> frozenset:
    ordered, skel = edge_views(P)
    directed = {(u, v) for u, v in ordered if (v, u) not in ordered}
    out = set()
    for (a, b), (c, b2) in itertools.combinations(sorted(directed), 2):
        if b != b2 or a == c:
            continue
        if frozenset((a, c)) in skel:
            continue
        out.add((min(a, c, key=_lk), b, max(a, c, key=_lk)))
    return frozenset(out)


def strongly_protected_reference(P, e) -> bool:
    """The four protecting configurations of a directed edge ``u -> v``,
    each tried by looping over the witnesses."""
    ordered, skel = edge_views(P)
    directed = {(a, b) for a, b in ordered if (b, a) not in ordered}
    u, v = e

    def adj(a, b):
        return frozenset((a, b)) in skel

    verts = P.vertices
    if any((w, u) in directed and not adj(w, v) for w in verts if w != v):
        return True
    if any((w, v) in directed and not adj(w, u) for w in verts if w != u):
        return True
    if any((u, w) in directed and (w, v) in directed for w in verts):
        return True
    parents = [w for w in verts if (w, u) in ordered and (u, w) in ordered and (w, v) in directed]
    return any(not adj(a, b) for a, b in itertools.combinations(parents, 2))


def _lk(x):
    return (x.__class__.__name__, x)


def all_dag_orientations(U):
    """Orientation dicts of an undirected graph that are acyclic."""
    edges = [tuple(sorted(e, key=_lk)) for e in U.undirected_edges()]
    for choice in itertools.product((0, 1), repeat=len(edges)):
        arcs = set()
        for bit, (u, v) in zip(choice, edges):
            arcs.add((u, v) if bit else (v, u))
        if _acyclic(U.vertices, arcs):
            yield arcs


def _acyclic(verts, arcs) -> bool:
    out: dict = {v: set() for v in verts}
    indeg = {v: 0 for v in verts}
    for u, v in arcs:
        out[u].add(v)
        indeg[v] += 1
    queue = [v for v in verts if indeg[v] == 0]
    done = 0
    while queue:
        x = queue.pop()
        done += 1
        for y in out[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    return done == len(verts)


def dag_vstructs(U, arcs) -> frozenset:
    skel = {frozenset(e) for e in U.undirected_edges()}
    out = set()
    for (a, b), (c, b2) in itertools.combinations(sorted(arcs), 2):
        if b != b2 or a == c or frozenset((a, c)) in skel:
            continue
        out.add((min(a, c, key=_lk), b, max(a, c, key=_lk)))
    return frozenset(out)


def adjacency_bytes(P) -> bytes:
    """``P``'s ordered pairs as a row-major 0/1 byte matrix over its sorted
    labels, read one cell at a time through ``has_ordered_edge``: the bytes
    of a boolean adjacency matrix."""
    return bytes(P.has_ordered_edge(u, v) for u in P.vertices for v in P.vertices)


def count_mecs_by_dags(U) -> int:
    return len({dag_vstructs(U, arcs) for arcs in all_dag_orientations(U)})


def tfp_search(P, from_edge, to_edge=None, to_vertex=None) -> bool:
    """Exhaustive simple-path search for a triangle-free path."""
    ordered, skel = edge_views(P)
    succ: dict = {}
    for u, v in ordered:
        succ.setdefault(u, set()).add(v)
    if from_edge not in ordered:
        raise ValueError("from_edge not present")
    if to_edge == from_edge or (to_vertex is not None and to_vertex == from_edge[1]):
        return True

    def walk(path):
        a, b = path[-2], path[-1]
        for c in sorted(succ.get(b, ()), key=_lk):
            if c in path or frozenset((a, c)) in skel:
                continue
            if to_edge is not None and (b, c) == to_edge:
                return True
            if to_vertex is not None and c == to_vertex:
                return True
            if walk(path + [c]):
                return True
        return False

    return walk(list(from_edge))


def validate_td_reference(U, td) -> bool:
    """Tree-decomposition laws straight from the definition, plus the
    separator property of every tree edge: with the edge removed, no
    skeleton edge joins the vertices of the two sides outside the two bags'
    intersection."""
    idxs = set(td.bags)
    edges = list(td.tree_edges)

    def component(start, allowed, dropped=None):
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for e in edges:
                if e == dropped or i not in e:
                    continue
                j = e[1] if e[0] == i else e[0]
                if j in allowed and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    if len(edges) != len(idxs) - 1 or component(td.root, idxs) != idxs:
        return False
    covered = set().union(*td.bags.values())
    if covered != set(U.vertices):
        return False
    skel = list(U.skeleton_edges())
    for u, v in skel:
        if not any(u in b and v in b for b in td.bags.values()):
            return False
    for v in covered:
        holding = {i for i in idxs if v in td.bags[i]}
        if component(next(iter(holding)), holding) != holding:
            return False
    for a, b in edges:
        side_a = component(a, idxs, dropped=(a, b))
        inter = td.bags[a] & td.bags[b]
        va = set().union(*(td.bags[i] for i in side_a)) - inter
        vb = set().union(*(td.bags[i] for i in idxs - side_a)) - inter
        if any((u in va and v in vb) or (u in vb and v in va) for u, v in skel):
            return False
    return True


def acyclic_masks_reference(n, eu, ev, lo, hi) -> list:
    """Masks in ``[lo, hi)`` whose orientation (bit ``j`` set: ``eu[j] ->
    ev[j]``, clear: ``ev[j] -> eu[j]``) is acyclic, each decided by removing
    sinks until none is left: a digraph is acyclic exactly when that empties
    it."""
    out = []
    for mask in range(lo, hi):
        succ = {v: set() for v in range(n)}
        for j, (u, v) in enumerate(zip(eu, ev)):
            if (mask >> j) & 1:
                succ[u].add(v)
            else:
                succ[v].add(u)
        left = set(range(n))
        while left:
            sinks = {v for v in left if not (succ[v] & left)}
            if not sinks:
                break
            left -= sinks
        if not left:
            out.append(mask)
    return out


def td_from_elimination_order(U, order, root=None):
    """The tree decomposition an elimination order of a connected graph
    gives, with no bag contracted away: eliminating ``v`` makes the bag of
    ``v`` and its neighbours left in the filled graph, and that bag hangs
    off the bag of the neighbour eliminated next.  Rooted at ``root`` (a bag
    index, the position of its vertex in ``order``), the last bag by default.
    """
    from meccount.treedecomp import TreeDecomposition

    adj = {v: set() for v in U.vertices}
    for u, v in U.skeleton_edges():
        adj[u].add(v)
        adj[v].add(u)
    pos = {v: k for k, v in enumerate(order)}
    bags, edges = {}, set()
    for k, v in enumerate(order):
        later = {u for u in adj[v] if pos[u] > k}
        bags[k] = frozenset(later | {v})
        for a in later:
            adj[a] |= later - {a}
        if later:
            edges.add((k, min(pos[u] for u in later)))
    return TreeDecomposition(
        bags=bags, tree_edges=frozenset(edges), root=len(order) - 1 if root is None else root
    )


def td_from_random_order(U, rng):
    """:func:`td_from_elimination_order` of a random order drawn from
    ``rng``: a second decomposition shape besides min-fill's, with bags
    min-fill would not build."""
    order = list(U.vertices)
    rng.shuffle(order)
    return td_from_elimination_order(U, order)


def tree_decomposition_reference(U):
    """Min-fill re-scored from scratch: every step scores every vertex left
    by the edges its elimination would add and eliminates the least, ties by
    the vertex's position in a breadth-first walk (from the least
    ``(degree, label)`` vertex, each vertex's unvisited neighbours queued in
    ``(degree, label)`` order).  Each bag is a vertex and its neighbours
    left, hung off the bag of the neighbour eliminated next; then,
    restarting a sorted scan of the tree edges after every merge, a bag
    contained in a tree neighbour is merged into it.  Bags are renumbered
    in order and rooted at 0.  For a connected undirected graph with at
    least one vertex."""
    from meccount.treedecomp import TreeDecomposition

    adj = {v: set() for v in U.vertices}
    for a, b in U.skeleton_edges():
        adj[a].add(b)
        adj[b].add(a)

    def score(v):
        return sum(1 for a, b in itertools.combinations(adj[v], 2) if b not in adj[a])

    def deg_label(v):
        return len(adj[v]), _lk(v)

    walk = [min(adj, key=deg_label)]
    queue = collections.deque(walk)
    while queue:
        v = queue.popleft()
        fresh = sorted(set(adj[v]) - set(walk), key=deg_label)
        walk += fresh
        queue.extend(fresh)
    position = {v: k for k, v in enumerate(walk)}

    elim_pos, raw_bags, elim_vertex = {}, [], []
    while adj:
        v = min(adj, key=lambda x: (score(x), position[x]))
        nbrs = adj[v]
        raw_bags.append(frozenset({v} | nbrs))
        elim_pos[v] = len(elim_vertex)
        elim_vertex.append(v)
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        del adj[v]

    edges = set()
    for i, bag in enumerate(raw_bags):
        rest = bag - {elim_vertex[i]}
        if rest:
            j = elim_pos[min(rest, key=lambda x: elim_pos[x])]
            edges.add((min(i, j), max(i, j)))

    bags = dict(enumerate(raw_bags))
    changed = True
    while changed:
        changed = False
        for a, b in sorted(edges):
            if bags[a] <= bags[b]:
                small, big = a, b
            elif bags[b] <= bags[a]:
                small, big = b, a
            else:
                continue
            edges.discard((a, b))
            for x, y in list(edges):
                if small in (x, y):
                    other = y if x == small else x
                    edges.discard((x, y))
                    if other != big:
                        edges.add((min(other, big), max(other, big)))
            del bags[small]
            changed = True
            break
    remap = {old: new for new, old in enumerate(sorted(bags))}
    return TreeDecomposition(
        bags={remap[i]: b for i, b in bags.items()},
        tree_edges=frozenset((remap[a], remap[b]) for a, b in edges),
        root=0,
    )


def mark_codes_reference(n: int, eu, ev, skel, require_protection: bool) -> list[tuple[int, int]]:
    """``_kernels.mark_codes`` as it was before its per-depth reach rows
    and early protection tests: every partial assignment is pushed onto
    undirected/outgoing/incoming bitmask rows and tested by walking the
    whole partial graph to a fixpoint, and protection is tested only at the
    leaves, so this is also the leaf-only protection reference.  The leaf
    checks are the kernel's own ``chordal_bits`` and ``protected``, the
    latter given each vertex's complement ``far`` of itself and its
    neighbours."""
    # depth-first enumeration of edge-mark assignments that give a chain
    # graph with chordal undirected components and no induced x->y-w; with
    # require_protection also every directed edge protected.  Partial
    # assignments are pruned as soon as the assigned part alone certifies a
    # violation; chordality is decided at the leaves.
    m = len(eu)
    mark = [0] * m
    trial = [0] * (m + 1)
    und = [0] * n
    out = [0] * n
    inb = [0] * n
    far = [~(row | 1 << v) for v, row in enumerate(skel)]
    codes = []
    d = 0
    while True:
        if d == m:
            ok = _kernels.chordal_bits(n, und)
            prot = 0
            if ok:
                for j in range(m):
                    if mark[j] == 1:
                        x, y = eu[j], ev[j]
                    elif mark[j] == 2:
                        x, y = ev[j], eu[j]
                    else:
                        continue
                    if _kernels.protected(x, y, far, und, out, inb):
                        prot |= 1 << j
                    elif require_protection:
                        ok = False
                        break
            if ok:
                code = 0
                for j in range(m):
                    code |= mark[j] << (2 * j)
                codes.append((code, prot))
            d -= 1
            if d < 0:
                break
            _pop(d, mark[d], eu, ev, und, out, inb)
            continue
        t = trial[d]
        if t == 3:
            d -= 1
            if d < 0:
                break
            _pop(d, mark[d], eu, ev, und, out, inb)
            continue
        trial[d] = t + 1
        mark[d] = t
        _push(d, t, eu, ev, und, out, inb)
        if _prune(d, t, eu, ev, skel, und, out, inb):
            _pop(d, t, eu, ev, und, out, inb)
            continue
        d += 1
        trial[d] = 0
    return codes


def _push(j, t, eu, ev, und, out, inb):
    u, v = eu[j], ev[j]
    if t == 0:
        und[u] |= 1 << v
        und[v] |= 1 << u
    elif t == 1:
        out[u] |= 1 << v
        inb[v] |= 1 << u
    else:
        out[v] |= 1 << u
        inb[u] |= 1 << v


def _pop(j, t, eu, ev, und, out, inb):
    u, v = eu[j], ev[j]
    if t == 0:
        und[u] &= ~(1 << v)
        und[v] &= ~(1 << u)
    elif t == 1:
        out[u] &= ~(1 << v)
        inb[v] &= ~(1 << u)
    else:
        out[v] &= ~(1 << u)
        inb[u] &= ~(1 << v)


def _prune(j, t, eu, ev, skel, und, out, inb):
    u, v = eu[j], ev[j]
    if t == 0:
        if inb[u] & ~skel[v] & ~(1 << v):
            return True
        if inb[v] & ~skel[u] & ~(1 << u):
            return True
        if _dreach(und, out, u, v) or _dreach(und, out, v, u):
            return True
    else:
        if t == 1:
            x, y = u, v
        else:
            x, y = v, u
        if und[y] & ~skel[x] & ~(1 << x):
            return True
        if _reach_fwd(und, out, y, x):
            return True
    return False


def _uclose(und, S):
    # closure of the bit-set S over undirected adjacency rows
    while True:
        T = S
        for i in range(len(und)):
            if (S >> i) & 1:
                T |= und[i]
        if T == S:
            return S
        S = T


def _reach_fwd(und, out, s, t):
    # is t reachable from s along forward edges (paths of length >= 1)?
    S = und[s] | out[s]
    while True:
        T = S
        for i in range(len(und)):
            if (S >> i) & 1:
                T |= und[i] | out[i]
        if T == S:
            break
        S = T
    return (S >> t) & 1 != 0


def _dreach(und, out, s, t):
    # reachable from s by a forward walk using at least one directed edge
    n = len(und)
    A = _uclose(und, 1 << s)
    F = 0
    for i in range(n):
        if (A >> i) & 1:
            F |= out[i]
    B = 0
    newB = _uclose(und, F)
    while newB != B:
        B = newB
        F = B
        for i in range(n):
            if (B >> i) & 1:
                F |= out[i]
        newB = _uclose(und, B | F)
    return (B >> t) & 1 != 0


def side_checks_reference(side, sig) -> list:
    """``extension._side_checks`` as it was before its per-shadow bit masks:
    the side's graph under the signature ``sig`` is built edge by edge, and
    each shadow of the signature's collider bucket is tested by
    :func:`struct_ok_reference`, its directed and undirected edges read off
    its key through the side's frame map ``side.orient``."""
    und, dire = [], []
    for j, (u, v) in zip(side.pos, side.edges):
        trit = sig >> 2 * j & 3
        if trit == 0:
            und.append((u, v))
        else:
            dire.append((u, v) if trit == 1 else (v, u))
    sub = Pdag(vertices=side.labels, undirected=und, directed=dire)
    prot = sig >> side.shift
    ok = []
    for i in side.buckets.get(side.colliders(sig), ()):
        code = side.keys[i][0]
        directed, undirected = [], []
        for jf2, j2, u, v, (suv, svu, iu, iv, _), _ in side.orient:
            trit = code >> jf2 & 3
            if trit == 0:
                j = j2 // 2
                undirected += [(u, v, suv, svu, iu, iv, j), (v, u, svu, suv, iv, iu, j)]
            else:
                directed.append((u, v) if trit == 1 else (v, u))
        prof = side.profile(i)
        if struct_ok_reference(sub, prot, directed, undirected, prof.p1, prof.p2):
            ok.append(i)
    return ok


def struct_ok_reference(sub, prot, directed, und, p1, p2) -> bool:
    """The mark conditions between a side shadow and the boundary graph, as
    a loop over the shadow's undirected orientations and, for each, over
    the activated ones.  ``sub`` is the side's graph with the signature's
    marks and ``prot`` its protected bits by a-graph position; the shadow
    has the ``directed`` edges ``(u, v)`` and the undirected orientations
    ``und``, each ``(u, v, slot of (u, v), slot of (v, u), index of u, index
    of v, a-graph position)``, and the path rows ``p1``/``p2`` by a-graph
    slot.

    (1) the shadow's directed edges keep their direction; (2) each edge
    undirected in the shadow is directed in the boundary exactly when
    protection or one of the two imported reachability justifications
    forces it, and never against a direction a justification forces.
    """
    for u, v in directed:
        if not sub.has_directed(u, v):
            return False
    flags = [sub.has_directed(e[0], e[1]) for e in und]
    activated = [e for e, on in zip(und, flags) if on]
    for (_, _, suv, svu, _, iv, j), on in zip(und, flags):
        # x -> y justifies u -> v by a path x -> y ... u -> v, or by paths
        # x -> y ... v and v -> u ... x
        justified = False
        for _, _, sxy, _, ix, _, _ in activated:
            if p1.get(sxy, 0) >> suv & 1 or (
                p2.get(sxy, 0) >> iv & 1 and p2.get(svu, 0) >> ix & 1
            ):
                justified = True
                break
        if on:
            if not (prot >> j & 1 or justified):
                return False
        elif justified:
            # forced u -> v, but the boundary leaves the edge undirected or
            # directs it v -> u
            return False
    return True

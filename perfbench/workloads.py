"""Seeded skeleton streams for the three benchmark workloads, and the
independent answers each count is checked against.

Every graph is derived from ``(workload, seed, index)`` alone, so a seed
names one infinite, reproducible stream and a run consumes a prefix of it.
Graph ``i`` takes its shape class from ``i`` modulo the workload's class
cycle and its size from a fixed low-discrepancy sequence; the seed picks
the instance (jitter of the size, the random tree or graph, and the vertex
labels, which steer the tree decomposition's tie-breaks).  Paths and cycles
take only a rotation and reflection of their natural labels: a shuffled
cycle costs up to five times a sorted one, and that swing would decide
which graphs form a run's tail.  Stratifying by index rather than drawing
shapes and sizes freely keeps the cost mix of a run's prefix the same on
every seed, so throughput and latency medians do not swing with which sizes
a seed happened to draw.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

# size stratum of graph i: frac(i * golden ratio conjugate) spreads any
# prefix of the stream evenly over a size range
_PHI = 0.6180339887498949


@dataclass(frozen=True)
class Skeleton:
    """One generated input: a label for reports, its vertices and edges."""

    kind: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def text(self) -> str:
        """Canonical edge-list text (the CLI input format), used for digests."""
        lines = [f"# {self.kind} n={len(self.vertices)} m={len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def digest(graphs) -> str:
    """Short content hash of a sequence of skeletons."""
    h = hashlib.sha256()
    for g in graphs:
        h.update(g.text().encode())
    return h.hexdigest()[:16]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _stratum(index: int, lo: int, hi: int) -> int:
    return lo + int(((index * _PHI) % 1.0) * (hi - lo + 1))


def _rotate(kind: str, n: int, edges, rng: random.Random) -> Skeleton:
    """Relabel ``v`` as ``(r + s * v) mod n``: a seeded rotation and
    reflection, which keeps neighbours on a path or cycle neighbours in
    label order."""
    r, s = rng.randrange(n), rng.choice((1, -1))
    out = sorted(tuple(sorted(((r + s * u) % n, (r + s * v) % n))) for u, v in edges)
    return Skeleton(kind, tuple(range(n)), tuple(out))


def _relabel(kind: str, n: int, edges, rng: random.Random) -> Skeleton:
    perm = list(range(n))
    rng.shuffle(perm)
    out = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    return Skeleton(kind, tuple(range(n)), tuple(out))


# -- shapes -------------------------------------------------------------------


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def ladder_edges(k: int):
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return rails + [(i, k + i) for i in range(k)]


def grid_edges(rows: int, cols: int):
    out = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                out.append((v, v + 1))
            if r + 1 < rows:
                out.append((v, v + cols))
    return out


def random_tree_edges(n: int, max_degree: int, rng: random.Random):
    """Random tree grown by attaching each new vertex to an earlier one that
    still has room; ``max_degree >= 2`` guarantees a slot always exists."""
    deg = [0] * n
    open_slots = [0]
    edges = []
    for v in range(1, n):
        u = rng.choice(open_slots)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if deg[u] == max_degree:
            open_slots.remove(u)
        open_slots.append(v)
    return edges


def random_connected_edges(n: int, m: int, max_degree: int, rng: random.Random):
    """Connected graph with exactly ``m`` edges and bounded degree, or None
    when this draw got stuck (callers redraw from the same stream)."""
    edges = set(tuple(sorted(e)) for e in random_tree_edges(n, max_degree, rng))
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    free = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(free)
    for u, v in free:
        if len(edges) == m:
            break
        if deg[u] < max_degree and deg[v] < max_degree:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return sorted(edges) if len(edges) == m else None


# -- workload streams -----------------------------------------------------------


def thin_long(seed: int, index: int) -> Skeleton:
    """Paths, max-degree-3 trees and cycles: many bags, tiny boundaries."""
    rng = _rng("thin-long", seed, index)
    kind = THIN_CLASSES[index % len(THIN_CLASSES)]
    lo, hi = THIN_N[kind]
    n = _stratum(index // len(THIN_CLASSES), lo, hi) + rng.randint(-2, 2)
    if kind == "path":
        return _rotate(f"{kind}{n}", n, path_edges(n), rng)
    if kind == "cycle":
        return _rotate(f"{kind}{n}", n, cycle_edges(n), rng)
    return _relabel(f"{kind}{n}", n, random_tree_edges(n, 3, rng), rng)


# paths carry the decomposition cost (its share grows with the path's
# length), so they are half the stream; trees and cycles cut wider
# boundaries per vertex, so they are shorter for a similar cost
THIN_CLASSES = ("path", "tree", "path", "cycle", "path", "tree")
THIN_N = {"path": (95, 125), "tree": (42, 56), "cycle": (35, 45)}


def wide_boundary(seed: int, index: int) -> Skeleton:
    """Treewidth-2/3 skeletons whose separator boundaries are dense.

    The 3x3 grid costs several times any other graph here, so it opens
    every run exactly once instead of recurring at a rate whose count in a
    run would swing with the run's length.  After it, two ladders alternate
    with one random graph: a random graph's cost varies tenfold with its
    structure, so ladders, whose cost the seed moves only through their
    labels, hold the median and tail steady."""
    rng = _rng("wide-boundary", seed, index)
    if index == 0:
        return _relabel("grid3x3", 9, grid_edges(3, 3), rng)
    turn, slot = divmod(index - 1, 3)
    if slot < 2:
        k = 6 + (2 * turn + slot) % 3
        return _relabel(f"ladder2x{k}", 2 * k, ladder_edges(k), rng)
    n = 8 + turn % 3
    while True:
        edges = random_connected_edges(n, WIDE_RANDOM_M, rng.choice((3, 4)), rng)
        if edges is not None:
            return _relabel(f"random{n}m{WIDE_RANDOM_M}", n, edges, rng)


# one more edge spreads the per-graph cost from about 0.1-1.2 s to 0.1-3 s,
# which a run of a few dozen graphs cannot average out
WIDE_RANDOM_M = 10


def oracle_batch(seed: int, index: int) -> Skeleton:
    """Small connected skeletons for the three brute-force routes.

    The mark sweep grows as 3^m, so ``m`` (and ``n``) cycle with the index
    rather than being drawn, and every run sees the same size mix."""
    rng = _rng("oracle-batch", seed, index)
    m = 8 + index % 5
    n = 6 + (index // 5) % 4
    while True:
        edges = random_connected_edges(n, m, n - 1, rng)
        if edges is not None:
            return _relabel(f"random{n}m{m}", n, edges, rng)


STREAMS: dict[str, Callable[[int, int], Skeleton]] = {
    "thin-long": thin_long,
    "wide-boundary": wide_boundary,
    "oracle-batch": oracle_batch,
}


# -- independent answers --------------------------------------------------------


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def path_count(n: int) -> int:
    """Classes over a path on ``n`` vertices: F(n) with F(1) = F(2) = 1."""
    return fibonacci(n)


def cycle_count(n: int) -> int:
    """Classes over a cycle on ``n >= 4`` vertices: L(n) - 1."""
    if n < 4:
        raise ValueError("the closed form holds for cycles of length at least 4")
    return lucas(n) - 1


# counts confirmed by brute_count_mecs (the orientation oracle); the count
# is a property of the shape, so any relabeling keeps it
PINNED = {
    "ladder2x6": 6896,
    "ladder2x7": 39584,
    "ladder2x8": 227072,
    "grid3x3": 758,
}


def tree_count(edges, n: int) -> int:
    """Classes over a tree skeleton, by dynamic programming over the tree.

    On a tree a mark assignment is a class graph exactly when (a) no vertex
    with a directed in-edge has an undirected edge, and (b) every directed
    edge ``a -> b`` is protected: ``b`` has a second in-edge or ``a`` has
    an in-edge.  Both conditions are local, so the count factors over the
    rooted tree.  For vertex ``c`` with parent edge mark ``s`` (``U``
    undirected, ``D`` into ``c``, ``P`` into the parent) and ``inp`` (the
    parent has an in-edge), ``g[c][s, inp][inc]`` counts the assignments of
    ``c``'s subtree in which ``c`` has an in-edge exactly when ``inc``.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    if len(order) != n:
        raise ValueError("not a connected tree")
    g: list[dict] = [None] * n  # type: ignore[list-item]
    total = 0
    for c in reversed(order):
        children = [w for w in adj[c] if w != parent[c]]
        # per hypothesis h (c has an in-edge): ways to mark the child edges,
        # keyed by (in-edges from children capped at 2, any undirected child
        # edge, any child in-edge whose tail has no in-edge)
        acc_by_h = {}
        for h in (True, False):
            acc = {(0, False, False): 1}
            for x in children:
                nxt: dict = {}
                for (k, und, weak), ways in acc.items():
                    for t in ("U", "D", "P"):
                        for inx in (True, False):
                            sub = g[x][(t, h)][inx]
                            if not sub:
                                continue
                            key = (
                                min(k + (t == "P"), 2),
                                und or t == "U",
                                weak or (t == "P" and not inx),
                            )
                            nxt[key] = nxt.get(key, 0) + ways * sub
                acc = nxt
            acc_by_h[h] = acc
        parent_states = [("U", False), ("U", True), ("D", False), ("D", True), ("P", False), ("P", True)]
        if parent[c] < 0:
            parent_states = [(None, False)]
        table = {}
        for s, inp in parent_states:
            out = {True: 0, False: 0}
            for h, acc in acc_by_h.items():
                for (k, und, weak), ways in acc.items():
                    ins = min(k + (s == "D"), 2)
                    if (ins >= 1) != h:
                        continue
                    if h and (und or s == "U"):
                        continue
                    if weak and ins < 2:
                        continue
                    if s == "D" and ins < 2 and not inp:
                        continue
                    out[h] += ways
            table[(s, inp)] = out
        if parent[c] < 0:
            total = table[(None, False)][True] + table[(None, False)][False]
        g[c] = table
    return total


def expected_count(g: Skeleton):
    """The independently known count of ``g``, or None when only the brute
    oracle can give it."""
    n = len(g.vertices)
    kind = g.kind.rstrip("0123456789")
    if kind == "path":
        return path_count(n)
    if kind == "cycle":
        return cycle_count(n)
    if kind == "tree":
        return tree_count(g.edges, n)
    return PINNED.get(g.kind)

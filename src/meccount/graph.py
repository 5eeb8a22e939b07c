"""Labeled graphs with optional edge directions.

A :class:`Pdag` stores a finite set of labeled vertices and, for every
skeleton edge, one of three marks: undirected, or directed one way or the
other.  Internally the graph is a boolean matrix over the sorted labels in
which entry ``(i, j)`` records that the ordered pair ``(i, j)`` is present:
an undirected edge ``u - v`` contributes both ``(u, v)`` and ``(v, u)``,
while a directed edge ``u -> v`` contributes only ``(u, v)``.  All reachable
views (skeleton, undirected part, directed part) derive from that single
matrix.

Graphs are immutable after construction and hashable, so they can be used
as dictionary keys and shared freely.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphInputError, PreconditionError

Label = int | str
Edge = tuple[Label, Label]


def label_key(label: Label):
    """Total order over mixed int/str labels (ints before strs)."""
    return (label.__class__.__name__, label)


def _as_vertex_set(P: "Pdag", X) -> set:
    if isinstance(X, (int, str)):
        return {X}
    return set(X)


class Pdag:
    """A partially directed graph over labeled vertices."""

    __slots__ = ("_labels", "_index", "_adj")

    def __init__(
        self,
        vertices: Iterable[Label] = (),
        undirected: Iterable[Edge] = (),
        directed: Iterable[Edge] = (),
    ):
        undirected = list(undirected)
        directed = list(directed)
        labels: set = set(vertices)
        for u, v in undirected + directed:
            labels.add(u)
            labels.add(v)
        for lab in labels:
            if not isinstance(lab, (int, str)):
                raise GraphInputError(f"vertex label {lab!r} is not an int or str")
        self._labels: tuple[Label, ...] = tuple(sorted(labels, key=label_key))
        self._index: dict[Label, int] = {lab: i for i, lab in enumerate(self._labels)}
        n = len(self._labels)
        adj = np.zeros((n, n), dtype=bool)
        seen_pairs: set[frozenset] = set()
        for u, v in undirected + directed:
            if u == v:
                raise GraphInputError(f"self-loop on {u!r}")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise GraphInputError(f"parallel edge between {u!r} and {v!r}")
            seen_pairs.add(pair)
        for u, v in undirected:
            i, j = self._index[u], self._index[v]
            adj[i, j] = adj[j, i] = True
        for u, v in directed:
            adj[self._index[u], self._index[v]] = True
        adj.setflags(write=False)
        self._adj = adj

    @classmethod
    def _from_matrix(cls, labels: tuple[Label, ...], adj: np.ndarray) -> "Pdag":
        """Trusted constructor: ``labels`` sorted, ``adj`` loop-free (and
        symmetric for an :class:`UndirectedGraph`)."""
        self = object.__new__(cls)
        self._labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        if adj.flags.writeable:
            adj = adj.copy()
            adj.setflags(write=False)
        self._adj = adj
        return self

    # -- basic views ---------------------------------------------------

    @property
    def vertices(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self._labels)

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only ordered-pair matrix aligned with :attr:`vertices`."""
        return self._adj

    def has_vertex(self, v: Label) -> bool:
        return v in self._index

    def has_edge(self, u: Label, v: Label) -> bool:
        """True if the skeleton joins ``u`` and ``v``."""
        i, j = self._require(u), self._require(v)
        return bool(self._adj[i, j] or self._adj[j, i])

    def has_ordered_edge(self, u: Label, v: Label) -> bool:
        """True if the ordered pair ``(u, v)`` is present."""
        return bool(self._adj[self._require(u), self._require(v)])

    def has_directed(self, u: Label, v: Label) -> bool:
        i, j = self._require(u), self._require(v)
        return bool(self._adj[i, j] and not self._adj[j, i])

    def has_undirected(self, u: Label, v: Label) -> bool:
        i, j = self._require(u), self._require(v)
        return bool(self._adj[i, j] and self._adj[j, i])

    def ordered_edges(self) -> tuple[Edge, ...]:
        """All present ordered pairs, sorted; undirected edges appear twice."""
        ii, jj = np.nonzero(self._adj)
        return tuple(
            (self._labels[i], self._labels[j]) for i, j in zip(ii.tolist(), jj.tolist())
        )

    def undirected_edges(self) -> tuple[Edge, ...]:
        und = self._adj & self._adj.T
        ii, jj = np.nonzero(np.triu(und))
        return tuple(
            (self._labels[i], self._labels[j]) for i, j in zip(ii.tolist(), jj.tolist())
        )

    def directed_edges(self) -> tuple[Edge, ...]:
        d = self._adj & ~self._adj.T
        ii, jj = np.nonzero(d)
        return tuple(
            (self._labels[i], self._labels[j]) for i, j in zip(ii.tolist(), jj.tolist())
        )

    def skeleton_edges(self) -> tuple[Edge, ...]:
        sk = self._adj | self._adj.T
        ii, jj = np.nonzero(np.triu(sk))
        return tuple(
            (self._labels[i], self._labels[j]) for i, j in zip(ii.tolist(), jj.tolist())
        )

    def edge_count(self) -> int:
        return len(self.skeleton_edges())

    def is_fully_undirected(self) -> bool:
        return bool(np.array_equal(self._adj, self._adj.T))

    def is_fully_directed(self) -> bool:
        return not bool((self._adj & self._adj.T).any())

    # -- operations ----------------------------------------------------

    def induced_subgraph(self, S: Iterable[Label]) -> "Pdag":
        """Restriction to ``S``: vertices of ``S`` and all edges inside it."""
        sub = _as_vertex_set(self, S)
        unknown = sub - self._index.keys()
        if unknown:
            raise GraphInputError(f"unknown vertices {sorted(map(repr, unknown))}")
        keep = sorted(sub, key=label_key)
        idx = np.array([self._index[v] for v in keep], dtype=np.intp)
        adj = self._adj[np.ix_(idx, idx)].copy()
        return type(self)._from_matrix(tuple(keep), adj)

    def neighbors(self, X) -> frozenset:
        """Vertices adjacent (in the skeleton) to at least one member of X."""
        xs = _as_vertex_set(self, X)
        unknown = xs - self._index.keys()
        if unknown:
            raise GraphInputError(f"unknown vertices {sorted(map(repr, unknown))}")
        if not xs:
            return frozenset()
        idx = np.array([self._index[v] for v in xs], dtype=np.intp)
        sk = self._adj | self._adj.T
        hit = sk[idx].any(axis=0)
        return frozenset(self._labels[i] for i in np.nonzero(hit)[0].tolist())

    def neighbor_sets(self) -> dict:
        """The skeleton as a fresh set of neighbors per vertex."""
        nbrs: dict = {v: set() for v in self._labels}
        for u, v in self.skeleton_edges():
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def closed_neighborhood(self, X) -> frozenset:
        xs = _as_vertex_set(self, X)
        return frozenset(xs) | self.neighbors(xs)

    def undirected_components(self) -> tuple[frozenset, ...]:
        """Partition of the vertices into components of the undirected part.

        Isolated vertices and vertices touched only by directed edges form
        singleton components.  Components are sorted by their least label.
        """
        und = self._adj & self._adj.T
        return self._components_of(und)

    def components(self) -> tuple[frozenset, ...]:
        """Connected components of the skeleton."""
        return self._components_of(self._adj | self._adj.T)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def _components_of(self, rel: np.ndarray) -> tuple[frozenset, ...]:
        n = self.n
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in np.nonzero(rel[i])[0].tolist():
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
            comps.append(frozenset(self._labels[i] for i in comp))
        return tuple(sorted(comps, key=lambda c: min(map(label_key, c))))

    def skeleton(self) -> "UndirectedGraph":
        """Forget every direction mark."""
        sk = (self._adj | self._adj.T).copy()
        return UndirectedGraph._from_matrix(self._labels, sk)

    # -- dunder --------------------------------------------------------

    def _require(self, v: Label) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphInputError(f"unknown vertex {v!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pdag):
            return NotImplemented
        return self._labels == other._labels and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self._labels, self._adj.tobytes()))

    def __contains__(self, v: Label) -> bool:
        return v in self._index

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def __repr__(self) -> str:
        parts = [f"{u!r}--{v!r}" for u, v in self.undirected_edges()]
        parts += [f"{u!r}->{v!r}" for u, v in self.directed_edges()]
        iso = [
            repr(v)
            for v in self._labels
            if not (self._adj[self._index[v]].any() or self._adj[:, self._index[v]].any())
        ]
        body = ", ".join(parts + iso)
        return f"{type(self).__name__}({body})"


class UndirectedGraph(Pdag):
    """A graph in which every edge is undirected."""

    def __init__(self, vertices: Iterable[Label] = (), edges: Iterable[Edge] = ()):
        super().__init__(vertices=vertices, undirected=edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.undirected_edges()

    def lbfs_order(self) -> tuple[Label, ...]:
        """Lexicographic BFS visit order with least-label tie-breaks."""
        order: list[int] = []
        # Partition refinement: pick from the first class, then split every
        # class into (neighbors, non-neighbors) of the picked vertex.
        classes: list[list[int]] = [list(range(self.n))]
        sk = self._adj
        while classes:
            first = classes[0]
            i = min(first)
            first.remove(i)
            order.append(i)
            new_classes: list[list[int]] = []
            for cls_ in classes:
                if not cls_:
                    continue
                hits = [j for j in cls_ if sk[i, j]]
                misses = [j for j in cls_ if not sk[i, j]]
                if hits:
                    new_classes.append(hits)
                if misses:
                    new_classes.append(misses)
            classes = new_classes
        return tuple(self._labels[i] for i in order)

    def is_chordal(self) -> bool:
        """True when no chordless cycle of length four or more exists.

        Tests whether an LBFS order has the elimination property: every
        vertex's earlier-visited neighbors must form a clique.
        """
        order = self.lbfs_order()
        rank = {v: r for r, v in enumerate(order)}
        sk = self._adj
        for v in order:
            earlier = [u for u in self._labels if sk[self._index[u], self._index[v]] and rank[u] < rank[v]]
            if not earlier:
                continue
            w = max(earlier, key=lambda u: rank[u])
            wi = self._index[w]
            for u in earlier:
                if u != w and not sk[self._index[u], wi]:
                    return False
        return True


def _graph_on(labels: tuple, pairs) -> UndirectedGraph:
    """The graph on ``labels`` with an edge ``labels[i] - labels[k]`` for
    each index pair ``(i, k)`` of ``pairs``."""
    return UndirectedGraph(labels, [(labels[i], labels[k]) for i, k in pairs])


def markov_union(graphs: Sequence[Pdag]) -> Pdag:
    """Direction-preferring union of pairwise synchronous graphs.

    The result has the union of the vertex sets; a pair is directed
    ``u -> v`` whenever some input directs it that way, and undirected when
    present somewhere but directed nowhere.  Two inputs that direct the same
    pair opposite ways violate the precondition.
    """
    graphs = list(graphs)
    labels = sorted({v for g in graphs for v in g.vertices}, key=label_key)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    fwd = np.zeros((n, n), dtype=bool)   # directed u->v claimed by some input
    und = np.zeros((n, n), dtype=bool)
    for g in graphs:
        idx = np.array([index[v] for v in g.vertices], dtype=np.intp)
        a = g.adjacency
        d = a & ~a.T
        u = a & a.T
        for i, j in zip(*np.nonzero(d)):
            gi, gj = idx[i], idx[j]
            if fwd[gj, gi]:
                raise PreconditionError(
                    f"graphs disagree on the edge between {labels[gj]!r} and "
                    f"{labels[gi]!r}: directed both ways"
                )
            fwd[gi, gj] = True
        for i, j in zip(*np.nonzero(u)):
            und[idx[i], idx[j]] = True
    adj = fwd | (und & ~fwd & ~fwd.T)
    return Pdag._from_matrix(tuple(labels), adj)

"""Labeled graphs with optional edge directions.

A :class:`Pdag` stores a finite set of labeled vertices and, for every
skeleton edge, one of three marks: undirected, or directed one way or the
other.  Internally the graph is a tuple of integer bit rows over the sorted
labels, the encoding the enumeration kernels use: bit ``j`` of row ``i``
records that the ordered pair ``(i, j)`` is present.  An undirected edge
``u - v`` contributes both ``(u, v)`` and ``(v, u)``, while a directed edge
``u -> v`` contributes only ``(u, v)``.  All reachable views (skeleton,
undirected part, directed part) derive from those rows.

Graphs are immutable after construction and hashable, so they can be used
as dictionary keys and shared freely.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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


def _bits(x: int):
    """Positions of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        x ^= low
        yield low.bit_length() - 1


def _transpose(rows) -> list[int]:
    """The rows of the reversed relation: bit ``i`` of row ``j`` is set
    where bit ``j`` of row ``i`` is."""
    back = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            back[j] |= 1 << i
    return back


def _upper(rows) -> list[int]:
    """``rows`` with the bits ``j <= i`` of each row ``i`` cleared."""
    return [row >> i + 1 << i + 1 for i, row in enumerate(rows)]


class Pdag:
    """A partially directed graph over labeled vertices."""

    __slots__ = ("_labels", "_index", "_rows")

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
        seen_pairs: set[frozenset] = set()
        for u, v in undirected + directed:
            if u == v:
                raise GraphInputError(f"self-loop on {u!r}")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise GraphInputError(f"parallel edge between {u!r} and {v!r}")
            seen_pairs.add(pair)
        index = self._index
        rows = [0] * len(self._labels)
        for u, v in undirected:
            i, j = index[u], index[v]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        for u, v in directed:
            rows[index[u]] |= 1 << index[v]
        self._rows: tuple[int, ...] = tuple(rows)

    @classmethod
    def _from_rows(cls, labels: tuple[Label, ...], rows, index=None) -> "Pdag":
        """Trusted constructor: ``labels`` sorted (any order will do for a
        graph only queried by label or sliced), ``rows`` loop-free bit rows
        over them (symmetric for an :class:`UndirectedGraph`); ``index``, if
        given, is the label-to-position dict of ``labels``, shared, never mutated."""
        self = object.__new__(cls)
        self._labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)} if index is None else index
        self._rows = tuple(rows)
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

    def has_vertex(self, v: Label) -> bool:
        return v in self._index

    def has_edge(self, u: Label, v: Label) -> bool:
        """True if the skeleton joins ``u`` and ``v``."""
        i, j = self._require(u), self._require(v)
        return (self._rows[i] >> j | self._rows[j] >> i) & 1 == 1

    def has_ordered_edge(self, u: Label, v: Label) -> bool:
        """True if the ordered pair ``(u, v)`` is present."""
        i, j = self._require(u), self._require(v)
        return self._rows[i] >> j & 1 == 1

    def has_directed(self, u: Label, v: Label) -> bool:
        # the engine's side checks ask this for every shadow edge they
        # test, so the index lookups are inlined
        try:
            i, j = self._index[u], self._index[v]
        except KeyError:
            raise GraphInputError(f"unknown vertex {v if u in self else u!r}") from None
        return self._rows[i] >> j & 1 == 1 and self._rows[j] >> i & 1 == 0

    def has_undirected(self, u: Label, v: Label) -> bool:
        i, j = self._require(u), self._require(v)
        return self._rows[i] >> j & self._rows[j] >> i & 1 == 1

    def _edges_of(self, rows) -> tuple[Edge, ...]:
        """The label pairs of the set bits of ``rows``, sorted by index."""
        labels = self._labels
        return tuple((labels[i], labels[j]) for i, row in enumerate(rows) for j in _bits(row))

    def _skeleton_rows(self) -> list[int]:
        """The skeleton's rows: each edge present both ways."""
        return [row | col for row, col in zip(self._rows, _transpose(self._rows))]

    def ordered_edges(self) -> tuple[Edge, ...]:
        """All present ordered pairs, sorted; undirected edges appear twice."""
        return self._edges_of(self._rows)

    def undirected_edges(self) -> tuple[Edge, ...]:
        back = _transpose(self._rows)
        return self._edges_of(_upper([row & col for row, col in zip(self._rows, back)]))

    def directed_edges(self) -> tuple[Edge, ...]:
        back = _transpose(self._rows)
        return self._edges_of([row & ~col for row, col in zip(self._rows, back)])

    def skeleton_edges(self) -> tuple[Edge, ...]:
        return self._edges_of(_upper(self._skeleton_rows()))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._skeleton_rows()) // 2

    def is_fully_undirected(self) -> bool:
        return list(self._rows) == _transpose(self._rows)

    def is_fully_directed(self) -> bool:
        back = _transpose(self._rows)
        return not any(row & col for row, col in zip(self._rows, back))

    # -- operations ----------------------------------------------------

    def induced_subgraph(self, S: Iterable[Label]) -> "Pdag":
        """Restriction to ``S``: vertices of ``S`` and all edges inside it."""
        sub = _as_vertex_set(self, S)
        unknown = sub - self._index.keys()
        if unknown:
            raise GraphInputError(f"unknown vertices {sorted(map(repr, unknown))}")
        keep = sorted(sub, key=label_key)
        at = {self._index[v]: k for k, v in enumerate(keep)}
        mask = sum(1 << i for i in at)
        rows = [sum(1 << at[j] for j in _bits(self._rows[i] & mask)) for i in at]
        return type(self)._from_rows(tuple(keep), rows)

    def neighbors(self, X) -> frozenset:
        """Vertices adjacent (in the skeleton) to at least one member of X."""
        xs = _as_vertex_set(self, X)
        unknown = xs - self._index.keys()
        if unknown:
            raise GraphInputError(f"unknown vertices {sorted(map(repr, unknown))}")
        if not xs:
            return frozenset()
        sk = self._skeleton_rows()
        hit = 0
        for v in xs:
            hit |= sk[self._index[v]]
        return frozenset(self._labels[i] for i in _bits(hit))

    def neighbor_sets(self) -> dict:
        """The skeleton as a fresh set of neighbors per vertex."""
        labels = self._labels
        return {
            v: {labels[j] for j in _bits(row)} for v, row in zip(labels, self._skeleton_rows())
        }

    def closed_neighborhood(self, X) -> frozenset:
        xs = _as_vertex_set(self, X)
        return frozenset(xs) | self.neighbors(xs)

    def undirected_components(self) -> tuple[frozenset, ...]:
        """Partition of the vertices into components of the undirected part.

        Isolated vertices and vertices touched only by directed edges form
        singleton components.  Components are sorted by their least label.
        """
        back = _transpose(self._rows)
        return self._components_of([row & col for row, col in zip(self._rows, back)])

    def components(self) -> tuple[frozenset, ...]:
        """Connected components of the skeleton."""
        return self._components_of(self._skeleton_rows())

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def _components_of(self, rel) -> tuple[frozenset, ...]:
        # each search starts from the least vertex not yet reached, so the
        # components come out sorted by their least label
        seen = 0
        comps = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            stack = [start]
            while stack:
                new = rel[stack.pop()] & ~comp
                comp |= new
                stack.extend(_bits(new))
            seen |= comp
            comps.append(frozenset(self._labels[i] for i in _bits(comp)))
        return tuple(comps)

    def skeleton(self) -> "UndirectedGraph":
        """Forget every direction mark."""
        return UndirectedGraph._from_rows(self._labels, self._skeleton_rows())

    # -- dunder --------------------------------------------------------

    def _require(self, v: Label) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphInputError(f"unknown vertex {v!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pdag):
            return NotImplemented
        return self._labels == other._labels and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._labels, self._rows))

    def __contains__(self, v: Label) -> bool:
        return v in self._index

    def __iter__(self) -> Iterator[Label]:
        return iter(self._labels)

    def __repr__(self) -> str:
        parts = [f"{u!r}--{v!r}" for u, v in self.undirected_edges()]
        parts += [f"{u!r}->{v!r}" for u, v in self.directed_edges()]
        iso = [repr(v) for v, row in zip(self._labels, self._skeleton_rows()) if not row]
        body = ", ".join(parts + iso)
        return f"{type(self).__name__}({body})"


class UndirectedGraph(Pdag):
    """A graph in which every edge is undirected."""

    def __init__(self, vertices: Iterable[Label] = (), edges: Iterable[Edge] = ()):
        super().__init__(vertices=vertices, undirected=edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.undirected_edges()

    def _skeleton_rows(self) -> list[int]:
        # the rows of an undirected graph are symmetric
        return list(self._rows)

    def is_fully_undirected(self) -> bool:
        return True  # symmetric rows, as above

    def lbfs_order(self) -> tuple[Label, ...]:
        """Lexicographic BFS visit order with least-label tie-breaks."""
        order: list[int] = []
        # Partition refinement: pick from the first class, then split every
        # class into (neighbors, non-neighbors) of the picked vertex.
        classes: list[list[int]] = [list(range(self.n))]
        sk = self._rows
        while classes:
            first = classes[0]
            i = min(first)
            first.remove(i)
            order.append(i)
            new_classes: list[list[int]] = []
            for cls_ in classes:
                if not cls_:
                    continue
                hits = [j for j in cls_ if sk[i] >> j & 1]
                misses = [j for j in cls_ if not sk[i] >> j & 1]
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
        labels, sk, index = self._labels, self._rows, self._index
        for v in order:
            earlier = [labels[j] for j in _bits(sk[index[v]]) if rank[labels[j]] < rank[v]]
            if not earlier:
                continue
            w = max(earlier, key=lambda u: rank[u])
            wi = index[w]
            for u in earlier:
                if u != w and not sk[index[u]] >> wi & 1:
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
    labels = tuple(sorted({v for g in graphs for v in g.vertices}, key=label_key))
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    fwd = [0] * n  # directed u->v claimed by some input
    und = [0] * n
    for g in graphs:
        idx = [index[v] for v in g.vertices]
        rows = g._rows
        for i, row in enumerate(rows):
            gi = idx[i]
            for j in _bits(row):
                gj = idx[j]
                if rows[j] >> i & 1:
                    und[gi] |= 1 << gj
                elif fwd[gj] >> gi & 1:
                    raise PreconditionError(
                        f"graphs disagree on the edge between {labels[gj]!r} and "
                        f"{labels[gi]!r}: directed both ways"
                    )
                else:
                    fwd[gi] |= 1 << gj
    back = _transpose(fwd)
    return Pdag._from_rows(labels, [f | u & ~f & ~b for f, u, b in zip(fwd, und, back)])

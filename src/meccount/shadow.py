"""Boundary summaries of MECs.

A shadow is an induced boundary graph together with the triangle-free-path
reachability of the host graph restricted to that boundary.  Two classes
with the same shadow on a separator boundary are indistinguishable to the
recursion, which is what makes the sparse counting tables sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from . import _kernels
from .errors import GraphInputError, PreconditionError
from .graph import Pdag, UndirectedGraph
from .mecrules import (
    _check_edge_cap,
    _code_of_pdag,
    _code_rows,
    _encode_on,
    _pdag_on,
    _require_undirected,
    _skeleton_pairs,
    is_mec,
    is_partial_mec,
)
from .tfp import TfpTable, _closed_rows, _matrices_to_table, tfp_table

DEFAULT_MARK_ENUM_CAP = 20  # max boundary edges for three-way mark enumeration


@dataclass(frozen=True)
class Shadow:
    """A boundary graph plus its long-range reachability table."""

    o: Pdag
    table: TfpTable

    def __post_init__(self):
        if not is_partial_mec(self.o):
            raise PreconditionError("shadow boundary graph must be a partial MEC")
        self._check_domains()

    def _check_domains(self):
        edges = set(self.o.ordered_edges())
        verts = self.o.vertex_set
        for e, f in self.table.p1:
            if e not in edges or f not in edges:
                raise GraphInputError(f"p1 entry {(e, f)!r} outside the boundary graph")
        for e, w in self.table.p2:
            if e not in edges or w not in verts:
                raise GraphInputError(f"p2 entry {(e, w)!r} outside the boundary graph")

    @classmethod
    def _trusted(cls, o: Pdag, table: TfpTable) -> "Shadow":
        self = object.__new__(cls)
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "table", table)
        return self


class ShadowTable:
    """Sparse map from boundary shadows to positive class counts.

    ``domain`` is the boundary graph all shadows must live on; a shadow that
    never got an entry counts zero.  Inside, a shadow is the integer key
    ``(code, p1, p2)`` over a frame graph holding the domain as an induced
    subgraph (the domain itself in a table made from a graph; the counting
    engine's glued tables keep the cut's a-graph), its vertices in any
    order (label order in a table made from a graph, the fold's ranking in
    the engine's): ``code`` has the shadow's marks as trits at the frame's
    skeleton-edge positions ``pairs`` (see ``mecrules._code_rows``), and
    ``p1[t]``, ``p2[t]`` are the path-table rows of the domain's ordered
    pair ``slots[t]``, as bits over the frame's ordered-pair slots and
    vertices (see ``tfp``).  The counting engine files classes under the
    keys of their codes and rows; shadows are encoded and decoded only
    where this class takes or hands them out.

    The frame is held as its ``labels`` and skeleton index ``pairs``, the
    domain as the frame positions ``inside``; the engine makes its tables
    from those alone, and builds no graph for them: the ``domain`` graph is
    built only where something reads it.
    """

    def __init__(self, domain: Pdag):
        self._place(domain.vertices, _skeleton_pairs(domain), tuple(range(domain.n)))
        self.domain = domain

    @classmethod
    def _on_labels(cls, labels: tuple, pairs, inside=None) -> "ShadowTable":
        """An empty table whose frame has the ``labels``, in any order, and
        the skeleton index ``pairs`` over them (ascending), and whose domain
        holds the frame's vertices at the ascending positions ``inside``
        (all of them unless given).  The domain graph is built only if
        something reads it."""
        self = object.__new__(cls)
        self._place(labels, pairs, tuple(range(len(labels))) if inside is None else inside)
        return self

    def _place(self, labels, pairs, inside) -> None:
        self.labels, self.pairs, self.inside = labels, tuple(pairs), inside
        n = len(labels)
        vmask = sum(1 << f for f in inside)
        # the domain's skeleton edges as (frame position, frame pair)
        self.edges = tuple(
            (j, i, k) for j, (i, k) in enumerate(self.pairs) if vmask >> i & 1 and vmask >> k & 1
        )
        self.slots = tuple(s for _, i, k in self.edges for s in (i * n + k, k * n + i))
        self._masks = (
            sum(3 << 2 * j for j, _, _ in self.edges),
            sum(1 << s for s in self.slots),
            vmask,
        )
        self.entries: dict[tuple, int] = {}

    @cached_property
    def domain(self) -> Pdag:
        return UndirectedGraph(*self._skeleton)

    def _key(self, code: int, p1, p2) -> tuple:
        """The key of the shadow on the domain of a graph on the frame: its
        trit ``code``, and its rows ``p1[s]``, ``p2[s]`` for every frame slot
        ``s``.  Whatever lies outside the domain is dropped."""
        tmask, smask, vmask = self._masks
        return (
            code & tmask,
            tuple([p1[s] & smask for s in self.slots]),
            tuple([p2[s] & vmask for s in self.slots]),
        )

    def add_class(self, code: int, k: int = 1) -> None:
        """Count ``k`` more classes whose graph is the whole frame marked by
        ``code``, with its own path table."""
        n, pairs = len(self.labels), self.pairs
        _, p1, p2, _ = _closed_rows(n, _code_rows(n, pairs, code), _code_rows(n, pairs, 0))
        key = self._key(code, p1, p2)
        self.entries[key] = self.entries.get(key, 0) + k

    @cached_property
    def _skeleton(self) -> tuple:
        """The domain's labels and skeleton edges, in frame order."""
        labels = self.labels
        return (
            tuple(labels[f] for f in self.inside),
            tuple((labels[i], labels[k]) for _, i, k in self.edges),
        )

    def _on_domain(self, s: Shadow) -> bool:
        return s.o.skeleton() == self.domain.skeleton()

    def _key_of(self, s: Shadow) -> tuple:
        labels, n = self.labels, len(self.labels)
        fi = {v: i for i, v in enumerate(labels)}
        p1, p2 = [0] * (n * n), [0] * (n * n)
        for (a, b), (c, d) in s.table.p1:
            p1[fi[a] * n + fi[b]] |= 1 << fi[c] * n + fi[d]
        for (a, b), w in s.table.p2:
            p2[fi[a] * n + fi[b]] |= 1 << fi[w]
        return self._key(_code_of_pdag(s.o, labels, self.edges), p1, p2)

    def _shadow(self, key: tuple) -> Shadow:
        code, p1, p2 = key
        o = _pdag_on(self.labels, self.pairs, code).induced_subgraph(self.domain.vertices)
        return Shadow._trusted(o, _matrices_to_table(self.labels, self.slots, p1, p2))

    def add(self, s: Shadow, k: int) -> None:
        if k < 0:
            raise ValueError("counts are nonnegative")
        if k == 0:
            return
        if not self._on_domain(s):
            raise GraphInputError("shadow lives on a different boundary graph")
        key = self._key_of(s)
        self.entries[key] = self.entries.get(key, 0) + k

    def count(self, s: Shadow) -> int:
        return self.entries.get(self._key_of(s), 0) if self._on_domain(s) else 0

    def items(self) -> list[tuple[Shadow, int]]:
        return [(self._shadow(key), k) for key, k in self.entries.items()]

    def total(self) -> int:
        return sum(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Shadow]:
        return (self._shadow(key) for key in self.entries)


def shadow_of_mec(M: Pdag, Y) -> Shadow:
    """The shadow of the MEC graph ``M`` on the vertex set ``Y``.

    The boundary graph is ``M[Y]``; the reachability entries are those of
    the whole host ``M`` whose endpoints survive on the boundary, so they
    record paths that leave ``Y`` and come back.
    """
    if not is_mec(M):
        raise PreconditionError("shadow extraction requires an MEC graph")
    Y = set(Y) if not isinstance(Y, (int, str)) else {Y}
    unknown = Y - M.vertex_set
    if unknown:
        raise GraphInputError(f"unknown vertices {sorted(map(repr, unknown))}")
    o = M.induced_subgraph(Y)
    table = tfp_table(M).restrict(set(o.ordered_edges()), Y)
    return Shadow._trusted(o, table)


def project_shadow(s: Shadow, X) -> Shadow:
    """Forget everything outside ``X``: boundary and entries restricted."""
    X = set(X) if not isinstance(X, (int, str)) else {X}
    unknown = X - s.o.vertex_set
    if unknown:
        raise GraphInputError(f"unknown vertices {sorted(map(repr, unknown))}")
    o = s.o.induced_subgraph(X)
    table = s.table.restrict(set(o.ordered_edges()), X)
    return Shadow._trusted(o, table)


def partial_mec_codes(U: Pdag) -> list:
    """Every partial MEC with skeleton ``U`` as the kernel gives it: pairs
    ``(code, protected)``, the trit code over ``U.skeleton_edges()`` in
    order and the bitmask of the strongly protected directed edges."""
    _require_undirected(U)
    return _partial_mec_codes_on(U.n, _skeleton_pairs(U))


def _partial_mec_codes_on(n: int, pairs) -> list:
    """:func:`partial_mec_codes` of the skeleton on ``n`` vertices whose
    edges are the index ``pairs``, in trit-code order."""
    n, eu, ev, skel, pairs = _encode_on(n, pairs)
    _check_edge_cap(len(pairs), DEFAULT_MARK_ENUM_CAP, "mark")
    return _kernels.mark_codes(n, eu, ev, skel, False)


def enumerate_partial_mecs(U: Pdag) -> Iterator[Pdag]:
    """Every partial MEC with skeleton ``U``, once each, deterministic order."""
    pairs = _skeleton_pairs(U)
    for code, _ in partial_mec_codes(U):
        yield _pdag_on(U.vertices, pairs, code)


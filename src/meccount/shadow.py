"""Boundary summaries of MECs.

A shadow is an induced boundary graph together with the triangle-free-path
reachability of the host graph restricted to that boundary.  Two classes
with the same shadow on a separator boundary are indistinguishable to the
recursion, which is what makes the sparse counting tables sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _kernels
from .errors import GraphInputError, PreconditionError
from .graph import Pdag, label_key
from .mecrules import (
    _check_edge_cap,
    _encode,
    _pdag_from_code,
    _require_undirected,
    is_mec,
    is_partial_mec,
)
from .tfp import TfpTable, tfp_table

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

    @property
    def key(self) -> bytes:
        return shadow_key(self)


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


def partial_mec_codes(U: Pdag, *, max_edges: int = DEFAULT_MARK_ENUM_CAP) -> list:
    """Every partial MEC with skeleton ``U`` as the kernel gives it: rows
    ``[code, protected]``, the trit code over ``U.skeleton_edges()`` in
    order and the bitmask of the strongly protected directed edges."""
    _require_undirected(U)
    n, eu, ev, skel, pairs = _encode(U)
    _check_edge_cap(len(pairs), max_edges, "mark")
    return _kernels.mark_codes(n, eu, ev, skel, False).tolist()


def enumerate_partial_mecs(
    U: Pdag, *, max_edges: int = DEFAULT_MARK_ENUM_CAP
) -> Iterator[Pdag]:
    """Every partial MEC with skeleton ``U``, once each, deterministic order."""
    pairs = _encode(U)[4]
    for code, _ in partial_mec_codes(U, max_edges=max_edges):
        yield _pdag_from_code(U, pairs, code)


def shadow_key(s: Shadow) -> bytes:
    """Canonical byte encoding: equal shadows, equal keys, and conversely.

    Stable across runs and platforms (plain sorted-tuple repr, no hashing).
    """
    o = s.o
    verts = tuple(label_key(v) for v in o.vertices)
    marks = []
    for u, v in o.skeleton_edges():
        if o.has_undirected(u, v):
            marks.append((label_key(u), label_key(v), "-"))
        elif o.has_directed(u, v):
            marks.append((label_key(u), label_key(v), ">"))
        else:
            marks.append((label_key(u), label_key(v), "<"))
    p1 = sorted(
        ((label_key(a), label_key(b)), (label_key(x), label_key(y)))
        for (a, b), (x, y) in s.table.p1
    )
    p2 = sorted(((label_key(a), label_key(b)), label_key(w)) for (a, b), w in s.table.p2)
    return repr((verts, tuple(marks), tuple(p1), tuple(p2))).encode()

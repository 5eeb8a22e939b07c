"""Constructive gluing of two MECs through an accepted boundary graph.

This is the executable form of the sufficiency argument behind the
extension test: starting from the direction-preferring union of the two
halves and the boundary, each undirected component is swept in a modified
lexicographic BFS order and the forced orientations are applied.  The
result is the unique MEC inducing the boundary whose projections are the
two inputs, which the acceptance suite verifies wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError, InternalInvariantError, PreconditionError
from .extension import DecompositionContext
from .graph import Label, Pdag, UndirectedGraph, label_key, markov_union
from .mecrules import is_mec, v_structures
from .tfp import is_canonical_source, tfp_table


@dataclass(frozen=True)
class VertexOrdering:
    """An injective ranking of a vertex subset, ranks 1..n in visit order."""

    order: tuple[Label, ...]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise GraphInputError("ordering repeats a vertex")

    @property
    def ranks(self) -> dict[Label, int]:
        return {v: r + 1 for r, v in enumerate(self.order)}

    def rank(self, v: Label) -> int:
        try:
            return self.order.index(v) + 1
        except ValueError:
            raise GraphInputError(f"{v!r} is not in the ordering") from None


def lbfs_with_o(C: UndirectedGraph, O: Pdag) -> VertexOrdering:
    """Lexicographic BFS of ``C`` that never contradicts ``O``.

    Standard partition refinement, except the vertex taken from the first
    class is a canonical source of the direction-preferring union of ``C``
    and ``O`` restricted to that class (smallest label among candidates).
    The output visits earlier neighbors as cliques (an elimination order of
    the chordal ``C``) and ranks tails before heads of ``O``'s directed
    edges inside ``C``.
    """
    if not C.is_fully_undirected():
        raise GraphInputError("component graph must be undirected")
    if not C.is_connected():
        raise GraphInputError("component graph must be connected")
    if not C.skeleton().is_chordal():
        raise PreconditionError("component graph must be chordal")
    um = markov_union([C, O])
    classes: list[list[Label]] = [sorted(C.vertices, key=label_key)]
    order: list[Label] = []
    while classes:
        first = classes[0]
        restricted = um.induced_subgraph(set(first))
        pick = None
        for cand in first:
            if is_canonical_source(restricted, cand):
                pick = cand
                break
        if pick is None:
            raise InternalInvariantError(
                "no canonical source vertex in the first class; the inputs "
                "violate the gluing contract"
            )
        first.remove(pick)
        order.append(pick)
        nbrs = C.neighbors(pick)
        new_classes: list[list[Label]] = []
        for cls_ in classes:
            if not cls_:
                continue
            hits = [x for x in cls_ if x in nbrs]
            misses = [x for x in cls_ if x not in nbrs]
            if hits:
                new_classes.append(hits)
            if misses:
                new_classes.append(misses)
        classes = new_classes
    return VertexOrdering(order=tuple(order))


def construct_mec(
    ctx: DecompositionContext, M1: Pdag, M2: Pdag, O: Pdag
) -> Pdag:
    """Glue the MECs of the two halves through the boundary graph ``O``.

    Requires ``O`` to be an extension of the two boundary shadows (checked
    by the caller via the extension test).  Starts from the
    direction-preferring union of ``M1``, ``M2`` and ``O``; then, per
    undirected component of each half, sweeps the modified LBFS order and
    orients ``u_b -> u_a`` whenever an already-directed edge forces it
    through an induced two-path or a triangle.
    """
    for M, side in ((M1, 1), (M2, 2)):
        half = ctx.half1 if side == 1 else ctx.half2
        if M.skeleton() != half:
            raise PreconditionError(f"half-{side} input has the wrong skeleton")
        if not is_mec(M):
            raise PreconditionError(f"half-{side} input is not an MEC graph")
    merged = markov_union([M1, M2, O])
    labels = merged.vertices
    index = merged._index
    adj = list(merged._rows)

    for M in (M1, M2):
        for comp in M.undirected_components():
            comp_graph = M.induced_subgraph(comp).skeleton()
            tau = lbfs_with_o(comp_graph, O)
            u = tau.order
            cadj = comp_graph._rows
            cidx = comp_graph._index
            size = len(u)
            for a in range(2, size + 1):
                for b in range(a - 1, 0, -1):
                    ua, ub = u[a - 1], u[b - 1]
                    ia, ib = index[ua], index[ub]
                    if not (adj[ib] >> ia & 1 and adj[ia] >> ib & 1):
                        continue  # needs a currently undirected ub - ua
                    if not cadj[cidx[ub]] >> cidx[ua] & 1:
                        continue
                    orient = False
                    for c in range(1, b):
                        uc = u[c - 1]
                        ic = index[uc]
                        if (
                            cadj[cidx[uc]] >> cidx[ub] & 1
                            and not cadj[cidx[uc]] >> cidx[ua] & 1
                            and adj[ic] >> ib & 1
                            and not adj[ib] >> ic & 1
                        ):
                            orient = True
                            break
                    if not orient:
                        for c in range(b + 1, a):
                            uc = u[c - 1]
                            ic = index[uc]
                            if (
                                cadj[cidx[ub]] >> cidx[uc] & 1
                                and cadj[cidx[uc]] >> cidx[ua] & 1
                                and adj[ib] >> ic & 1
                                and not adj[ic] >> ib & 1
                                and adj[ic] >> ia & 1
                                and not adj[ia] >> ic & 1
                            ):
                                orient = True
                                break
                    if orient:
                        adj[ia] &= ~(1 << ib)
    return Pdag._from_rows(labels, adj)


def verify_merge(
    M: Pdag, ctx: DecompositionContext, M1: Pdag, M2: Pdag, O: Pdag
) -> bool:
    """Post-conditions of a glue: MEC over the host skeleton, inducing the
    boundary, projecting onto both halves, with an antisymmetric path table."""
    if not is_mec(M):
        return False
    if M.skeleton() != ctx.h:
        return False
    if M.induced_subgraph(O.vertex_set) != O:
        return False
    if v_structures(M.induced_subgraph(ctx.h1)) != v_structures(M1):
        return False
    if v_structures(M.induced_subgraph(ctx.h2)) != v_structures(M2):
        return False
    table = tfp_table(M)
    return not any((f, e) in table.p1 for e, f in table.p1)

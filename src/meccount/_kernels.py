"""Hot enumeration kernels.

The brute-force layers spend essentially all of their time enumerating edge
orientations (up to 2^m of them) or three-way edge marks (up to 3^m) over
small dense graphs.  Those loops live here, written against flat integer
rows and neighbour bitmasks on Python ints and lists, where a shift or mask
costs several times less than on NumPy scalars.  Python ints have no fixed
width, so the kernels set no ceiling on vertices or edges; the callers'
edge caps stop a sweep before its exponential cost starts.

Graph encoding shared by every kernel:

* ``n`` vertices indexed ``0..n-1``,
* skeleton edges as parallel lists ``eu``/``ev`` (``m`` edges),
* ``skel`` as bitmask rows (bit ``j`` of ``skel[i]`` = edge ``i~j``).

Orientations are encoded as ``m``-bit masks (bit ``j`` set means the edge is
directed ``eu[j] -> ev[j]``).  Three-way marks are "trit codes": two bits
per edge, ``0`` undirected, ``1`` for ``eu->ev``, ``2`` for ``ev->eu``.

Both searches decide one edge per depth and keep the partial graph as
bitmask rows, set on a push and cleared on a pop.  ``acyclic_masks`` keeps
only the decided out-rows and tests a new edge ``t -> h`` by walking them
from ``h``, so a push or a pop costs one bit operation.  ``mark_codes``
also keeps, per depth ``d``, a row per vertex of what it reaches under the
first ``d`` marks, packed into one int of ``n + 1``-bit blocks whose top
bit is a guard that stops carries, so a push updates every row with a few
integer operations.  It relies on every partial graph it keeps being a
chain graph: there, two vertices share an undirected component exactly
when each reaches the other, so its reach rows also answer the component
question.
It decides each directed edge's protection at the depth where the last
edge touching either endpoint is marked (only chordality waits for the
leaves), so the filter search cuts an unprotected arc there; a caller that
only counts can pick an edge order that puts those depths near the root.
The protection test and the flag tests read ``far[v]``, the vertices
neither ``v`` nor adjacent to it.
"""

from __future__ import annotations

# read by perfbench's environment stamp
HAVE_NUMBA = False


def current_backend() -> str:
    # read by perfbench's environment stamp
    return "python"


def chordal_bits(n: int, und) -> bool:
    """Is the graph on undirected bitmask rows ``und`` chordal?"""
    # maximum-cardinality search order, then the elimination check: each
    # vertex's earlier neighbors minus the latest one must all be adjacent
    # to that latest one.  A chordless cycle needs four vertices with two
    # undirected neighbours each, so fewer accept at once.
    branching = 0
    for i in range(n):
        if und[i] & (und[i] - 1):
            branching += 1
    if branching < 4:
        return True
    order = [0] * n
    pos = [0] * n
    wt = [0] * n
    visited = 0
    for step in range(n):
        best = -1
        bw = -1
        for i in range(n):
            if not (visited >> i) & 1 and wt[i] > bw:
                best = i
                bw = wt[i]
        order[step] = best
        pos[best] = step
        visited |= 1 << best
        nb = und[best]
        for j in range(n):
            if (nb >> j) & 1 and not (visited >> j) & 1:
                wt[j] += 1
    placed = 0
    for step in range(n):
        v = order[step]
        earlier = und[v] & placed
        placed |= 1 << v
        if earlier == 0:
            continue
        u = -1
        up = -1
        for i in range(n):
            if (earlier >> i) & 1 and pos[i] > up:
                u = i
                up = pos[i]
        rest = earlier & ~(1 << u)
        if rest & ~und[u]:
            return False
    return True


def acyclic_masks(n: int, eu, ev, lo: int, hi: int) -> list[int]:
    """Orientation masks in ``[lo, hi)`` whose digraph is acyclic, ascending."""
    # depth-first search that decides edges from the highest bit down, 0
    # before 1, so the masks come out ascending.  out[v] holds the decided
    # edges out of v.  A branch is cut when its prefix leaves [lo, hi) or
    # its new edge t -> h closes a cycle, that is, when a walk over the
    # decided edges from h reaches t.
    m = len(eu)
    out = [0] * n
    trial = [0] * (m + 1)
    masks = []
    mask = 0
    d = 0
    while True:
        if d < m and trial[d] < 2:
            b = trial[d]
            trial[d] = b + 1
            j = m - 1 - d
            mask = ((mask >> (j + 1) << 1) | b) << j
            if mask >= hi or mask + (1 << j) <= lo:
                continue
            if b:
                t, h = eu[j], ev[j]
            else:
                t, h = ev[j], eu[j]
            front = out[h]
            seen = front | 1 << h
            while front and not (front >> t) & 1:
                low = front & -front
                front ^= low
                new = out[low.bit_length() - 1] & ~seen
                seen |= new
                front |= new
            if front:
                continue  # h reaches t
            out[t] |= 1 << h
            d += 1
            trial[d] = 0
            continue
        if d == m and lo <= mask < hi:
            masks.append(mask)
        d -= 1
        if d < 0:
            break
        # undo the edge kept at depth d, the last one tried there
        j = m - 1 - d
        if trial[d] == 2:
            out[eu[j]] ^= 1 << ev[j]
        else:
            out[ev[j]] ^= 1 << eu[j]
    return masks


def collider_words(masks, e1, w1, e2, w2) -> list[int]:
    """Per-mask fingerprints of the realized potential-collider triples: bit
    ``i`` of a mask's int is set when triple ``i`` is a collider under it,
    that is, when edge ``e1[i]`` has direction bit ``w1[i]`` and edge
    ``e2[i]`` has ``w2[i]``."""
    tests = [
        ((1 << a) | (1 << c), (wa << a) | (wc << c), 1 << i)
        for i, (a, wa, c, wc) in enumerate(zip(e1, w1, e2, w2))
    ]
    out = []
    for mask in masks:
        word = 0
        for sel, want, bit in tests:
            if mask & sel == want:
                word |= bit
        out.append(word)
    return out


def far_rows(n: int, skel) -> list[int]:
    """``far[v]``, the set of vertices neither ``v`` nor adjacent to it, of
    the skeleton on bitmask rows ``skel``."""
    full = (1 << n) - 1
    return [full ^ (row | 1 << v) for v, row in enumerate(skel)]


def protected(x: int, y: int, far, und, out, inb) -> bool:
    """Is ``x -> y`` strongly protected?  ``far`` is :func:`far_rows` of
    the skeleton; ``und``/``out``/``inb`` are the undirected, outgoing and
    incoming bitmask rows."""
    if inb[x] & far[y]:
        return True  # w -> x -> y with w, y non-adjacent
    if inb[y] & far[x]:
        return True  # x -> y <- w with x, w non-adjacent
    if out[x] & inb[y]:
        return True  # x -> w -> y alongside x -> y
    cand = und[x] & inb[y]
    while cand:
        low = cand & -cand
        cand ^= low
        if cand & far[low.bit_length() - 1]:
            return True  # w - x - w' with w -> y, w' -> y, w, w' non-adj
    return False


def mark_codes(n: int, eu, ev, skel, require_protection: bool) -> list[tuple[int, int]]:
    """All valid three-way mark assignments (see module doc), one pair
    ``(code, protected)`` each: the trit code and the bitmask of its
    strongly protected directed edges (bit ``j`` for edge ``j``)."""
    # depth-first enumeration of edge-mark assignments that give a chain
    # graph with chordal undirected components and no induced x->y-w; with
    # require_protection also every directed edge protected.  A mark is cut
    # as soon as the assigned part alone certifies a violation; chordality
    # is decided at the leaves.  Whether x -> y is protected depends only on
    # the marks of edges at x or y, and a witness never disappears, so it is
    # final once the last of those is marked: due[d] lists the edges whose
    # last one is edge d, and a kept mark tests them and ORs the answers into
    # prot[d + 1] (an unprotected arc cuts the branch with require_protection).
    #
    # Every partial graph the search keeps is a chain graph (no cycle
    # through a directed edge), and block v of reach[d] is the set of
    # vertices v reaches under the first d marks, along directed edges
    # forwards and undirected edges either way, v included.  In a chain
    # graph a forward path within an undirected component has no directed
    # edge (it would close a cycle with the way back), and one between two
    # components has one; so u and v share a component exactly when each
    # reaches the other.  Hence x -> y closes a cycle exactly when y
    # reaches x, and u - v exactly when one of u, v reaches the other but
    # not back.  A kept mark fills depth d + 1: whoever reaches its tail
    # (x, or u or v) now reaches what its head reaches (y's row, or u's and
    # v's together).
    # reach[d] packs its n rows into one int, row v at bit v * (n + 1),
    # each block's top bit a guard kept clear: adding all-ones to each
    # row's meet with the tail carries into the guards of exactly the rows
    # that meet it, and hit - (hit >> n) widens those guards into their
    # rows' masks.  und/out/inb are undone when the search backs up.
    m = len(eu)
    far = far_rows(n, skel)
    last = {w: j for j in range(m) for w in (eu[j], ev[j])}
    due = [[] for _ in range(m)]
    for j in range(m):
        due[max(last[eu[j]], last[ev[j]])].append((2 * j, eu[j], ev[j]))
    trial = [0] * (m + 1)
    code = [0] * (m + 1)
    prot = [0] * (m + 1)
    und = [0] * n
    out = [0] * n
    inb = [0] * n
    blk = n + 1
    ones = sum(1 << v * blk for v in range(n))  # bit 0 of every block
    full = (1 << n) - 1
    fulls = full * ones
    guards = fulls + ones  # bit n of every block
    reach = [0] * (m + 1)
    reach[0] = sum(1 << v * blk + v for v in range(n))
    codes = []
    d = 0
    while True:
        if d < m and trial[d] < 3:
            t = trial[d]
            trial[d] = t + 1
            u, v = eu[d], ev[d]
            if t == 0:
                if inb[u] & far[v] or inb[v] & far[u]:
                    continue
                r = reach[d]
                ru = r >> u * blk & full
                rv = r >> v * blk & full
                if ((ru >> v) ^ (rv >> u)) & 1:
                    continue
                tail = (1 << u) | (1 << v)
                head = ru | rv
                und[u] |= 1 << v
                und[v] |= 1 << u
            else:
                x, y = (u, v) if t == 1 else (v, u)
                if und[y] & far[x]:
                    continue
                r = reach[d]
                head = r >> y * blk & full
                if (head >> x) & 1:
                    continue
                tail = 1 << x
                out[x] |= 1 << y
                inb[y] |= 1 << x
            c = code[d] | t << 2 * d
            p = prot[d]
            for s, a, b in due[d]:
                tj = c >> s & 3
                if tj:
                    x, y = (a, b) if tj == 1 else (b, a)
                    if protected(x, y, far, und, out, inb):
                        p |= 1 << (s >> 1)
                    elif require_protection:
                        break
            else:
                hit = ((r & tail * ones) + fulls) & guards
                reach[d + 1] = r | (hit - (hit >> n)) & head * ones
                code[d + 1] = c
                prot[d + 1] = p
                d += 1
                trial[d] = 0
                continue
        else:
            if d == m and chordal_bits(n, und):
                codes.append((code[m], prot[m]))
            d -= 1
            if d < 0:
                break
        # undo the mark kept at depth d, the last one tried there
        u, v = eu[d], ev[d]
        t = trial[d] - 1
        if t == 0:
            und[u] ^= 1 << v
            und[v] ^= 1 << u
        else:
            x, y = (u, v) if t == 1 else (v, u)
            out[x] ^= 1 << y
            inb[y] ^= 1 << x
    return codes

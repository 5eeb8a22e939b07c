"""Hot enumeration kernels with selectable backends.

The brute-force layers spend essentially all of their time enumerating edge
orientations (up to 2^m of them) or three-way edge marks (up to 3^m) over
small dense graphs.  Those loops live here, written once in :func:`_build`
against flat integer rows and adjacency bitmasks.  The ``python`` build runs
them on Python ints and lists, where a shift or mask costs several times
less than on NumPy scalars; the ``numba`` build compiles the same source on
int64 arrays when numba is available.  The public wrappers take and return
int64 arrays for either build.

Backend selection: the ``MECCOUNT_BACKEND`` environment variable may be set
to ``numba``, ``python`` or ``auto`` (the default; prefers numba).
:func:`set_backend` overrides it at runtime, which the benchmark harness and
the parity tests use to compare both paths on identical inputs.

Graph encoding shared by every kernel:

* ``n`` vertices indexed ``0..n-1`` (at most ``MAX_BITSET_VERTICES``),
* skeleton edges as parallel arrays ``eu``/``ev`` (``m`` edges, ``m <= 31``),
* ``skel`` as int64 bitmask rows (bit ``j`` of ``skel[i]`` = edge ``i~j``).

Orientations are encoded as ``m``-bit masks (bit ``j`` set means the edge is
directed ``eu[j] -> ev[j]``).  Three-way marks are "trit codes": two bits
per edge, ``0`` undirected, ``1`` for ``eu->ev``, ``2`` for ``ev->eu``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CapacityError

try:
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the python backend
    _njit = None
    HAVE_NUMBA = False

MAX_BITSET_VERTICES = 62
MAX_TRIT_EDGES = 31


def _build(jit, one, zero, rows):
    """The kernels, compiled by ``jit``, on integers of the type of ``one``
    and ``zero`` and on rows of ``k`` zeros made by ``rows(k)``."""

    @jit
    def _uclose(und, S):
        # closure of the bit-set S over undirected adjacency rows
        while True:
            T = S
            for i in range(len(und)):
                if (S >> i) & one:
                    T |= und[i]
            if T == S:
                return S
            S = T

    @jit
    def _reach_fwd(und, out, s, t):
        # is t reachable from s along forward edges (paths of length >= 1)?
        S = und[s] | out[s]
        while True:
            T = S
            for i in range(len(und)):
                if (S >> i) & one:
                    T |= und[i] | out[i]
            if T == S:
                break
            S = T
        return (S >> t) & one != zero

    @jit
    def _dreach(und, out, s, t):
        # reachable from s by a forward walk using at least one directed edge
        n = len(und)
        A = _uclose(und, one << s)
        F = zero
        for i in range(n):
            if (A >> i) & one:
                F |= out[i]
        B = zero
        newB = _uclose(und, F)
        while newB != B:
            B = newB
            F = B
            for i in range(n):
                if (B >> i) & one:
                    F |= out[i]
            newB = _uclose(und, B | F)
        return (B >> t) & one != zero

    @jit
    def _chordal_bits(n, und):
        # maximum-cardinality search order, then the elimination check:
        # each vertex's earlier neighbors minus the latest one must all be
        # adjacent to that latest one.  A chordless cycle needs four vertices
        # with two undirected neighbours each, so fewer accept at once.
        branching = 0
        for i in range(n):
            if und[i] & (und[i] - one):
                branching += 1
        if branching < 4:
            return True
        order = rows(n)
        pos = rows(n)
        wt = rows(n)
        visited = zero
        for step in range(n):
            best = -1
            bw = -1
            for i in range(n):
                if not (visited >> i) & one and wt[i] > bw:
                    best = i
                    bw = wt[i]
            order[step] = best
            pos[best] = step
            visited |= one << best
            nb = und[best]
            for j in range(n):
                if (nb >> j) & one and not (visited >> j) & one:
                    wt[j] += 1
        placed = zero
        for step in range(n):
            v = order[step]
            earlier = und[v] & placed
            placed |= one << v
            if earlier == zero:
                continue
            u = -1
            up = -1
            for i in range(n):
                if (earlier >> i) & one and pos[i] > up:
                    u = i
                    up = pos[i]
            rest = earlier & ~(one << u)
            if rest & ~und[u]:
                return False
        return True

    @jit
    def _acyclic_masks(n, eu, ev, lo, hi):
        # depth-first search that decides edges from the highest bit down,
        # 0 before 1, so the masks come out ascending.  desc[d * n + v] is
        # the set of vertices v reaches (v included) under the first d
        # decisions.  A branch is cut when its new edge t -> h closes a
        # cycle (h already reaches t) or its prefix leaves [lo, hi).
        m = len(eu)
        desc = rows((m + 1) * n)
        for v in range(n):
            desc[v] = one << v
        trial = rows(m + 1)
        out = []
        mask = zero
        d = 0
        while d >= 0:
            if d == m:
                if lo <= mask and mask < hi:
                    out.append(mask)
                d -= 1
                continue
            b = trial[d]
            if b == 2:
                d -= 1
                continue
            trial[d] = b + 1
            j = m - 1 - d
            mask = ((mask >> (j + 1) << 1) | b) << j
            if mask >= hi or mask + (one << j) <= lo:
                continue
            if b:
                t, h = eu[j], ev[j]
            else:
                t, h = ev[j], eu[j]
            row = d * n
            reach = desc[row + h]
            if (reach >> t) & one:
                continue
            for x in range(n):
                r = desc[row + x]
                if (r >> t) & one:
                    r |= reach
                desc[row + n + x] = r
            d += 1
            trial[d] = 0
        return out

    @jit
    def _collider_words(masks, e1, w1, e2, w2, nwords):
        # fingerprint of each orientation: bitset over the potential-collider
        # triples, word-packed, row r at outw[r * nwords:(r + 1) * nwords]
        k = len(masks)
        t = len(e1)
        sel = rows(t)
        want = rows(t)
        for i in range(t):
            sel[i] = (one << e1[i]) | (one << e2[i])
            want[i] = (w1[i] << e1[i]) | (w2[i] << e2[i])
        outw = rows(k * nwords)
        for r in range(k):
            mask = masks[r]
            for i in range(t):
                if (mask & sel[i]) == want[i]:
                    outw[r * nwords + (i >> 6)] |= one << (i & 63)
        return outw

    @jit
    def _protected(n, x, y, skel, und, out, inb):
        if inb[x] & ~skel[y] & ~(one << y):
            return True  # w -> x -> y with w, y non-adjacent
        if inb[y] & ~skel[x] & ~(one << x):
            return True  # x -> y <- w with x, w non-adjacent
        if out[x] & inb[y]:
            return True  # x -> w -> y alongside x -> y
        cand = und[x] & inb[y]
        for w in range(n):
            if (cand >> w) & one:
                if cand & ~skel[w] & ~(one << w):
                    return True  # w - x - w' with w -> y, w' -> y, w, w' non-adj
        return False

    @jit
    def _mark_codes(n, eu, ev, skel, require_protection):
        # depth-first enumeration of edge-mark assignments that give a chain
        # graph with chordal undirected components and no induced x->y-w;
        # with require_protection also every directed edge protected.
        # Partial assignments are pruned as soon as the assigned part alone
        # certifies a violation; chordality is decided at the leaves.  Each
        # accepted code is followed in ``codes`` by its protected-edge mask
        # (bit j set: edge j is directed and strongly protected).
        m = len(eu)
        mark = rows(m)
        trial = rows(m + 1)
        und = rows(n)
        out = rows(n)
        inb = rows(n)
        codes = []
        d = 0
        while True:
            if d == m:
                ok = _chordal_bits(n, und)
                prot = zero
                if ok:
                    for j in range(m):
                        if mark[j] == 1:
                            x, y = eu[j], ev[j]
                        elif mark[j] == 2:
                            x, y = ev[j], eu[j]
                        else:
                            continue
                        if _protected(n, x, y, skel, und, out, inb):
                            prot |= one << j
                        elif require_protection:
                            ok = False
                            break
                if ok:
                    code = zero
                    for j in range(m):
                        code |= mark[j] << (2 * j)
                    codes.append(code)
                    codes.append(prot)
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

    @jit
    def _push(j, t, eu, ev, und, out, inb):
        u, v = eu[j], ev[j]
        if t == 0:
            und[u] |= one << v
            und[v] |= one << u
        elif t == 1:
            out[u] |= one << v
            inb[v] |= one << u
        else:
            out[v] |= one << u
            inb[u] |= one << v

    @jit
    def _pop(j, t, eu, ev, und, out, inb):
        u, v = eu[j], ev[j]
        if t == 0:
            und[u] &= ~(one << v)
            und[v] &= ~(one << u)
        elif t == 1:
            out[u] &= ~(one << v)
            inb[v] &= ~(one << u)
        else:
            out[v] &= ~(one << u)
            inb[u] &= ~(one << v)

    @jit
    def _prune(j, t, eu, ev, skel, und, out, inb):
        u, v = eu[j], ev[j]
        if t == 0:
            if inb[u] & ~skel[v] & ~(one << v):
                return True
            if inb[v] & ~skel[u] & ~(one << u):
                return True
            if _dreach(und, out, u, v) or _dreach(und, out, v, u):
                return True
        else:
            if t == 1:
                x, y = u, v
            else:
                x, y = v, u
            if und[y] & ~skel[x] & ~(one << x):
                return True
            if _reach_fwd(und, out, y, x):
                return True
        return False

    return {
        "acyclic_masks": _acyclic_masks,
        "collider_words": _collider_words,
        "mark_codes": _mark_codes,
        "chordal_bits": _chordal_bits,
        "protected": _protected,
    }


_PY = _build(lambda f: f, 1, 0, lambda k: [0] * k)
_NB = (
    _build(
        _njit(cache=True, nogil=True),
        np.int64(1),
        np.int64(0),
        _njit(lambda k: np.zeros(k, np.int64)),
    )
    if HAVE_NUMBA
    else None
)

_VALID = ("auto", "numba", "python")
_backend: str | None = None
_pinned = False

# below this many elementary steps the plain-python path beats dispatching
# into compiled code, so "auto" stays in python for tiny jobs
_AUTO_WORK_THRESHOLD = 1 << 15


def _resolve(name: str) -> str:
    if name not in _VALID:
        raise ValueError(f"unknown backend {name!r}; expected one of {_VALID}")
    if name == "auto":
        return "numba" if HAVE_NUMBA else "python"
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    return name


def current_backend() -> str:
    global _backend, _pinned
    if _backend is None:
        raw = os.environ.get("MECCOUNT_BACKEND", "auto").lower()
        _backend = _resolve(raw)
        _pinned = raw != "auto"
    return _backend


def set_backend(name: str) -> None:
    global _backend, _pinned
    _backend = _resolve(name.lower())
    _pinned = name.lower() != "auto"


def _run(name: str, work_hint: int, *args):
    """Call kernel ``name`` in the build chosen for ``work_hint`` steps; the
    python build gets its array arguments as lists of Python ints."""
    if current_backend() == "numba" and (_pinned or work_hint > _AUTO_WORK_THRESHOLD):
        return _NB[name](*args)
    return _PY[name](*(a.tolist() if isinstance(a, np.ndarray) else a for a in args))


def check_bitset_capacity(n: int, m: int) -> None:
    if n > MAX_BITSET_VERTICES:
        raise CapacityError(
            f"graph has {n} vertices; enumeration kernels support at most "
            f"{MAX_BITSET_VERTICES}",
            limit=MAX_BITSET_VERTICES,
        )
    if m > MAX_TRIT_EDGES:
        raise CapacityError(
            f"graph has {m} edges; mark enumeration supports at most "
            f"{MAX_TRIT_EDGES}",
            limit=MAX_TRIT_EDGES,
        )


def acyclic_masks(n: int, eu: np.ndarray, ev: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Orientation masks in ``[lo, hi)`` whose digraph is acyclic, ascending."""
    work = (hi - lo) * max(1, len(eu))
    return np.array(_run("acyclic_masks", work, n, eu, ev, int(lo), int(hi)), dtype=np.int64)


def collider_words(masks, e1, w1, e2, w2, nwords: int) -> np.ndarray:
    """Per-mask fingerprints of the realized potential-collider triples."""
    work = len(masks) * max(1, len(e1))
    flat = _run("collider_words", work, masks, e1, w1, e2, w2, int(nwords))
    # bit 63 is the int64 sign bit, which a Python int holds as 2**63
    return np.array(flat, dtype=np.uint64).view(np.int64).reshape(len(masks), nwords)


def mark_codes(n: int, eu, ev, skel, require_protection: bool) -> np.ndarray:
    """All valid three-way mark assignments (see module doc), one row
    ``(code, protected)`` each: the trit code and the bitmask of its
    strongly protected directed edges (bit ``j`` for edge ``j``)."""
    flat = _run("mark_codes", 3 ** len(eu), n, eu, ev, skel, require_protection)
    return np.array(flat, dtype=np.int64).reshape(-1, 2)


def protected(n: int, x: int, y: int, skel, und, out, inb) -> bool:
    """Is ``x -> y`` strongly protected?  ``und``/``out``/``inb`` are the
    undirected, outgoing and incoming bitmask rows, as lists of ints.  One
    edge is too little work to dispatch into compiled code."""
    return bool(_PY["protected"](n, x, y, skel, und, out, inb))


def chordal_bits(n: int, und) -> bool:
    return bool(_run("chordal_bits", n * n, n, und))

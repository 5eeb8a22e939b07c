"""Hot enumeration kernels with selectable backends.

The brute-force layers spend essentially all of their time enumerating edge
orientations (2^m of them) or three-way edge marks (up to 3^m) over small
dense graphs.  Those loops live here, written against flat NumPy arrays and
int64 adjacency bitmasks, and are compiled with numba when it is available.

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


def _build(jit):
    one = np.int64(1)
    zero = np.int64(0)

    @jit
    def _uclose(und, S):
        # closure of the bit-set S over undirected adjacency rows
        while True:
            T = S
            for i in range(und.shape[0]):
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
            for i in range(und.shape[0]):
                if (S >> i) & one:
                    T |= und[i] | out[i]
            if T == S:
                break
            S = T
        return (S >> t) & one != zero

    @jit
    def _dreach(und, out, s, t):
        # reachable from s by a forward walk using at least one directed edge
        n = und.shape[0]
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
        order = np.empty(n, np.int64)
        pos = np.empty(n, np.int64)
        wt = np.zeros(n, np.int64)
        visited = zero
        for step in range(n):
            best = -1
            bw = np.int64(-1)
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
            up = np.int64(-1)
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
        m = eu.shape[0]
        buf = np.empty(1024, np.int64)
        cnt = 0
        indeg = np.empty(n, np.int64)
        heads = np.empty(m, np.int64)
        queue = np.empty(n, np.int64)
        for mask in range(lo, hi):
            for i in range(n):
                indeg[i] = 0
            for j in range(m):
                h = ev[j] if (mask >> j) & 1 else eu[j]
                heads[j] = h
                indeg[h] += 1
            qn = 0
            for i in range(n):
                if indeg[i] == 0:
                    queue[qn] = i
                    qn += 1
            done = 0
            qi = 0
            while qi < qn:
                v = queue[qi]
                qi += 1
                done += 1
                for j in range(m):
                    tail = eu[j] if (mask >> j) & 1 else ev[j]
                    if tail == v:
                        h = heads[j]
                        indeg[h] -= 1
                        if indeg[h] == 0:
                            queue[qn] = h
                            qn += 1
            if done == n:
                if cnt == buf.shape[0]:
                    nb = np.empty(buf.shape[0] * 2, np.int64)
                    nb[:cnt] = buf
                    buf = nb
                buf[cnt] = mask
                cnt += 1
        return buf[:cnt]

    @jit
    def _collider_words(masks, e1, w1, e2, w2, nwords):
        # fingerprint of each orientation: bitset over the potential-collider
        # triples, word-packed
        k = masks.shape[0]
        t = e1.shape[0]
        outw = np.zeros((k, nwords), np.int64)
        for r in range(k):
            mask = masks[r]
            for i in range(t):
                b1 = (mask >> e1[i]) & 1
                b2 = (mask >> e2[i]) & 1
                if b1 == w1[i] and b2 == w2[i]:
                    outw[r, i >> 6] |= one << (i & 63)
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
        # certifies a violation; chordality is decided at the leaves.
        m = eu.shape[0]
        mark = np.zeros(m, np.int8)
        trial = np.zeros(m + 1, np.int8)
        und = np.zeros(n, np.int64)
        out = np.zeros(n, np.int64)
        inb = np.zeros(n, np.int64)
        buf = np.empty(1024, np.int64)
        cnt = 0
        d = 0
        while True:
            if d == m:
                ok = _chordal_bits(n, und)
                if ok and require_protection:
                    for j in range(m):
                        if mark[j] == 1:
                            x, y = eu[j], ev[j]
                        elif mark[j] == 2:
                            x, y = ev[j], eu[j]
                        else:
                            continue
                        if not _protected(n, x, y, skel, und, out, inb):
                            ok = False
                            break
                if ok:
                    code = zero
                    for j in range(m):
                        code |= np.int64(mark[j]) << (2 * j)
                    if cnt == buf.shape[0]:
                        nb = np.empty(buf.shape[0] * 2, np.int64)
                        nb[:cnt] = buf
                        buf = nb
                    buf[cnt] = code
                    cnt += 1
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
        return buf[:cnt]

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


_PY = _build(lambda f: f)
_NB = _build(_njit(cache=True, nogil=True)) if HAVE_NUMBA else None

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


def _impls(work_hint: int):
    if current_backend() == "numba" and (_pinned or work_hint > _AUTO_WORK_THRESHOLD):
        return _NB
    return _PY


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
    """Orientation masks in ``[lo, hi)`` whose digraph is acyclic."""
    work = (hi - lo) * max(1, len(eu))
    return _impls(work)["acyclic_masks"](n, eu, ev, np.int64(lo), np.int64(hi))


def collider_words(masks, e1, w1, e2, w2, nwords: int) -> np.ndarray:
    """Per-mask fingerprints of the realized potential-collider triples."""
    work = len(masks) * max(1, len(e1))
    return _impls(work)["collider_words"](masks, e1, w1, e2, w2, np.int64(nwords))


def mark_codes(n: int, eu, ev, skel, require_protection: bool) -> np.ndarray:
    """Trit codes of all valid three-way mark assignments (see module doc)."""
    return _impls(3 ** len(eu))["mark_codes"](n, eu, ev, skel, require_protection)


def protected(n: int, x: int, y: int, skel, und, out, inb) -> bool:
    """Is ``x -> y`` strongly protected?  ``und``/``out``/``inb`` are the
    undirected, outgoing and incoming bitmask rows.  One edge is too little
    work to dispatch into compiled code."""
    return bool(_PY["protected"](n, x, y, skel, und, out, inb))


def chordal_bits(n: int, und: np.ndarray) -> bool:
    return bool(_impls(n * n)["chordal_bits"](n, und))

"""Spans and counters recorded from outside the package.

:class:`Tracer` replaces chosen functions of the ``meccount`` modules with
timing or counting wrappers, under every name a module binds them to (the
defining module's own global, each ``from .x import f`` copy, the package
root), so a call is caught whichever module makes it.  :meth:`Tracer.close`
puts the original objects back.  Nothing under ``src/`` is edited.

A timed call records a span ``(id, parent id, request, name, start, end)``
in memory; a layer's self time is a span's duration minus the time its
child spans cover.  Hot helpers that run millions of times are only
counted: their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "meccount"
LAYERS = ("counting", "treedecomp", "extension", "shadow", "tfp", "mecrules", "kernels")

# (layer, module, attribute, mode): ``time`` records a span per call,
# ``gen`` a span per item a generator yields, ``count`` a call count
TARGETS = (
    ("counting", "counting", "count_mecs", "time"),
    ("counting", "counting", "_count_rec", "time"),
    ("counting", "counting", "_combine_tables", "time"),
    ("counting", "counting", "brute_force_count", "time"),
    ("treedecomp", "treedecomp", "tree_decomposition", "time"),
    ("treedecomp", "treedecomp", "validate_td", "time"),
    ("treedecomp", "treedecomp", "cut_last_child", "time"),
    ("extension", "extension", "DecompositionContext", "time"),
    ("extension", "extension", "protected_edges", "time"),
    ("extension", "extension", "_boundary_closure", "time"),
    ("extension", "extension", "_combine", "time"),
    ("extension", "extension", "boundary_signature", "count"),
    ("extension", "extension", "_sub_pdag_from_signature", "count"),
    ("extension", "extension", "_struct_ok_profiled", "count"),
    ("shadow", "shadow", "enumerate_partial_mecs", "gen"),
    ("shadow", "shadow", "project_shadow", "time"),
    ("tfp", "tfp", "tfp_table", "time"),
    ("tfp", "tfp", "_close_p1", "time"),
    ("tfp", "tfp", "_close_p2", "time"),
    ("tfp", "tfp", "_matrices_to_table", "time"),
    ("mecrules", "mecrules", "brute_count_mecs", "time"),
    ("mecrules", "mecrules", "brute_count_mecs_andersson", "time"),
    ("mecrules", "mecrules", "enumerate_mecs", "time"),
    ("mecrules", "mecrules", "v_structures", "count"),
    ("mecrules", "mecrules", "is_strongly_protected", "count"),
    ("kernels", "_kernels", "acyclic_masks", "time"),
    ("kernels", "_kernels", "collider_words", "time"),
    ("kernels", "_kernels", "mark_codes", "time"),
)

# methods of the graph class, counted only
METHODS = ("has_directed", "induced_subgraph")

# the root span the harness opens around each graph it sends
REQUEST = "bench.request"

# spans kept in memory (about 100 bytes each); later spans still count
# toward every total but are not written out
MAX_SPANS = 1_000_000


class Tracer:
    """Patches the package on construction; :meth:`close` restores it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.request = -1
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self._patch()

    # -- patching ------------------------------------------------------------

    def _patch(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(PACKAGE + ".")
        ]
        for layer, modname, attr, mode in TARGETS:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr)
            name = f"{modname.lstrip('_')}.{attr}"
            self.layer_of[name] = layer
            wrapper = {"time": self._timed, "gen": self._timed_gen, "count": self._counted}[mode](
                name, orig
            )
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        pdag = importlib.import_module(f"{PACKAGE}.graph").Pdag
        for meth in METHODS:
            orig = pdag.__dict__[meth]
            self._restore.append((pdag, meth, orig))
            setattr(pdag, meth, self._counted(f"graph.{meth}", orig))

    def close(self) -> None:
        """Put every patched name back, newest first."""
        while self._restore:
            obj, key, orig = self._restore.pop()
            setattr(obj, key, orig)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording -----------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame, t0: float, t1: float) -> None:
        self._stack.pop()
        d = t1 - t0
        self.calls[name] += 1
        self.total[name] += d
        self.self_time[name] += d - frame[1]
        if self._stack:
            self._stack[-1][1] += d
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], frame[2], self.request, name, t0, t1))
        else:
            self.spans_dropped += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(name, frame, t0, time.perf_counter())

    def _timed(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            label = name
            if name == "kernels.mark_codes":
                label = "kernels.mark_codes.filter" if args[4] else "kernels.mark_codes.boundary"
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(label, frame, t0, time.perf_counter())
            if observe is not None:
                observe(self, args, out)
            return out

        return wrapper

    def _timed_gen(self, name: str, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._enter()
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, frame, t0, time.perf_counter())
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reports -------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            layer = self.layer_of.get(name) or self.layer_of.get(name.rsplit(".", 1)[0])
            if layer is not None:
                out[layer] += t
        return out

    def write(self, path) -> None:
        """One JSON array per line: id, parent id, request, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _observe_td(tr: Tracer, args, td) -> None:
    tr.counts["treedecomp.bags"] += len(td.bags)
    tr.maxima["treedecomp.width"] = max(tr.maxima["treedecomp.width"], td.width)


def _observe_table(tr: Tracer, args, table) -> None:
    tr.maxima["counting.table_entries"] = max(tr.maxima["counting.table_entries"], len(table))


def _observe_masks(tr: Tracer, args, masks) -> None:
    lo, hi = args[3], args[4]
    tr.counts["kernels.masks_scanned"] += hi - lo
    tr.counts["kernels.masks_accepted"] += len(masks)


def _observe_marks(tr: Tracer, args, codes) -> None:
    tr.counts["kernels.trits_scanned"] += 3 ** len(args[1])
    tr.counts["kernels.marks_accepted"] += len(codes)


_OBSERVERS = {
    "treedecomp.tree_decomposition": _observe_td,
    "counting.brute_force_count": _observe_table,
    "counting._combine_tables": _observe_table,
    "kernels.acyclic_masks": _observe_masks,
    "kernels.mark_codes": _observe_marks,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, each ``(value, unit)``."""
    c, t, n = tr.calls, tr.total, tr.counts
    selfs = tr.layer_self()
    traced = t[REQUEST]
    m: dict[str, tuple[float, str]] = {
        "treedecomp.build_s": (t["treedecomp.tree_decomposition"], "s"),
        "treedecomp.validate_s": (t["treedecomp.validate_td"], "s"),
        "treedecomp.cut_s": (t["treedecomp.cut_last_child"], "s"),
        "treedecomp.bags": (n["treedecomp.bags"], "count"),
        "treedecomp.width_max": (tr.maxima["treedecomp.width"], "count"),
        "counting.self_s": (selfs["counting"], "s"),
        "counting.leaf_s": (t["counting.brute_force_count"], "s"),
        "counting.leaf.calls": (c["counting.brute_force_count"], "count"),
        "counting.cuts": (c["treedecomp.cut_last_child"], "count"),
        "counting.table_entries_max": (tr.maxima["counting.table_entries"], "count"),
        "counting.pairs_glued": (c["extension._combine"], "count"),
        "counting.glue_accept_ratio": (
            _ratio(c["shadow.project_shadow"], c["extension._combine"]),
            "ratio",
        ),
        "extension.side_check.calls": (c["extension._struct_ok_profiled"], "count"),
        "extension.protected_edges_s": (t["extension.protected_edges"], "s"),
        "extension.protected_edges.calls": (c["extension.protected_edges"], "count"),
        "extension.signature.calls": (c["extension.boundary_signature"], "count"),
        "extension.signature_memo_hit_ratio": (
            1.0 - _ratio(c["extension._sub_pdag_from_signature"], c["extension.boundary_signature"])
            if c["extension.boundary_signature"]
            else 0.0,
            "ratio",
        ),
        "extension.context_s": (t["extension.DecompositionContext"], "s"),
        "extension.combine_s": (t["extension._combine"], "s"),
        "shadow.candidates": (n["shadow.enumerate_partial_mecs.items"], "count"),
        "shadow.enumerate_s": (t["shadow.enumerate_partial_mecs"], "s"),
        "shadow.project_s": (t["shadow.project_shadow"], "s"),
        "shadow.candidate_accept_ratio": (
            _ratio(c["extension._boundary_closure"], n["shadow.enumerate_partial_mecs.items"]),
            "ratio",
        ),
        "tfp.table_s": (t["tfp.tfp_table"], "s"),
        "tfp.table.calls": (c["tfp.tfp_table"], "count"),
        "tfp.closure_s": (t["tfp._close_p1"] + t["tfp._close_p2"], "s"),
        "tfp.closure.calls": (c["tfp._close_p1"], "count"),
        "mecrules.brute_count_s": (t["mecrules.brute_count_mecs"], "s"),
        "mecrules.filter_count_s": (t["mecrules.brute_count_mecs_andersson"], "s"),
        "mecrules.enumerate_mecs_s": (t["mecrules.enumerate_mecs"], "s"),
        "mecrules.v_structures.calls": (c["mecrules.v_structures"], "count"),
        "mecrules.protected.calls": (c["mecrules.is_strongly_protected"], "count"),
        "kernels.acyclic_masks_s": (t["kernels.acyclic_masks"], "s"),
        "kernels.masks_scanned": (n["kernels.masks_scanned"], "count"),
        "kernels.acyclic_accept_ratio": (
            _ratio(n["kernels.masks_accepted"], n["kernels.masks_scanned"]),
            "ratio",
        ),
        "kernels.collider_words_s": (t["kernels.collider_words"], "s"),
        "kernels.mark_codes.filter_s": (t["kernels.mark_codes.filter"], "s"),
        "kernels.mark_codes.boundary_s": (t["kernels.mark_codes.boundary"], "s"),
        "kernels.trits_scanned": (n["kernels.trits_scanned"], "count"),
        "kernels.mark_accept_ratio": (
            _ratio(n["kernels.marks_accepted"], n["kernels.trits_scanned"]),
            "ratio",
        ),
        "graph.has_directed.calls": (c["graph.has_directed"], "count"),
        "graph.induced_subgraph.calls": (c["graph.induced_subgraph"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (_ratio(selfs[layer], traced), "ratio")
    return m

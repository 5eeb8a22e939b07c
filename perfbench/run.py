#!/usr/bin/env python3
"""The meccount benchmark of record.

    python3 perfbench/run.py --workload thin-long --seed 1 --seconds 40 --trace 0

Runs one workload as a closed loop: one process, one caller, default
``threads=1``; the next skeleton is sent only after the previous count
returns.  Inputs come from ``--seed`` alone (see ``workloads.py``).  After
the timed loop every answer is checked against an independent one; the
checks are not timed.

``--trace 0`` reports the end-to-end metrics (tracing off).  ``--trace 1``
runs the loop with every layer patched for spans and counters (see
``tracer.py``), then sends the same graphs again untraced to report the
tracing overhead, and reports the per-layer metrics.  Spans and a result
record are written under ``perfbench/.out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every count was right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

import workloads  # noqa: E402
from tracer import REQUEST, Tracer, layer_metrics  # noqa: E402
from workloads import Skeleton  # noqa: E402

SETUP_STARTS = 5
# the tail percentile of each workload is fixed, so runs of different
# speeds report the same quantile: it is the highest of p50/p75/p90/p95/p99
# that leaves at least TAIL_BEYOND samples beyond it at the seed code's rate
TAIL_BEYOND = 10
# share of --seconds spent in the traced loop; the untraced replay of the
# same graphs fills the rest
TRACED_SHARE = 0.6
# a tiny first command for the set-up measurement: a path on 12 vertices
# has 11 edges, so "auto" takes the engine route
SETUP_GRAPH = workloads.Skeleton("path12", tuple(range(12)), tuple(workloads.path_edges(12)))


@dataclass(frozen=True)
class Workload:
    """How a workload's graphs are sent, and how each answer is checked."""

    send: Callable  # (meccount, graph) -> answer
    check: Callable  # (meccount, skeleton, graph, answer) -> error text or None
    tail_pct: float


def _send_default(mc, G):
    return mc.count_mecs(G)


def _send_fpt(mc, G):
    return mc.count_mecs(G, "fpt")


def _send_oracles(mc, G):
    return (mc.brute_count_mecs(G), mc.brute_count_mecs_andersson(G), len(mc.enumerate_mecs(G)))


def _check_closed_form(mc, g: Skeleton, G, answer):
    want = workloads.expected_count(g)
    if want is None:
        return f"{g.kind}: no independent count"
    return None if answer == want else f"{g.kind}: counted {answer}, expected {want}"


def _check_pinned_or_brute(mc, g: Skeleton, G, answer):
    want = workloads.expected_count(g)
    if want is None:
        want = mc.brute_count_mecs(G)
    return None if answer == want else f"{g.kind}: counted {answer}, expected {want}"


def _check_routes_agree(mc, g: Skeleton, G, answer):
    return None if len(set(answer)) == 1 else f"{g.kind}: routes disagree {answer}"


WORKLOADS = {
    "thin-long": Workload(_send_default, _check_closed_form, 75.0),
    "wide-boundary": Workload(_send_fpt, _check_pinned_or_brute, 75.0),
    "oracle-batch": Workload(_send_oracles, _check_routes_agree, 90.0),
}


# -- measurement ----------------------------------------------------------------


def run_loop(mc, name: str, seed: int, *, seconds=None, count=None, tracer=None):
    """Send graphs until ``seconds`` have passed or ``count`` were sent;
    at least one graph is always sent.

    Returns the skeletons sent, the per-graph wall times and the answers
    (an exception object when the call raised)."""
    wl = WORKLOADS[name]
    stream = workloads.STREAMS[name]
    sent, lat, answers = [], [], []
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    limit = count if count is not None else math.inf
    i = 0
    while i < limit and (i == 0 or time.perf_counter() < deadline):
        g = stream(seed, i)
        G = mc.UndirectedGraph(vertices=g.vertices, edges=g.edges)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.send(mc, G)
            else:
                tracer.request = i
                out = tracer.span(REQUEST, wl.send, mc, G)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        lat.append(time.perf_counter() - t0)
        sent.append(g)
        answers.append(out)
        i += 1
    return sent, lat, answers


def check_answers(mc, name: str, sent, answers) -> list[str]:
    """Error text for every wrong or failed answer."""
    wl = WORKLOADS[name]
    errors = []
    for g, out in zip(sent, answers):
        if isinstance(out, Exception):
            errors.append(f"{g.kind}: raised {type(out).__name__}: {out}")
            continue
        G = mc.UndirectedGraph(vertices=g.vertices, edges=g.edges)
        err = wl.check(mc, g, G, out)
        if err is not None:
            errors.append(err)
    return errors


def percentile(lat: list[float], p: float):
    """(value, samples beyond it) of the nearest-rank ``p``-th percentile."""
    xs = sorted(lat)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def measure_setup(starts: int = SETUP_STARTS) -> float:
    """Median wall time, in fresh interpreters, of ``import meccount`` plus
    a first ``cli.main(["count", <tiny file>])``."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "setup-path12.txt"
    path.write_text(SETUP_GRAPH.text(), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys, time\n"
        "t0 = time.perf_counter()\n"
        "import meccount\n"
        "from meccount import cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    rc = cli.main(['count', sys.argv[1]])\n"
        "print(json.dumps([rc, buf.getvalue().strip(), time.perf_counter() - t0]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    want = str(workloads.path_count(12))
    times = []
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        rc, out, secs = json.loads(proc.stdout.strip().splitlines()[-1])
        if rc != 0 or out != want:
            raise RuntimeError(f"set-up command answered {out!r} (exit {rc}), expected {want}")
        times.append(secs)
    return statistics.median(times)


def environment_stamp(mc) -> dict:
    """What decides whether two runs may be compared."""
    import numpy

    from meccount._kernels import HAVE_NUMBA

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "backend": mc.current_backend(),
        "numba": HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
    }


def _warm(mc, name: str) -> None:
    # first calls load lazily built state; users of a long-lived process
    # pay that once, and set-up time reports it
    G = mc.UndirectedGraph(vertices=SETUP_GRAPH.vertices, edges=SETUP_GRAPH.edges)
    WORKLOADS[name].send(mc, G)


# -- reporting ------------------------------------------------------------------


def end_to_end(mc, name, seed, seconds):
    setup_s = measure_setup()
    _warm(mc, name)
    sent, lat, answers = run_loop(mc, name, seed, seconds=seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    errors = check_answers(mc, name, sent, answers)
    check_s = time.perf_counter() - t0
    p = WORKLOADS[name].tail_pct
    tail_s, beyond = percentile(lat, p)
    metrics = {
        "graphs_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms_tail": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "latency_ms_tail": f"p{p:g}, {beyond} of {len(lat)} samples beyond"
        + ("" if beyond >= TAIL_BEYOND else f", fewer than {TAIL_BEYOND}"),
        "check_s": f"{check_s:.3f} s spent checking answers (not timed)",
    }
    return sent, errors, metrics, notes, {"latencies_s": lat}


def per_layer(mc, name, seed, seconds):
    _warm(mc, name)
    with Tracer() as tr:
        sent, lat_traced, answers = run_loop(mc, name, seed, seconds=seconds * TRACED_SHARE, tracer=tr)
    _, lat_plain, _ = run_loop(mc, name, seed, count=len(sent))
    errors = check_answers(mc, name, sent, answers)
    metrics = layer_metrics(tr)
    metrics["trace.overhead_ratio"] = (sum(lat_traced) / sum(lat_plain), "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-s{seed}.jsonl"
    tr.write(spans_path)
    notes = {
        "trace.overhead_ratio": (
            f"traced {len(lat_traced) / sum(lat_traced):.4f} graphs/s vs untraced "
            f"{len(lat_plain) / sum(lat_plain):.4f} graphs/s on the same {len(sent)} graphs"
        ),
        "spans": f"{len(tr.spans)} spans written to {spans_path.relative_to(ROOT)}, "
        f"{tr.spans_dropped} over the in-memory cap not kept",
    }
    return sent, errors, metrics, notes, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "meccount" / "__init__.py").is_file():
        print(f"error: no meccount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meccount as mc

    stamp = environment_stamp(mc)
    measure = per_layer if args.trace else end_to_end
    sent, errors, metrics, notes, extra = measure(mc, args.workload, args.seed, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "inputs_digest": workloads.digest(sent),
        "stream_digest": workloads.digest(workloads.STREAMS[args.workload](args.seed, i) for i in range(16)),
        "attempted": len(sent),
        "failed": len(errors),
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  stamp {json.dumps(stamp, sort_keys=True)}")
    print(f"inputs {record['inputs_digest']} ({len(sent)} graphs)  stream {record['stream_digest']} (first 16)")
    for k, (v, u) in metrics.items():
        note = f"  [{notes[k]}]" if k in notes else ""
        print(f"  {k:<40} {v:>16.6g} {u}{note}")
    if not args.trace:
        print(f"  {'failed_frac':<40} {len(errors) / len(sent):>16.6g} ratio")
    for k in sorted(set(notes) - set(metrics)):
        print(f"  {k}: {notes[k]}")
    for err in errors[:20]:
        print(f"  FAILED {err}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(sent),
                "failed": len(errors),
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

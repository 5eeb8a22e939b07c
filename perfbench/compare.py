#!/usr/bin/env python3
"""Compare two sets of benchmark result records.

    python3 perfbench/compare.py --base a/*.json --new b/*.json

Each record is a ``result-*.json`` file that ``run.py`` writes under
``perfbench/.out/``.  Runs are compared only when every record carries the
same environment stamp (backend, numba, Python, NumPy, nproc); otherwise
the script refuses and exits 2.  For every workload and end-to-end metric
it prints both medians and the base's quartile spread, and marks a metric
worse when the new median is worse than the base median by more than the
bound in ``BENCHMARK.json``, or unresolved when the base's own spread is
wider than that bound.  Exits 1 when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def compare(base, new, bench) -> tuple[int, list[str]]:
    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in base + new}
    if len(stamps) != 1:
        return 2, ["refusing to compare runs with different environment stamps:"] + sorted(stamps)
    lines, worse = [], False
    for spec in bench["end_to_end"]:
        name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
        by_wl = defaultdict(lambda: ([], []))
        for side, records in ((0, base), (1, new)):
            for r in records:
                if name in r["metrics"]:
                    by_wl[r["workload"]][side].append(r["metrics"][name]["value"])
        for wl, (b, n) in sorted(by_wl.items()):
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if lower else (mb - mn) / mb
            if change > bound:
                verdict, worse = "WORSE", True
            elif spread(b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            lines.append(
                f"{wl:<14} {name:<16} base {mb:.6g} (spread {spread(b):.3f}, {len(b)} runs)  "
                f"new {mn:.6g} ({len(n)} runs)  worse by {change:+.3f} of bound {bound}  {verdict}"
            )
    return (1 if worse else 0), lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, lines = compare(load(args.base), load(args.new), bench)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())

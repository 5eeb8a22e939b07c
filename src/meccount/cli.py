"""Command-line frontend.

Input format: one edge per line as two whitespace-separated vertex labels;
``#`` starts a comment, blank lines are skipped.  Self-loops and repeated
edges are rejected.  Exit codes: 0 success, 2 input error, 3 capacity
limit, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
import time

from .counting import AUTO_BRUTE_EDGE_THRESHOLD, count_mecs
from .errors import CapacityError, GraphInputError, InternalInvariantError, PreconditionError
from .graph import UndirectedGraph, label_key
from .mecrules import enumerate_mecs
from .treedecomp import tree_decomposition

log = logging.getLogger("meccount")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INVARIANT = 4


def parse_edge_list(text: str) -> UndirectedGraph:
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphInputError(f"line {lineno}: expected two labels, got {raw!r}")
        u, v = parts
        if u == v:
            raise GraphInputError(f"line {lineno}: self-loop on {u!r}")
        pair = frozenset((u, v))
        if pair in seen:
            raise GraphInputError(f"line {lineno}: duplicate edge {u!r} {v!r}")
        seen.add(pair)
        edges.append((u, v))
    return UndirectedGraph(edges=edges)


def _read_graph(path: str) -> UndirectedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc


def format_marks(M) -> str:
    toks = []
    for u, v in M.skeleton_edges():
        if M.has_undirected(u, v):
            toks.append(f"{u}--{v}")
        elif M.has_directed(u, v):
            toks.append(f"{u}->{v}")
        else:
            toks.append(f"{v}->{u}")
    return " ".join(toks)


def _heuristic_name(cli_value: str) -> str:
    return cli_value.replace("-", "_")


def cmd_count(args) -> int:
    G = _read_graph(args.input)
    method = args.method
    if method == "auto":
        method = "brute" if G.edge_count() <= AUTO_BRUTE_EDGE_THRESHOLD else "fpt"
    heuristic = _heuristic_name(args.td)
    t0 = time.perf_counter()
    count = count_mecs(G, method, heuristic=heuristic)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if args.json:
        width = None
        bags = None
        if method == "fpt" and G.n > 0:
            tds = [tree_decomposition(G.induced_subgraph(c), heuristic) for c in G.components()]
            width = max(td.width for td in tds)
            bags = sum(len(td.bags) for td in tds)
        payload = {
            "count": count,
            "method": method,
            "width": width,
            "bags": bags,
            "wall_time_ms": round(elapsed_ms, 3),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(count)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    G = _read_graph(args.input)
    if G.edge_count() > args.max_edges:
        raise CapacityError(
            f"{G.edge_count()} edges exceeds --max-edges {args.max_edges}",
            limit=args.max_edges,
        )
    if G.n == 0:
        print("count 1")
        return EXIT_OK
    lines = sorted(format_marks(M) for M in enumerate_mecs(G, max_edges=args.max_edges))
    for line in lines:
        print(line)
    print(f"count {len(lines)}")
    return EXIT_OK


def _random_connected_graph(rng: random.Random, max_n: int) -> UndirectedGraph:
    n = rng.randint(2, max_n)
    labels = [f"v{i}" for i in range(n)]
    edges = set()
    shuffled = labels[:]
    rng.shuffle(shuffled)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = shuffled[i], shuffled[j]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(labels, 2)
        edges.add((min(u, v), max(u, v)))
    return UndirectedGraph(edges=sorted(edges))


def cmd_verify(args) -> int:
    corrupt = os.environ.get("MECCOUNT_SELFTEST_CORRUPT") == "1"
    cases: list[tuple[str, UndirectedGraph]] = []
    if args.input:
        cases.append((args.input, _read_graph(args.input)))
    else:
        rng = random.Random(args.seed)
        for t in range(args.trials):
            cases.append((f"random[{t}]", _random_connected_graph(rng, args.max_n)))
    failures = 0
    for name, G in cases:
        expected = count_mecs(G, "brute")
        got = count_mecs(G, "fpt")
        if corrupt:
            got += 1
        status = "PASS" if got == expected else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status} {name} n={G.n} m={G.edge_count()} fpt={got} brute={expected}")
    print(f"{len(cases) - failures}/{len(cases)} ok")
    return EXIT_OK if failures == 0 else 1


def cmd_td(args) -> int:
    G = _read_graph(args.input)
    heuristic = _heuristic_name(args.heuristic)
    decompositions = [
        tree_decomposition(G.induced_subgraph(comp), heuristic)
        for comp in sorted(G.components(), key=lambda c: min(map(label_key, c)))
    ]
    if args.json:
        payload = {
            "components": [
                {
                    "bags": {str(i): sorted(map(str, b)) for i, b in td.bags.items()},
                    "tree_edges": sorted(map(list, td.tree_edges)),
                    "root": td.root,
                    "width": td.width,
                }
                for td in decompositions
            ],
            "width": max((td.width for td in decompositions), default=0),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for k, td in enumerate(decompositions):
            prefix = f"component {k} " if len(decompositions) > 1 else ""
            for i in sorted(td.bags):
                print(f"{prefix}bag {i}: {' '.join(sorted(map(str, td.bags[i])))}")
            for a, b in sorted(td.tree_edges):
                print(f"{prefix}edge {a} {b}")
        print(f"width {max((td.width for td in decompositions), default=0)}")
    return EXIT_OK


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="meccount",
        description="Count Markov equivalence classes with a given skeleton.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count classes over the input skeleton")
    c.add_argument("input")
    c.add_argument("--method", choices=("auto", "fpt", "brute"), default="auto")
    c.add_argument("--td", choices=("min-fill", "min-degree"), default="min-fill")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_count)

    e = sub.add_parser("enumerate", help="list every class over the input skeleton")
    e.add_argument("input")
    e.add_argument("--max-edges", type=_int_at_least(0), default=16)
    e.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="compare the engine against the brute oracle")
    v.add_argument("input", nargs="?")
    v.add_argument("--trials", type=_int_at_least(1), default=25)
    v.add_argument("--max-n", type=_int_at_least(2), default=6)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("td", help="show a tree decomposition of the input")
    t.add_argument("input")
    t.add_argument("--heuristic", choices=("min-fill", "min-degree"), default="min-fill")
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_td)
    return p


def main(argv=None) -> int:
    level = os.environ.get("MECCOUNT_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InternalInvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import meccount  # noqa: E402
from meccount import UndirectedGraph, brute_count_mecs  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _graph(g: workloads.Skeleton) -> UndirectedGraph:
    return UndirectedGraph(vertices=g.vertices, edges=g.edges)


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.STREAMS))
def test_same_seed_same_bytes(name):
    stream = workloads.STREAMS[name]
    first = "".join(stream(7, i).text() for i in range(24))
    again = "".join(stream(7, i).text() for i in range(24))
    other = "".join(stream(8, i).text() for i in range(24))
    assert first == again
    assert first != other
    assert workloads.digest(stream(7, i) for i in range(24)) == workloads.digest(
        stream(7, i) for i in range(24)
    )


@pytest.mark.parametrize("name", sorted(workloads.STREAMS))
def test_streams_are_connected_simple_graphs(name):
    for i in range(30):
        g = workloads.STREAMS[name](3, i)
        G = _graph(g)
        assert G.is_connected()
        assert len(set(g.edges)) == len(g.edges) == G.edge_count()


def test_thin_long_paths_and_cycles_keep_neighbours_in_label_order():
    # a shuffled labelling changes a cycle's cost several-fold; see workloads.py
    for i in range(30):
        g = workloads.thin_long(5, i)
        if not g.kind.startswith("tree"):
            n = len(g.vertices)
            assert all((v - u) % n in (1, n - 1) for u, v in g.edges), g.kind


def test_thin_long_graphs_take_the_engine_route():
    for i in range(30):
        g = workloads.thin_long(5, i)
        assert len(g.edges) > meccount.counting.AUTO_BRUTE_EDGE_THRESHOLD


# -- independent answers ----------------------------------------------------------


def test_closed_forms_match_the_oracle():
    for n in range(2, 11):
        G = UndirectedGraph(vertices=range(n), edges=workloads.path_edges(n))
        assert workloads.path_count(n) == brute_count_mecs(G)
    for n in range(4, 11):
        G = UndirectedGraph(vertices=range(n), edges=workloads.cycle_edges(n))
        assert workloads.cycle_count(n) == brute_count_mecs(G)
    assert workloads.path_count(40) == 102334155
    assert workloads.cycle_count(40) == 228826126


def test_tree_count_matches_the_oracle():
    for s in range(30):
        rng = random.Random(s)
        n = rng.randint(2, 12)
        edges = workloads.random_tree_edges(n, rng.choice((3, 4, n)), rng)
        G = UndirectedGraph(vertices=range(n), edges=edges)
        assert workloads.tree_count(edges, n) == brute_count_mecs(G), (s, n)


def test_pinned_counts_match_the_oracle():
    # the larger ladders take minutes under the oracle and were confirmed once
    assert brute_count_mecs(UndirectedGraph(edges=workloads.grid_edges(3, 3))) == workloads.PINNED["grid3x3"]
    assert brute_count_mecs(UndirectedGraph(edges=workloads.ladder_edges(6))) == workloads.PINNED["ladder2x6"]


def test_wrong_answer_is_reported():
    g = workloads.thin_long(1, 0)
    errors = run.check_answers(meccount, "thin-long", [g, g], [workloads.expected_count(g), 0])
    assert len(errors) == 1 and "expected" in errors[0]
    errors = run.check_answers(meccount, "oracle-batch", [g], [ValueError("boom")])
    assert errors == [f"{g.kind}: raised ValueError: boom"]


# -- tracer -------------------------------------------------------------------------


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "meccount" or name.startswith("meccount.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    pdag = meccount.graph.Pdag
    out.update({("Pdag", k): pdag.__dict__[k] for k in tracer.METHODS})
    return out


def test_tracer_restores_every_name():
    before = _bindings()
    with tracer.Tracer() as tr:
        assert meccount.counting.tree_decomposition is not before[("meccount.counting", "tree_decomposition")]
        tr.span(tracer.REQUEST, meccount.count_mecs, _graph(workloads.thin_long(1, 3)), "fpt")
    assert _bindings() == before
    assert tr.calls["counting._count_rec"] > 0 and tr.calls["graph.has_directed"] > 0


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.close()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        tr.span("child", child)

    tr.span("parent", parent)
    assert tr.total["parent"] >= tr.total["child"] >= 0.02
    assert tr.self_time["parent"] == pytest.approx(tr.total["parent"] - tr.total["child"])
    (cid, cparent, *_), (pid, pparent, *_) = tr.spans
    assert cparent == pid and pparent == -1


# -- metric names and output contract ------------------------------------------------


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv)
    return code, buf.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_printed_metrics_are_declared(name, trace):
    code, lines = _run(["--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # the human-readable lines name declared metrics only, plus failed_frac,
    # which restates failed / attempted and is 0 whenever the run is correct
    everything = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    printed = {ln.split()[0] for ln in lines[2:-1] if ln.startswith("  ") and ln.split()[0][0].isalpha()}
    printed = {p for p in printed if ":" not in p and p != "FAILED"}
    assert printed <= everything | {"failed_frac"}


def test_benchmark_declares_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_compare_refuses_different_stamps():
    rec = {"workload": "thin-long", "stamp": {"backend": "python"}, "metrics": {}}
    other = dict(rec, stamp={"backend": "numba"})
    code, lines = compare.compare([rec], [other], BENCH)
    assert code == 2 and "refusing" in lines[0]
    assert compare.compare([rec], [rec], BENCH)[0] == 0

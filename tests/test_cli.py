import json
import random
from pathlib import Path

import pytest

import meccount.cli
import meccount.counting
from meccount.cli import build_parser, main
from meccount.treedecomp import tree_decomposition

from conftest import ladder

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def fig1(tmp_path):
    p = tmp_path / "fig1.txt"
    p.write_text("A B\nA C\n")
    return str(p)


@pytest.fixture
def k3(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text("a b\nb c\na c\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_fig1_plain(self, capsys, fig1):
        code, out, _ = run(capsys, "count", fig1)
        assert code == 0
        assert out.strip() == "2"

    def test_k2(self, capsys, tmp_path):
        p = tmp_path / "k2.txt"
        p.write_text("a b\n")
        code, out, _ = run(capsys, "count", str(p))
        assert code == 0 and out.strip() == "1"

    def test_self_loop_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a a\n")
        code, _, err = run(capsys, "count", str(p))
        assert code == 2
        assert "self-loop" in err

    def test_duplicate_edge_exit_2(self, capsys, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("a b\nb a\n")
        code, _, err = run(capsys, "count", str(p))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "/nonexistent/file.txt")
        assert code == 2

    def test_json_schema_and_determinism(self, capsys, fig1):
        code, out1, _ = run(capsys, "count", fig1, "--json")
        code2, out2, _ = run(capsys, "count", fig1, "--json")
        assert code == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert set(d1) == {"count", "method", "width", "bags", "wall_time_ms"}
        d1.pop("wall_time_ms")
        d2.pop("wall_time_ms")
        assert d1 == d2
        assert d1["count"] == 2 and d1["method"] == "brute"

    def test_json_fpt_reports_width(self, capsys, fig1):
        code, out, _ = run(capsys, "count", fig1, "--method", "fpt", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["count"] == 2
        assert d["method"] == "fpt"
        assert isinstance(d["width"], int) and isinstance(d["bags"], int)

    def test_plain_count_decomposes_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return tree_decomposition(*args, **kwargs)

        monkeypatch.setattr(meccount.cli, "tree_decomposition", counted)
        monkeypatch.setattr(meccount.counting, "tree_decomposition", counted)
        p = tmp_path / "p31.txt"
        p.write_text("".join(f"{i} {i + 1}\n" for i in range(30)))
        code, out, _ = run(capsys, "count", str(p))
        assert code == 0
        assert out.strip() == "1346269"  # Fibonacci F(31)
        assert len(calls) == 1

    def test_json_reports_the_route_each_component_ran(self, capsys, tmp_path, monkeypatch):
        # auto decides per component, in the library and the CLI alike: two
        # disjoint 6-edge paths have 12 edges but go through brute
        engine = []
        real = meccount.counting._count_rec

        def counted(*args):
            engine.append(args[1])
            return real(*args)

        monkeypatch.setattr(meccount.counting, "_count_rec", counted)
        two = "".join(f"a{i} a{i + 1}\nb{i} b{i + 1}\n" for i in range(6))
        p = tmp_path / "two_paths.txt"
        p.write_text(two)
        code, out, _ = run(capsys, "count", str(p), "--json")
        assert code == 0 and not engine
        d = json.loads(out)
        assert (d["count"], d["method"], d["width"], d["bags"]) == (13 * 13, "brute", None, None)
        assert meccount.counting.count_mecs(meccount.cli.parse_edge_list(two)) == 13 * 13
        assert not engine
        # a 12-edge path beside them runs the engine alone; width and bags
        # describe its decomposition only
        p.write_text(two + "".join(f"c{i} c{i + 1}\n" for i in range(12)))
        code, out, _ = run(capsys, "count", str(p), "--json")
        d = json.loads(out)
        (td,) = engine
        assert d["count"] == 13 * 13 * 233  # F(7)^2 F(13)
        assert (d["method"], d["width"], d["bags"]) == ("brute+fpt", td.width, len(td.bags))

    def test_methods_agree(self, capsys, k3):
        _, out_b, _ = run(capsys, "count", k3, "--method", "brute")
        _, out_f, _ = run(capsys, "count", k3, "--method", "fpt")
        assert out_b == out_f

    def test_comments_and_blanks(self, capsys, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# heading\n\na b # trailing\nb c\n")
        code, out, _ = run(capsys, "count", str(p))
        assert code == 0 and out.strip() == "2"


class TestEnumerate:
    def test_fig1(self, capsys, fig1):
        code, out, _ = run(capsys, "enumerate", fig1)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "count 2"
        assert len(lines) == 3
        assert "A--B A--C" in lines
        assert "B->A C->A" in lines

    def test_k3_single_class(self, capsys, k3):
        code, out, _ = run(capsys, "enumerate", k3)
        lines = out.strip().splitlines()
        assert lines == ["a--b a--c b--c", "count 1"]

    def test_empty_graph(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        code, out, _ = run(capsys, "enumerate", str(p))
        assert code == 0 and out.strip() == "count 1"

    def test_capacity_exit_3(self, capsys, k3):
        code, _, err = run(capsys, "enumerate", k3, "--max-edges", "2")
        assert code == 3


class TestVerify:
    def test_input_passes(self, capsys, fig1):
        code, out, _ = run(capsys, "verify", fig1)
        assert code == 0
        assert out.startswith("PASS")

    def test_random_trials_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "6", "--max-n", "5", "--seed", "1")
        assert code == 0
        assert out.count("PASS") == 6

    def test_corrupt_hook_fails(self, capsys, fig1, monkeypatch):
        # an engine that answers one too many must be reported
        real = meccount.cli.count_mecs

        def off_by_one(G, method="auto"):
            return real(G, method) + 1 if method == "fpt" else real(G, method)

        monkeypatch.setattr(meccount.cli, "count_mecs", off_by_one)
        code, out, _ = run(capsys, "verify", fig1)
        assert code != 0
        assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "1"],
        ["verify", "--max-n", "0"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-3"],
        ["enumerate", "FIG1", "--max-edges", "-1"],
    ],
)
def test_out_of_range_option_is_input_error(capsys, fig1, argv):
    argv = [fig1 if a == "FIG1" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


class TestTd:
    def test_tree_width_one(self, capsys, tmp_path):
        p = tmp_path / "tree.txt"
        p.write_text("a b\nb c\nb d\n")
        code, out, _ = run(capsys, "td", str(p))
        assert code == 0
        assert out.strip().splitlines()[-1] == "width 1"

    def test_k4_width_three(self, capsys, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text("a b\na c\na d\nb c\nb d\nc d\n")
        code, out, _ = run(capsys, "td", str(p))
        assert out.strip().splitlines()[-1] == "width 3"

    def test_c4_width_two_json(self, capsys, tmp_path):
        p = tmp_path / "c4.txt"
        p.write_text("a b\nb c\nc d\nd a\n")
        code, out, _ = run(capsys, "td", str(p), "--json")
        assert code == 0
        d = json.loads(out)
        assert d["width"] == 2
        assert len(d["components"]) == 1

    def test_root_is_the_bag_count_folds_from(self, capsys, tmp_path, monkeypatch):
        # a degree-3 tree whose fold costs least away from bag 0
        p = tmp_path / "tree.txt"
        p.write_text("a b\nb c\nb d\nd e\ne f\ne g\ng h\nh i\nh j\nc k\nk l\nk m\n")
        folded = []
        real = meccount.counting._count_rec

        def recorded(nbrs, td):
            folded.append(td.root)
            return real(nbrs, td)

        monkeypatch.setattr(meccount.counting, "_count_rec", recorded)
        assert run(capsys, "count", str(p), "--method", "fpt")[0] == 0
        _, out, _ = run(capsys, "td", str(p), "--json")
        assert [c["root"] for c in json.loads(out)["components"]] == folded != [0]
        _, out, _ = run(capsys, "td", str(p))
        assert out.strip().splitlines()[-2:] == [f"root {folded[0]}", "width 1"]

    def test_shuffled_ladder_has_the_ordered_ladders_shape(self, capsys, tmp_path):
        edges = ladder(9).edges
        perm = list(range(18))
        random.Random(7).shuffle(perm)
        shapes = []
        for name, pairs in (("ordered", edges), ("shuffled", [(perm[u], perm[v]) for u, v in edges])):
            p = tmp_path / f"{name}.txt"
            p.write_text("".join(f"{u} {v}\n" for u, v in pairs))
            _, out, _ = run(capsys, "td", str(p), "--json")
            [td] = json.loads(out)["components"]
            sizes = {i: len(b) for i, b in td["bags"].items()}
            shapes.append((td["width"], len(td["bags"]), td["root"], td["tree_edges"], sizes))
        # bags break ties by a breadth-first walk, so the shuffled ladder's
        # bags sit where the ordered ladder's do
        assert shapes[0] == shapes[1]


def test_readme_cli_lines_parse():
    # parse only: every documented invocation must name existing options
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].split() for ln in block.splitlines() if ln.startswith("meccount ")]
    assert len(lines) >= 5
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {' '.join(argv)}")

import hashlib
import json
from unittest import mock

import pytest

from nmpkit import BipartiteGraph, build_euclidean_tree, load_graph, parse_graph, pseudo, serialize_graph
from nmpkit.cli import main

from conftest import complete_graph


@pytest.fixture
def k23_file(tmp_path):
    path = tmp_path / "k23.graph"
    path.write_text(serialize_graph(complete_graph(2, 3)))
    return str(path)


@pytest.fixture
def empty22_file(tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("p bipartite 2 2\n")
    return str(path)


def test_check_has_nmp(k23_file, capsys):
    assert main(["check", k23_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("has_nmp")
    assert "row_sum=3" in out


def test_check_violated_is_exit_zero(empty22_file, capsys):
    assert main(["check", empty22_file]) == 0
    assert capsys.readouterr().out.startswith("violated")


def test_check_json(k23_file, capsys):
    assert main(["check", k23_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "has_nmp"
    assert payload["row_sum"] == 3 and payload["col_sum"] == 2


def test_check_emit_multiplicity(k23_file, tmp_path, capsys):
    out = tmp_path / "mult.txt"
    assert main(["check", k23_file, "--emit-multiplicity", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("m ") for line in lines)
    total = sum(int(line.split()[3]) for line in lines)
    assert total == 2 * 3  # row sums 3 over 2 rows


def test_check_emit_multiplicity_of_a_violated_graph_exits_1(empty22_file, tmp_path, capsys):
    out = tmp_path / "mult.txt"
    assert main(["check", empty22_file, "--emit-multiplicity", str(out)]) == 1
    assert capsys.readouterr().err == "no multiplicity function: graph is violated\n"
    assert not out.exists()


def test_check_emit_multiplicity_bytes_are_pinned(tmp_path, capsys):
    gfile = tmp_path / "g.graph"
    out = tmp_path / "mult.txt"
    main(["gen", "gnp", "--k", "40", "--n", "60", "--p", "0.5", "--seed", "7",
          "--out", str(gfile)])
    assert main(["check", str(gfile), "--emit-multiplicity", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"m 0 0 0\nm 0 1 0\nm 0 4 0\n")
    assert hashlib.sha256(data).hexdigest() == (
        "829802668b9d96b964e5d489a21a960a4af76799da2c745e8442c70bd191a3d0"
    )
    # One line per edge of the graph, in edge order, with row sums n/g = 3
    # and column sums k/g = 2.
    g = load_graph(str(gfile))
    lines = [tuple(map(int, line.split()[1:])) for line in data.decode().splitlines()]
    assert [(x, y) for x, y, _ in lines] == list(g.edges())
    rows, cols = [0] * g.k, [0] * g.n
    for x, y, m in lines:
        assert m >= 0
        rows[x] += m
        cols[y] += m
    assert set(rows) == {3} and set(cols) == {2}


def test_unknown_flag_exits_2(k23_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", k23_file, "--frobnicate"])
    assert exc.value.code == 2


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("p bipartite 2 2\ne 0 9\n")
    assert main(["check", str(path)]) == 2
    assert "format error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/g.graph"]) == 2


def test_tree_emit_and_verify(tmp_path, capsys):
    out = tmp_path / "t.graph"
    assert main(["tree", "--l", "3", "--L", "7", "--emit", str(out), "--verify"]) == 0
    g = load_graph(str(out))
    assert (g.k, g.n, g.edge_count) == (3, 7, 9)
    assert "nmp=has_nmp" in capsys.readouterr().err


def test_tree_without_emit_writes_the_tree_to_stdout(capsys):
    assert main(["tree", "--l", "3", "--L", "7"]) == 0
    assert parse_graph(capsys.readouterr().out) == build_euclidean_tree(3, 7).graph


def test_tree_non_coprime_exits_1(capsys):
    assert main(["tree", "--l", "4", "--L", "6"]) == 1
    assert "coprime" in capsys.readouterr().err


def test_gen_gnp_round_trip(tmp_path, capsys):
    out = tmp_path / "g.graph"
    assert main(["gen", "gnp", "--k", "30", "--n", "40", "--p", "0.3",
                 "--seed", "17", "--out", str(out)]) == 0
    g = load_graph(str(out))
    from nmpkit import gen_gnp

    assert g == gen_gnp(30, 40, 0.3, 17)


def test_gen_pg2_stdout(capsys):
    assert main(["gen", "pg2", "--q", "2"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert (g.k, g.n) == (7, 7)


def test_gen_sumcayley_with_list(tmp_path, capsys):
    xlist = tmp_path / "x.txt"
    xlist.write_text("0 1 2\n")
    out = tmp_path / "sc.graph"
    assert main(["gen", "sumcayley", "--q", "13", "--d", "2",
                 "--x-list", str(xlist), "--out", str(out)]) == 0
    g = load_graph(str(out))
    assert (g.k, g.n) == (3, 13)


@pytest.mark.parametrize("content, error", [
    (b"0 1\n2 \xff\n", "format error: not valid UTF-8"),
    (b"0, 1\n2 x 3\n", "format error: line 2: not an integer: 'x'"),
])
def test_gen_sumcayley_list_file_errors_are_format_errors(content, error, tmp_path, capsys):
    xlist = tmp_path / "x.txt"
    xlist.write_bytes(content)
    assert main(["gen", "sumcayley", "--q", "5", "--d", "2", "--x-list", str(xlist)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--x-all", "--y-all"])
def test_gen_sumcayley_has_no_all_flags(flag):
    # X and Y default to all of F_q; there is no flag for the default.
    with pytest.raises(SystemExit) as exc:
        main(["gen", "sumcayley", "--q", "13", "--d", "2", flag])
    assert exc.value.code == 2


def test_verify_pseudo(tmp_path, capsys):
    out = tmp_path / "pg.graph"
    main(["gen", "pg2", "--q", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify-pseudo", str(out), "--p", "4/13", "--eps", "0"]) == 0
    assert capsys.readouterr().out.startswith("pass")
    assert main(["verify-pseudo", str(out), "--estimate"]) == 0
    assert "estimated p=" in capsys.readouterr().out


@pytest.mark.parametrize("argv, scans, out", [
    (["--p", "4/13"], 1, "pass min_left_degree=4 max_codegree=1\n"),
    (["--estimate", "--p", "5/13"], 1,
     "estimated p=0.307692 (4/13) eps=0 (0)\nfail min_left_degree=4 max_codegree=1 violating_vertex=0\n"),
    # The estimate alone is verified like any claimed parameters, from the
    # estimate's own scan.
    (["--estimate"], 1, "estimated p=0.307692 (4/13) eps=0 (0)\npass min_left_degree=4 max_codegree=1\n"),
])
def test_verify_pseudo_scans_once_per_parameter_set(tmp_path, capsys, argv, scans, out):
    path = tmp_path / "pg.graph"
    main(["gen", "pg2", "--q", "3", "--out", str(path)])
    capsys.readouterr()
    with mock.patch.object(pseudo, "_codegrees", wraps=pseudo._codegrees) as scan:
        assert main(["verify-pseudo", str(path), *argv]) == 0
    assert scan.call_count == scans
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("edges, argv, out, error", [
    ([(0, 0)], ["--estimate", "--p", "1/3"], "", "error: parameter estimation requires k >= 2\n"),
    ([(0, 0), (2, 1)], ["--estimate", "--p", "1/3"], "",
     "error: graph has an isolated left vertex; p would be 0\n"),
    ([(0, 0), (1, 0), (1, 1)], ["--estimate", "--p", "0"], "estimated p=0.333333 (1/3) eps=2 (2)\n",
     "error: p must be in (0, 1], got 0\n"),
])
def test_verify_pseudo_estimate_errors_come_first(tmp_path, capsys, edges, argv, out, error):
    # With --estimate, the estimate's own errors come before --p's, and a bad
    # --p is reported after the estimate is printed.
    path = tmp_path / "g.graph"
    k = max(x for x, _ in edges) + 1
    path.write_text(serialize_graph(BipartiteGraph.from_edges(k, 3, edges)))
    assert main(["verify-pseudo", str(path), *argv]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, error)


def test_verify_pseudo_needs_p_or_estimate(tmp_path, capsys):
    out = tmp_path / "pg.graph"
    main(["gen", "pg2", "--q", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify-pseudo", str(out), "--eps", "0"]) == 2
    assert capsys.readouterr() == ("", "either --p or --estimate is required\n")


def test_verify_pseudo_warns_large_eps(tmp_path, capsys):
    out = tmp_path / "pg.graph"
    main(["gen", "pg2", "--q", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify-pseudo", str(out), "--p", "4/13", "--eps", "2"]) == 0
    assert "warning" in capsys.readouterr().err


def test_audit_cli(tmp_path, capsys):
    out = tmp_path / "pg.graph"
    main(["gen", "pg2", "--q", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["audit", str(out), "--p", "4/13", "--eps", "0",
                 "--samples", "50", "--seed", "3"]) == 0
    assert "violations=0" in capsys.readouterr().out


def test_audit_cli_alon_bourgain(tmp_path, capsys):
    out = tmp_path / "sc.graph"
    main(["gen", "sumcayley", "--q", "101", "--d", "2", "--out", str(out)])
    capsys.readouterr()
    audit = ["audit", str(out), "--alon-bourgain", "--q", "101", "--samples", "50", "--seed", "3"]
    assert main(audit + ["--h-size", "50"]) == 0
    assert "form=alon_bourgain samples=50 violations=0" in capsys.readouterr().out
    assert main(audit) == 2
    assert capsys.readouterr().err == "--alon-bourgain needs --q and --h-size\n"


def test_audit_cli_without_p_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "pg.graph"
    main(["gen", "pg2", "--q", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["audit", str(out), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "--p is required unless --alon-bourgain is given\n" and "Traceback" not in err


def test_verify_pseudo_names_the_violation(tmp_path, capsys):
    out = tmp_path / "pg.graph"
    main(["gen", "pg2", "--q", "3", "--out", str(out)])
    capsys.readouterr()
    # PG(2, 3): every degree is 4 and every codegree 1.
    assert main(["verify-pseudo", str(out), "--p", "5/13", "--eps", "0"]) == 0
    assert capsys.readouterr().out == "fail min_left_degree=4 max_codegree=1 violating_vertex=0\n"
    assert main(["verify-pseudo", str(out), "--p", "3/13", "--eps", "0"]) == 0
    assert capsys.readouterr().out == "fail min_left_degree=4 max_codegree=1 violating_pair=0,1\n"


def test_robust_delete_cli(tmp_path, capsys):
    out = tmp_path / "pg11.graph"
    main(["gen", "pg2", "--q", "11", "--out", str(out)])
    capsys.readouterr()
    assert main(["robust-delete", str(out), "--p0", "12/133", "--eps0", "0",
                 "--eps", "0.3", "--D", "3", "--seed", "5"]) == 0
    assert "reverify=pass" in capsys.readouterr().out


def test_decompose_cli(tmp_path, capsys):
    gfile = tmp_path / "g.graph"
    main(["gen", "gnp", "--k", "60", "--n", "100", "--p", "0.6",
          "--seed", "8", "--out", str(gfile)])
    capsys.readouterr()
    trace = tmp_path / "trace.json"
    factor = tmp_path / "factor.txt"
    assert main(["decompose", str(gfile), "--eps", "0.05", "--mode", "b",
                 "--trace-json", str(trace), "--emit-factor", str(factor)]) == 0
    payload = json.loads(trace.read_text())
    assert payload["case"] == "b"
    assert payload["trace"]["stages"]
    assert all(
        set(s) >= {"index", "anchor_side", "q", "s_size", "a_size", "b_size",
                   "corrupt_copies", "corrupt_x", "corrupt_y", "d_x", "d_y", "within_d0"}
        for s in payload["trace"]["stages"]
    )
    first = factor.read_text().splitlines()[0]
    assert first.startswith("copy 0: X ") and " | Y " in first


def test_decompose_cli_case_a_trace(tmp_path, capsys):
    gfile = tmp_path / "wide.graph"
    main(["gen", "gnp", "--k", "10", "--n", "95", "--p", "0.7",
          "--seed", "3", "--out", str(gfile)])
    capsys.readouterr()
    trace = tmp_path / "trace.json"
    assert main(["decompose", str(gfile), "--eps", "0.05", "--mode", "a",
                 "--trace-json", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    assert payload["case"] == "a" and "case_b" not in payload
    tr = payload["trace"]
    assert (tr["k"], tr["n"], tr["ell"], tr["L"], tr["m"]) == (10, 90, 1, 9, 1)
    assert len(tr["stages"]) == 1 and tr["stages"][0]["q"] == 9
    assert tr["stages"][0]["d_x"] == len(payload["x_hat"])


def test_decompose_cli_reports_an_emptied_side(tmp_path, capsys):
    # No edges: every case-(a) anchor fails and both sides are deleted whole.
    gfile = tmp_path / "empty.graph"
    gfile.write_text("p bipartite 2 6\n")
    trace = tmp_path / "trace.json"
    assert main(["decompose", str(gfile), "--eps", "0.5", "--mode", "a",
                 "--trace-json", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "|X_hat|=2 |Y_hat|=6" in out and out.rstrip().endswith("remainder_nmp=no")
    payload = json.loads(trace.read_text())
    assert payload["remainder_nmp_verified"] is False
    assert (payload["x_hat"], payload["y_hat"]) == ([0, 1], list(range(6)))
    assert len(payload["trace"]["stages"]) == 1


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--k", "6", "--n", "8", "--p-list", "0,1",
                 "--trials", "5", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "p"
    assert len(lines) == 4


def test_sweep_csv_bytes_are_pinned(tmp_path, capsys):
    # Unequal sides (60 vs 90): quotas ceil(90/60) = 2 on the left and
    # ceil(60/90) = 1 on the right, so both degree tests settle trials.
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--k", "60", "--n", "90", "--c-list", "0.5,1.0,1.5,2.0",
                 "--trials", "40", "--seed", "9", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6b629d21c6066653f3a626765d680be2065e2c8a9db02db3a12beabce9d5b8e2"
    )


def test_sweep_requires_one_grid(capsys):
    assert main(["sweep", "--k", "4", "--n", "4", "--trials", "2", "--seed", "1"]) == 2


def test_sweep_rejects_grids_it_cannot_convert(capsys):
    for args in (["--k", "3", "--n", "1", "--p-list", "0.5"],
                 ["--k", "0", "--n", "5", "--c-list", "1"],
                 ["--k", "3", "--n", "5", "--c-list", "nan"],
                 ["--k", "3", "--n", "5", "--c-list", "-1"]):
        assert main(["sweep", *args, "--trials", "2", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("option, value, what", [
    ("--sigma", "a,b", "integers"),
    ("--pi", "0,1,", "integers"),
    ("--p-list", "0.5,,0.2", "numbers"),
    ("--c-list", "1,x", "numbers"),
])
def test_list_option_that_does_not_parse_is_a_usage_error(option, value, what, k23_file, capsys):
    if option in ("--sigma", "--pi"):
        argv = ["greedy", k23_file, "--r", "1", option, value]
    else:
        argv = ["sweep", "--k", "4", "--n", "4", "--trials", "2", "--seed", "1", option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: not a comma-separated list of {what}: {value!r}" in err


@pytest.mark.parametrize("command", ["check", "star"])
def test_file_that_is_not_utf8_is_a_format_error(command, tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"p bipartite 1 1\ne 0 0\n# \xff\n" if command == "check" else b"*\xff\n")
    assert main([command, str(f)]) == 2
    assert capsys.readouterr().err.startswith("format error: not valid UTF-8")


def test_star_cli(tmp_path, capsys):
    f = tmp_path / "a.star"
    f.write_text("***\n***\n")
    assert main(["star", str(f)]) == 0
    assert "R=3 C=2" in capsys.readouterr().out


def test_star_cli_infeasible_exit_zero(tmp_path, capsys):
    f = tmp_path / "a.star"
    f.write_text("*0\n*0\n")
    assert main(["star", str(f)]) == 0
    assert "INFEASIBLE" in capsys.readouterr().out


def test_greedy_cli(tmp_path, capsys):
    gfile = tmp_path / "c6.graph"
    gfile.write_text(
        "p bipartite 3 3\ne 0 0\ne 0 1\ne 1 1\ne 1 2\ne 2 2\ne 2 0\n"
    )
    assert main(["greedy", str(gfile), "--r", "1"]) == 0
    assert capsys.readouterr().out.strip() == "m_r=3 k=3"
    assert main(["greedy", str(gfile), "--r", "1", "--bruteforce"]) == 0
    assert "rho=2/3" in capsys.readouterr().out
    assert main(["greedy", str(gfile), "--r", "1", "--sigma", "0,2,1", "--pi", "1,2,0"]) == 0
    assert capsys.readouterr().out.strip() == "m_r=2 k=3"
    assert main(["greedy", str(gfile), "--r", "1", "--sigma", "0,0,1"]) == 1
    assert capsys.readouterr().err == "error: sigma is not a permutation of range(3)\n"

import hashlib
import json

import pytest

from resspace import cli
from resspace.cli import main
from resspace.formats import graph_from_text


def run(argv):
    return main(argv)


def test_gen_writes_files(tmp_path, capsys):
    out = tmp_path / "pyr2"
    assert run(["gen", "--graph", "pyramid:2", "--f", "xor:2", "--out", str(out)]) == 0
    cnf = (out.with_suffix(".cnf")).read_text()
    assert "p cnf 12 " in cnf
    assert "c substitution f=xor d=2 base_vars=6" in cnf
    manifest = json.loads(out.with_suffix(".json").read_text())
    assert manifest["variables"] == 12
    assert manifest["seed"] == 0


def test_gen_identity_clause_count(tmp_path):
    out = tmp_path / "p3"
    assert run(["gen", "--graph", "path:3", "--f", "identity", "--out", str(out)]) == 0
    cnf = out.with_suffix(".cnf").read_text()
    assert "p cnf 3 4" in cnf  # n+1 clauses


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["gen", "--graph", "pyramid:1", "--f", "xor:2", "--out", str(a)])
    run(["gen", "--graph", "pyramid:1", "--f", "xor:2", "--out", str(b)])
    assert a.with_suffix(".cnf").read_bytes() == b.with_suffix(".cnf").read_bytes()
    assert a.with_suffix(".graph").read_bytes() == b.with_suffix(".graph").read_bytes()


def test_bad_family_usage_exit(capsys):
    assert run(["gen", "--graph", "torus:3", "--out", "/tmp/x"]) == 2


def test_compile_check_round_trip(tmp_path, capsys):
    out = tmp_path / "peb"
    run(["gen", "--graph", "path:2", "--f", "xor:2", "--out", str(out)])
    proof = tmp_path / "p.proof"
    assert (
        run(
            [
                "compile",
                "--graph",
                "path:2",
                "--f",
                "xor:2",
                "--out",
                str(proof),
            ]
        )
        == 0
    )
    assert (
        run(["check", "--formula", str(out.with_suffix(".cnf")), "--proof", str(proof)])
        == 0
    )
    captured = capsys.readouterr()
    assert "refutation ok" in captured.out


def test_check_rejects_corrupted_trace(tmp_path, capsys):
    out = tmp_path / "peb"
    run(["gen", "--graph", "path:2", "--f", "identity", "--out", str(out)])
    proof = tmp_path / "p.proof"
    run(["compile", "--graph", "path:2", "--f", "identity", "--out", str(proof)])
    lines = proof.read_text().splitlines()
    # corrupt the first cut's first premise id
    for i, line in enumerate(lines):
        if line.startswith("i cut "):
            parts = line.split()
            parts[2] = "99"
            lines[i] = " ".join(parts)
            break
    proof.write_text("\n".join(lines) + "\n")
    assert (
        run(["check", "--formula", str(out.with_suffix(".cnf")), "--proof", str(proof)])
        == 1
    )


def test_pipeline_ok(capsys):
    assert run(["pipeline", "--graph", "pyramid:1", "--f", "xor:2"]) == 0
    out = capsys.readouterr().out
    assert "pipeline ok" in out
    assert "space bound" in out


def test_pipeline_with_seventeen_formula_boards(capsys):
    # its refutation's boards hold up to 17 formulas, projected in subset mode
    assert run(["pipeline", "--graph", "pyramid:2", "--f", "maj:3"]) == 0
    assert "pipeline ok" in capsys.readouterr().out


def test_pipeline_identity(capsys):
    assert run(["pipeline", "--graph", "path:2", "--f", "identity"]) == 0


def test_extract_from_trace(tmp_path, capsys):
    proof = tmp_path / "p.proof"
    run(["compile", "--graph", "pyramid:1", "--f", "xor:2", "--out", str(proof)])
    peb = tmp_path / "p.moves"
    assert (
        run(
            [
                "extract",
                "--graph",
                "pyramid:1",
                "--f",
                "xor:2",
                "--proof",
                str(proof),
                "--out",
                str(peb),
            ]
        )
        == 0
    )
    assert peb.read_text().startswith("pb ")


def test_tradeoff_csv(tmp_path):
    csv = tmp_path / "t.csv"
    assert (
        run(
            [
                "tradeoff",
                "--graph",
                "path:4",
                "--f",
                "identity",
                "--space",
                "2:4",
                "--out",
                str(csv),
            ]
        )
        == 0
    )
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# seed=0")
    assert lines[1].startswith("graph,n,space_budget,")
    rows = [l.split(",") for l in lines[2:]]
    assert [r[2] for r in rows] == ["2", "3", "4"]
    assert all(r[3] == "7" for r in rows)  # paths gain nothing from space


def test_tradeoff_marks_infeasible(tmp_path):
    csv = tmp_path / "t.csv"
    run(
        [
            "tradeoff",
            "--graph",
            "pyramid:1",
            "--f",
            "identity",
            "--space",
            "2:3",
            "--out",
            str(csv),
        ]
    )
    lines = csv.read_text().splitlines()
    assert lines[2].endswith("INFEASIBLE")
    assert lines[3].endswith("ok")


def test_tradeoff_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["tradeoff", "--graph", "bit_reversal:1", "--space", "3:5"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_tradeoff_output_pinned(tmp_path):
    csv = tmp_path / "t.csv"
    args = ["tradeoff", "--graph", "bit_reversal:2", "--f", "xor:2", "--space", "1:8"]
    assert run(args + ["--out", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "0b9a75f9cebd68ffc82d76d960e6c33e3e4ddeca8e612f824206d61cf6292522"
    )


def test_minunsat_check(tmp_path, capsys):
    f = tmp_path / "set.kdnf"
    assert run(["minunsat", "--construct", "3:2", "--out", str(f)]) == 0
    capsys.readouterr()
    assert run(["minunsat", "--check", str(f)]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "21c0cfe0435fd5a8e3883240f8ffd24be6e69ecf440e20709398c1523f55181b"
    )
    # the paper's eq22 set, unsatisfiable but not minimally
    f.write_text("p kdnf k=2 m=2\n1\n-1^2|-1^3\n")
    assert run(["minunsat", "--check", str(f)]) == 1
    assert _sha256(capsys.readouterr().out) == (
        "d4d155da9401628cc7a77b632fcca4ee42b6c3ddd83a12f818278465aa7af3e8"
    )


def test_minunsat_check_over_the_variable_cap_exits_3(tmp_path, capsys):
    f = tmp_path / "set.kdnf"
    f.write_text("p kdnf k=1 m=2\n" + "|".join(map(str, range(1, 26))) + "\n-1\n")
    assert run(["minunsat", "--check", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error [TOO_MANY_VARIABLES]: 25 variables exceed brute-force cap 24\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        "p kdnf k=0 m=1\n1\n",
        "p kdnf k=1 m=1\n1\np kdnf k=2 m=1\n-1\n",
        "p kdnf k=1 m=3\n1\n-1\n",
    ],
)
def test_minunsat_check_malformed_header_exits_2(tmp_path, capsys, text):
    f = tmp_path / "set.kdnf"
    f.write_text(text)
    assert run(["minunsat", "--check", str(f)]) == 2
    err = capsys.readouterr().err
    assert "error [FORMAT]" in err
    assert "Traceback" not in err


def test_minunsat_enumerate(capsys):
    assert run(["minunsat", "--k", "1", "--max-vars", "2", "--max-formulas", "3"]) == 0
    out = capsys.readouterr().out
    assert "p kdnf k=1" in out


def test_minunsat_enumerate_output_is_pinned(capsys):
    # the 5,694 classes of clause sets over 4 variables with at most 6
    # clauses, byte for byte
    argv = ["minunsat", "--k", "1", "--max-vars", "4", "--max-formulas", "6"]
    assert run(argv) == 0
    out = capsys.readouterr()
    assert "c found 5694 sets" in out.err
    assert _sha256(out.out) == (
        "6051d6af7b63618b1028d6fa38f942065f7ffa7f7d1a6d17999075a5c1f97c5c"
    )


def test_minunsat_default_max_formulas_depends_on_k(capsys):
    # 4 formulas for k=1, 3 (the k-DNF enumeration's limit) for k >= 2
    assert run(["minunsat", "--k", "2", "--max-vars", "2"]) == 0
    default = capsys.readouterr()
    assert run(["minunsat", "--k", "2", "--max-vars", "2", "--max-formulas", "3"]) == 0
    assert capsys.readouterr() == default
    assert "c found 12 sets" in default.err
    assert run(["minunsat", "--k", "1", "--max-vars", "2"]) == 0
    default = capsys.readouterr()
    assert run(["minunsat", "--k", "1", "--max-vars", "2", "--max-formulas", "4"]) == 0
    assert capsys.readouterr() == default


def test_pebble_min_time(capsys):
    assert (
        run(["pebble", "--graph", "path:3", "--mode", "black", "--min-time-for-space", "2"])
        == 0
    )
    assert "min_time" in capsys.readouterr().out


def test_pebble_min_time_output_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # stdout names the --out path
    args = ["pebble", "--graph", "pyramid:4", "--min-time-for-space", "6"]
    assert run(args + ["--out", "p.moves"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "4233d01720fff2f7955ac24faa77040818fb95067c8e7cd09f3e1a79a7b695e0"
    )
    assert hashlib.sha256((tmp_path / "p.moves").read_bytes()).hexdigest() == (
        "8074af6aeb2ffe989c21f8ba41bdbef55ebc3d45092b5c9ddf7258c75f7c17d9"
    )


def test_graph_with_many_sinks_exits_1(monkeypatch, capsys):
    # no subcommand reads graph files, so the family builder is replaced by
    # the reader of a file that declares a million vertices
    text = "c n=1000000\ne 1 2\n"
    monkeypatch.setattr(cli, "make_graph", lambda family, param: graph_from_text(text))
    assert run(["pebble", "--graph", "path:2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [MULTIPLE_SINKS]: expected one sink, found 999999: ")
    assert len(err) < 100


def test_cap_exit_code():
    assert run(["pebble", "--graph", "path:30", "--mode", "black"]) == 3


def test_minunsat_cover_output_limit_exits_3(monkeypatch, capsys):
    # the ENUM_COVERS cap, lowered so a tiny enumeration hits it
    monkeypatch.setenv("RESSPACE_UNSAFE_ENUM_COVERS", "5")
    argv = ["minunsat", "--k", "1", "--max-vars", "2", "--max-formulas", "3"]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err == "error [CAP_EXCEEDED]: cover enumeration found more than 5 covers\n"


def test_selftest(capsys):
    assert run(["selftest"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_project_command(tmp_path, capsys):
    from resspace.compilers import pebbling_formula
    from resspace.formats import cnf_to_dimacs
    from resspace.graphs import path_graph

    base = tmp_path / "base.cnf"
    base.write_text(cnf_to_dimacs(pebbling_formula(path_graph(2)).base))
    proof = tmp_path / "p.proof"
    run(["compile", "--graph", "path:2", "--f", "xor:2", "--out", str(proof)])
    assert (
        run(
            [
                "project",
                "--base",
                str(base),
                "--f",
                "xor:2",
                "--proof",
                str(proof),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "t=0 {}" in out
    assert "{0}" in out  # the final configurations project the empty clause


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _write_base(path, graph):
    from resspace.compilers import pebbling_formula
    from resspace.formats import cnf_to_dimacs
    from resspace.graphs import make_graph

    family, _, param = graph.partition(":")
    path.write_text(cnf_to_dimacs(pebbling_formula(make_graph(family, int(param))).base))


@pytest.mark.parametrize(
    "graph, f, extra, lines, digest",
    [
        ("path:2", "xor:2", [], 42,
         "4c2d71695b9f2ab8d873e17c1314b44497c34dd0881c8ac55bc0bcd6e14e1cdc"),
        ("path:3", "maj:3", ["--mode", "whole_set"], 420,
         "a02a772e5b458dae40da566713acb66685040f143a5dc716d77440fd30cfb941"),
        ("pyramid:2", "xor:2", ["--mode", "whole_set"], 498,
         "1cdfd17a89b06ddfa7491361789fd863e40a06d80e2464f423def6c14694392b"),
    ],
    ids=["path:2/xor:2/subset", "path:3/maj:3/k=d/whole_set", "pyramid:2/xor:2/k=d/whole_set"],
)
def test_project_output_pinned(tmp_path, capsys, graph, f, extra, lines, digest):
    """Every line of ``resspace project``: one projected set per board."""
    base, proof = tmp_path / "base.cnf", tmp_path / "p.proof"
    _write_base(base, graph)
    k = ["--k", "d"] if extra else []
    run(["compile", "--graph", graph, "--f", f, *k, "--out", str(proof)])
    capsys.readouterr()
    argv = ["project", "--base", str(base), "--f", f, "--proof", str(proof), *extra]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert _sha256(out) == digest


def test_extract_pipeline_and_check_output_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["compile", "--graph", "pyramid:2", "--f", "xor:2", "--out", "p.proof"])
    run(["gen", "--graph", "pyramid:2", "--f", "xor:2", "--out", "peb"])
    capsys.readouterr()
    argv = ["extract", "--graph", "pyramid:2", "--f", "xor:2", "--proof", "p.proof"]
    assert run(argv + ["--out", "p.moves"]) == 0
    assert capsys.readouterr().out == "pebbling time=11 space=4\nwrote p.moves\n"
    assert _sha256((tmp_path / "p.moves").read_text()) == (
        "09a5c5d30b19dfca430227e583f325ca77d7d4887bcde9f87a916529ea7615bd"
    )
    assert run(["pipeline", "--graph", "pyramid:2", "--f", "xor:2"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "4d4922b8667ec963a832722f9ad619341fe7a6c2c52c3c941fff8d28522f0d6a"
    )
    assert run(["check", "--formula", "peb.cnf", "--proof", "p.proof"]) == 0
    assert capsys.readouterr().out == (
        "refutation ok: length=125 formula_space=12 total_space=38 "
        "variable_space=8 width=6\n"
    )


def test_project_over_the_base_cap_exits_3(tmp_path, capsys):
    # pyramid:4 has 15 vertices, above the cap of 12 base variables
    base, proof = tmp_path / "base.cnf", tmp_path / "p.proof"
    _write_base(base, "pyramid:4")
    run(["compile", "--graph", "pyramid:4", "--f", "xor:2", "--out", str(proof)])
    capsys.readouterr()
    argv = ["project", "--base", str(base), "--f", "xor:2", "--proof", str(proof)]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error [CAP_EXCEEDED]: 15 base variables exceed projection cap" in captured.err
    assert "Traceback" not in captured.err


def test_project_kdnf_proof_in_subset_mode_exits_2(tmp_path, capsys):
    # subset mode takes clauses; a k=d proof holds wider terms
    from resspace.compilers import pebbling_formula
    from resspace.formats import cnf_to_dimacs
    from resspace.graphs import path_graph

    base = tmp_path / "base.cnf"
    base.write_text(cnf_to_dimacs(pebbling_formula(path_graph(3)).base))
    proof = tmp_path / "p.proof"
    run(["compile", "--graph", "path:3", "--f", "maj:3", "--k", "d", "--out", str(proof)])
    argv = ["project", "--base", str(base), "--f", "maj:3", "--proof", str(proof)]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error [INVALID_PARAM]" in err
    assert "--mode whole_set" in err
    assert "Traceback" not in err
    assert run(argv + ["--mode", "whole_set"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("{0}")


def test_extract_kdnf_proof_exits_2(tmp_path, capsys):
    # translation takes resolution refutations; extract has no --mode to offer
    proof = tmp_path / "p.proof"
    run(["compile", "--graph", "path:3", "--f", "maj:3", "--k", "d", "--out", str(proof)])
    capsys.readouterr()
    argv = ["extract", "--graph", "path:3", "--f", "maj:3", "--proof", str(proof)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error [INVALID_PARAM]" in err
    assert "resolution (k=1) refutations only" in err
    assert "--mode" not in err
    assert "Traceback" not in err


def test_check_bad_dimacs_literal_is_a_format_error(tmp_path, capsys):
    out = tmp_path / "peb"
    run(["compile", "--graph", "path:2", "--f", "identity", "--out", str(out)])
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 x 0\n")
    assert run(["check", "--formula", str(cnf), "--proof", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error [FORMAT]: line 2" in err
    assert "Traceback" not in err


def test_check_bad_erasure_id_is_a_format_error(tmp_path, capsys):
    out = tmp_path / "peb"
    run(["gen", "--graph", "path:2", "--f", "identity", "--out", str(out)])
    proof = tmp_path / "p.proof"
    run(["compile", "--graph", "path:2", "--f", "identity", "--out", str(proof)])
    lines = proof.read_text().splitlines()
    proof.write_text("\n".join(lines[:2] + ["e abc"] + lines[2:]) + "\n")
    assert (
        run(["check", "--formula", str(out.with_suffix(".cnf")), "--proof", str(proof)])
        == 2
    )
    err = capsys.readouterr().err
    assert "error [FORMAT]: line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "header", ["p proof k=1 mode=bogus", "p proof k=0 mode=syntactic"]
)
def test_check_bad_proof_header_is_a_format_error(tmp_path, capsys, header):
    out = tmp_path / "peb"
    run(["gen", "--graph", "path:2", "--f", "identity", "--out", str(out)])
    proof = tmp_path / "p.proof"
    proof.write_text(f"{header}\na 1\n")
    capsys.readouterr()
    assert (
        run(["check", "--formula", str(out.with_suffix(".cnf")), "--proof", str(proof)])
        == 2
    )
    captured = capsys.readouterr()
    assert "error [FORMAT]: line 1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["pebble", "--graph", "pyramid:x"],
        ["pebble", "--graph", "pyramid"],
        ["gen", "--graph", "path:2", "--f", "xor:x", "--out", "unused"],
        ["gen", "--graph", "path:2", "--f", "xor", "--out", "unused"],
        ["tradeoff", "--graph", "path:3", "--space", "a:b"],
        ["tradeoff", "--graph", "path:3", "--space", "3"],
        ["minunsat", "--construct", "2:x"],
        ["minunsat", "--construct", "2"],
    ],
)
def test_malformed_spec_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error [INVALID_PARAM]" in err
    assert "is not of the form" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("thrx:3", "'thrx' is not of the form thr<k>"),
        ("thr:3", "'thr' is not of the form thr<k>"),
        ("xor:-1", "arity -1 out of range 1..8"),
        ("xor:0", "arity 0 out of range 1..8"),
        ("xor:99", "arity 99 out of range 1..8"),
        ("or:30", "arity 30 out of range 1..8"),
        ("maj:99", "arity 99 out of range 1..8"),
        ("maj:2", "majority needs odd arity"),
        ("thr0:3", "threshold 0 out of range 1..3"),
    ],
)
def test_bad_function_spec_is_a_usage_error(spec, message, capsys):
    # the arity is checked before the 2^d truth table is built
    assert run(["pipeline", "--graph", "path:2", "--f", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error [INVALID_PARAM]: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "0"],
        ["--k", "-1"],
        ["--max-vars", "-1"],
        ["--max-formulas", "0"],
        ["--k", "2", "--max-formulas", "0"],
        ["--k", "2", "--max-terms", "0"],
    ],
)
def test_minunsat_out_of_range_param_is_a_usage_error(flags, capsys):
    assert run(["minunsat"] + flags) == 2
    captured = capsys.readouterr()
    assert "error [INVALID_PARAM]" in captured.err
    assert "found" not in captured.err
    assert captured.out == ""

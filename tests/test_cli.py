import functools
import json

from resspace import accel
from resspace.cli import main


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


def test_minunsat_check(tmp_path, capsys):
    f = tmp_path / "set.kdnf"
    assert run(["minunsat", "--construct", "2:1", "--out", str(f)]) == 0
    assert run(["minunsat", "--check", str(f)]) == 0
    assert "minimally-unsatisfiable" in capsys.readouterr().out


def test_minunsat_enumerate(capsys):
    assert run(["minunsat", "--k", "1", "--max-vars", "2", "--max-formulas", "3"]) == 0
    out = capsys.readouterr().out
    assert "p kdnf k=1" in out


def test_pebble_min_time(capsys):
    assert (
        run(["pebble", "--graph", "path:3", "--mode", "black", "--min-time-for-space", "2"])
        == 0
    )
    assert "min_time" in capsys.readouterr().out


def test_cap_exit_code():
    assert run(["pebble", "--graph", "path:30", "--mode", "black"]) == 3


def test_minunsat_cover_output_limit_exits_3(monkeypatch, capsys):
    # the fixed 4,000,000-cover limit, lowered so a tiny enumeration hits it
    monkeypatch.setattr(
        accel,
        "cover_enumeration",
        functools.partial(accel.cover_enumeration, out_limit=5),
    )
    argv = ["minunsat", "--k", "1", "--max-vars", "2", "--max-formulas", "3"]
    assert run(argv) == 3
    assert "Traceback" not in capsys.readouterr().err


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

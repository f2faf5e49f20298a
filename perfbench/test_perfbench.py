"""Tests of the benchmark itself: every correctness check reports a bad
output as a failed operation, and the checks accept the library's real
outputs.  Run with ``python3 -m pytest perfbench``."""

import dataclasses
import functools
import itertools
import json
import operator
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_source()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from resspace.errors import ResspaceError  # noqa: E402
from resspace.formats import derivation_from_text, derivation_to_text  # noqa: E402
from resspace.logic import Clause, KDnfFormula, Term, all_clauses_over  # noqa: E402
from resspace.minimal import scan_min_unsat_cnf  # noqa: E402
from resspace.pebbling import Move  # noqa: E402
from resspace import proofs  # noqa: E402
from resspace.proofs import AxiomDownload, Inference  # noqa: E402
from resspace.projection import Projector  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def fails(op, output, seed=0):
    """Whether one round of an operation that returns ``output`` is
    reported as failed."""
    bad = workloads.Op(op.name, lambda: output, op.check)
    _, _, failed = run.run_round([bad], seed, 0)
    return failed == 1


@functools.lru_cache(maxsize=None)
def small_pipeline():
    op = workloads.pipeline_op("bit_reversal:1", "xor:2", "trivial")
    return op, op.run()


@functools.lru_cache(maxsize=None)
def small_proof(k):
    op = workloads.proof_op("pyramid:3", "xor:2", k)
    return op, op.run()


# ---------------------------------------------------------------------------
# the checks accept real outputs


def test_real_outputs_pass():
    ops = [
        small_pipeline()[0],
        workloads.rk_audit_op("bit_reversal:1", "xor:2"),
        small_proof("1")[0],
        small_proof("d")[0],
        workloads.black_sweep_op("pyramid:3"),
        workloads.bw_sweep_op("pyramid:2"),
        workloads.scan_op(3, 5),
        workloads.enumerate_op(1, 3, 5),
        workloads.enumerate_op(2, 3, 2, max_terms=2),
        workloads.block_op(2, 2),
    ]
    for seed in range(3):
        _, _, failed = run.run_round(ops, seed, 0)
        assert failed == 0


# ---------------------------------------------------------------------------
# each check reports a bad output


def test_illegal_move_fails():
    op, (deriv, measures, result, audit) = small_pipeline()
    bad = dataclasses.replace(result, moves=(Move("rb", 1),) + result.moves)
    assert fails(op, (deriv, measures, bad, audit))


def test_illegal_move_fails_the_sweep():
    op = workloads.black_sweep_op("pyramid:2")
    sweep = op.run()
    time, moves = sweep[-1]
    bad = sweep[:-1] + [(time, (Move("rb", 1),) + moves[1:])]
    assert not fails(op, sweep)
    assert fails(op, bad)


def test_proof_with_one_line_changed_fails():
    op, (deriv, parsed, measures) = small_proof("1")
    lines = derivation_to_text(deriv).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("e "))
    lines[i] = f"e {int(lines[i][2:]) + 1}"
    changed = derivation_from_text("\n".join(lines) + "\n", deriv.formula)
    assert fails(op, (deriv, changed, measures))


def test_wrong_measures_fail():
    op, (deriv, parsed, measures) = small_proof("d")
    bad = dataclasses.replace(measures, formula_space=measures.formula_space - 1)
    assert fails(op, (deriv, parsed, bad))


def test_accepted_mutation_fails(monkeypatch):
    op, out = small_proof("1")
    monkeypatch.setattr(workloads, "check_refutation", lambda formula, deriv: None)
    assert fails(op, out)


@pytest.mark.parametrize("k", ["1", "d"])
@pytest.mark.parametrize("mutate", ["step", "inference"])
def test_mutations_are_always_rejected(k, mutate):
    _, (deriv, parsed, _) = small_proof(k)
    walk = checks.ProofWalk(parsed)
    for seed in range(40):
        rng = random.Random(seed)
        if mutate == "step":
            mutated, label = checks.mutate_step(parsed, rng, walk)
        else:
            mutated, label = checks.mutate_inference(parsed, rng)
        with pytest.raises(ResspaceError):
            workloads.check_refutation(deriv.formula, mutated)


@pytest.mark.parametrize("k", ["1", "d"])
def test_inference_that_does_not_follow_fails_without_rule_checks(k, monkeypatch):
    """With the rule check reduced to "the premises are on the board",
    every other check still passes and only the inference mutation shows
    the fault."""
    op, out = small_proof(k)
    real = proofs._check_inference

    def premises_only(deriv, config, step, index):
        for p in step.premises:
            if p not in config.lines:
                return real(deriv, config, step, index)
        return proofs.ReplayEvent("infer", None, step.formula.with_k(deriv.k), step.rule,
                                  step.premises, tuple(config.lines[p] for p in step.premises))

    monkeypatch.setattr(proofs, "_check_inference", premises_only)
    for seed in range(5):
        found = op.check(out, random.Random(seed))
        assert found and all("does not follow" in p for p in found)
    assert fails(op, out)


def test_set_that_is_not_minimal_fails():
    op = workloads.enumerate_op(1, 3, 5)
    sets = op.run()
    extra = KDnfFormula.from_clause(Clause([1, 2, 3]))
    padded = next(s + (extra,) for s in sets if extra not in s)
    assert fails(op, sets + [padded])

    op2 = workloads.enumerate_op(2, 3, 2, max_terms=2)
    sets2 = op2.run()
    # x1 ^ x2 and ~x1: unsatisfiable, and still so when x1 ^ x2 shrinks to x1
    loose = (KDnfFormula([Term([1, 2])], k=2), KDnfFormula([Term([-1])], k=2))
    assert fails(op2, sets2 + [loose])


def test_block_check_fails_on_a_loose_set():
    op = workloads.block_op(2, 2)
    formulas, verdict = op.run()
    assert not fails(op, (formulas, verdict))
    widened = [KDnfFormula(f.terms + (Term([1]),), k=2) if i == 1 else f
               for i, f in enumerate(formulas)]
    assert fails(op, (widened, True))
    assert fails(op, (formulas, False))


def test_projection_with_a_clause_dropped_fails(monkeypatch):
    op, out = small_pipeline()

    class Dropping(Projector):
        def project(self, formulas, mode="subset"):
            got = super().project(formulas, mode=mode)
            return frozenset(sorted(got)[1:])

    assert not fails(op, out)
    monkeypatch.setattr(workloads, "SAMPLED_CONFIGS", 10**6)
    monkeypatch.setattr(workloads, "Projector", Dropping)
    assert fails(op, out)


def test_projection_by_definition_matches_on_every_small_config():
    _, (deriv, _, _, _) = small_pipeline()
    walk = checks.ProofWalk(deriv, keep_configs=True)
    f = workloads._function("xor:2")
    fm = workloads.pebbling_formula(workloads._graph("bit_reversal:1"), f)
    projector = Projector(fm.base, f)
    nonempty = 0
    for cfg in set(walk.configs[:60]):
        lines = [KDnfFormula([Term(t) for t in line]) for line in cfg]
        got = projector.project(lines)
        nonempty += bool(got)
        base_vars = sorted(fm.base.variables())
        assert not checks.projection_problems(cfg, got, base_vars, f.table, 2, "subset")
        if got:
            dropped = sorted(got)[1:]
            assert checks.projection_problems(cfg, dropped, base_vars, f.table, 2, "subset")
    assert nonempty


def _with_wide_line(deriv, width):
    """The derivation with one more inference at the end, from its last
    line, whose line has ``width`` unit terms over the formula's variables."""
    lits = sorted(deriv.formula.variables())[:width]
    wide = KDnfFormula([Term([v]) for v in lits], k=deriv.k)
    last = sum(type(step).__name__ != "Erasure" for step in deriv.steps)
    return dataclasses.replace(deriv, steps=deriv.steps + (Inference(wide, "weak", (last,)),))


def _padded(moves, source, pairs):
    """Moves with ``pairs`` rounds of placing and removing a black pebble on
    a source first: legal, complete, no more space, and longer."""
    return (Move("pb", source), Move("rb", source)) * pairs + tuple(moves)


def _bad_width_pipeline(monkeypatch):
    op, (deriv, measures, result, audit) = small_pipeline()
    return op, (_with_wide_line(deriv, 7), measures, result, audit), "width 7 > 2 * 3"


def _bad_time_pipeline(monkeypatch):
    op, (deriv, measures, result, audit) = small_pipeline()
    preds = checks.preds_of(workloads._graph("bit_reversal:1"))
    source = next(v for v, ps in preds.items() if not ps)
    bad = dataclasses.replace(result, moves=_padded(result.moves, source, 30))
    return op, (deriv, measures, bad, audit), "downloads"


def _bad_space_pipeline(monkeypatch):
    real = workloads.search_min_space

    def inflated(dag, mode):
        price, moves = real(dag, mode)
        return (price + 100 if mode == "black_white" else price), moves

    monkeypatch.setattr(workloads, "search_min_space", inflated)
    op = workloads.pipeline_op("bit_reversal:1", "xor:2", "trivial")
    return op, small_pipeline()[1], "outside ["


def _bad_width_proof(monkeypatch):
    op, (deriv, parsed, measures) = small_proof("1")
    return op, (deriv, _with_wide_line(parsed, 7), measures), "width 7 > 2 * 3"


def _bad_space_proof(monkeypatch):
    op, (deriv, parsed, measures) = small_proof("d")
    downloads = tuple(AxiomDownload(c) for c in deriv.formula.clauses)
    bad = dataclasses.replace(parsed, steps=parsed.steps + downloads)
    return op, (deriv, bad, measures), "formula space"


def _black_sweep(rows):
    """The pyramid:2 black sweep with ``rows`` (space budget -> new row)
    put in place of the library's rows."""
    op = workloads.black_sweep_op("pyramid:2")
    sweep = op.run()
    for s, row in rows(sweep).items():
        sweep[s - 1] = row
    return op, sweep


def _padded_row(row, pairs=1):
    return (row[0] + 2 * pairs, _padded(row[1], 1, pairs))


def _growing_time(monkeypatch):
    op, sweep = _black_sweep(lambda sw: {5: _padded_row(sw[4])})
    return op, sweep, "grows with space"


def _not_2n_minus_1(monkeypatch):
    op, sweep = _black_sweep(lambda sw: {s: _padded_row(sw[s - 1]) for s in (4, 5, 6)})
    return op, sweep, "is not 2n-1"


def _wrong_black_price(monkeypatch):
    op, sweep = _black_sweep(lambda sw: {4: None})
    return op, sweep, "is not h+2"


def _feasibility_not_upward_closed(monkeypatch):
    op, sweep = _black_sweep(lambda sw: {5: None})
    return op, sweep, "not upward closed"


def _witness_over_budget(monkeypatch):
    op, sweep = _black_sweep(lambda sw: {4: sw[5]})
    return op, sweep, "exceeds budget"


def _bw_price_above_black(monkeypatch):
    op = workloads.bw_sweep_op("pyramid:2")
    sweep, black_price = op.run()
    return op, (sweep, black_price - 1), "> black price"


@pytest.mark.parametrize("doctored", [
    _bad_width_pipeline, _bad_time_pipeline, _bad_space_pipeline,
    _bad_width_proof, _bad_space_proof,
    _growing_time, _not_2n_minus_1, _wrong_black_price,
    _feasibility_not_upward_closed, _witness_over_budget, _bw_price_above_black,
])
def test_each_bound_reports_a_doctored_output(doctored, monkeypatch):
    op, output, message = doctored(monkeypatch)
    found = op.check(output, random.Random(0))
    assert any(message in p for p in found), found
    assert fails(op, output)


def test_audit_violation_fails():
    op, (deriv, measures, result, audit) = small_pipeline()
    bad = dataclasses.replace(audit, violations=((3, "line count"),))
    assert fails(op, (deriv, measures, result, bad))


def test_scan_violation_fails():
    op = workloads.scan_op(3, 5)
    count, violations, by_size, max_vars = op.run()
    assert fails(op, (count, 1, by_size, max_vars))


# ---------------------------------------------------------------------------
# the check helpers against brute force


def test_cover_count_matches_brute_force():
    """scan_min_unsat_cnf(3, 8) counts 869 minimally unsatisfiable clause
    sets over 3 variables; count them over clause subsets directly."""
    universe = all_clauses_over(range(1, 4))
    tt = checks.TruthTable(range(1, 4))
    falsified = [tt.full ^ tt.clause(c.lits) for c in universe]
    count = 0
    for size in range(1, 9):
        for combo in itertools.combinations(range(len(universe)), size):
            masks = [falsified[i] for i in combo]
            if functools.reduce(operator.or_, masks) != tt.full:
                continue
            if all(
                m & ~functools.reduce(operator.or_, masks[:i] + masks[i + 1 :], 0)
                for i, m in enumerate(masks)
            ):
                count += 1
    assert count == 869
    assert scan_min_unsat_cnf(3, 8)[0] == count


def test_truth_table_matches_evaluation():
    tt = checks.TruthTable([2, 5, 7])
    for a in range(8):
        values = {v: (a >> j) & 1 for j, v in enumerate([2, 5, 7])}
        for lits in [(2,), (-5,), (2, -7), (-2, 5, 7)]:
            want = all(values[abs(l)] == (l > 0) for l in lits)
            assert bool((tt.term(lits) >> a) & 1) == want


def test_pebble_game_rules():
    preds = {1: (), 2: (), 3: (1, 2)}
    ok = [("pb", 1), ("pw", 2), ("pb", 3), ("rb", 1), ("rw", 2)]
    assert checks.play_pebbling(preds, 3, ok) == ([], 5, 3)
    assert checks.play_pebbling(preds, 3, ok, budget=2)[0]
    assert checks.play_pebbling(preds, 3, ok, black_only=True)[0]
    assert checks.play_pebbling(preds, 3, [("pb", 3)])[0]
    assert checks.play_pebbling(preds, 3, ok[:3])[0]  # pebbles left over


# ---------------------------------------------------------------------------
# tracing and the benchmark's description


def test_traced_round_reports_layers_and_restores_the_library():
    op = workloads.proof_op("pyramid:2", "xor:2", "1")
    originals = (workloads.compile_pebbling, Projector.project)
    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_round([op], 0, 0, tracer)
    assert (workloads.compile_pebbling, Projector.project) == originals
    metrics = tracer.metrics(1)
    for name in ["compilers.compile_s", "proofs.replay_s", "formats.parse_s",
                 "proofs.steps_per_s", "formats.text_mb"]:
        assert metrics[name] > 0
    assert metrics["compilers.steps_emitted"] == metrics["proofs.steps_replayed"]
    assert metrics["proofs.replay_calls"] == 1
    assert set(metrics) == set(tracing.PER_LAYER)


def test_traced_sweep_counts_infeasible_searches():
    op = workloads.black_sweep_op("pyramid:2")  # 6 budgets, 3 infeasible
    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_round([op], 0, 0, tracer)
    metrics = tracer.metrics(1)
    assert metrics["pebbling.searches"] == 6
    assert metrics["accel.black_bfs_states"] > 0
    assert metrics["pebbling.bw_search_s"] == 0


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_an_operation_that_raises_makes_the_run_incorrect(monkeypatch, capsys, tmp_path):
    def boom():
        raise RuntimeError("boom")

    ok = workloads.Op("fine", lambda: 1, lambda out, rng: [])
    raising = workloads.Op("boom", boom, lambda out, rng: [])
    monkeypatch.setitem(workloads.WORKLOADS, "round-trip", lambda: [ok, raising])
    monkeypatch.setattr(run, "HERE", tmp_path)
    code = run.main(["--workload", "round-trip", "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (report["correct"], report["attempted"], report["failed"]) == (False, 2, 1)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "round-trip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

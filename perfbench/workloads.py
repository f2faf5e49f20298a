"""The three workloads: each is a list of operations built from fixed graph
families, with a timed ``run`` that calls only the library and an untimed
``check`` that judges the run's output with the code in ``checks.py``.

Building the operations is the set-up: imports, graphs, plain and
substituted formulas, pebbling strategies and the reference prices the
checks compare against.  The seed reaches only the checks, through the
``rng`` they are given: it picks the configurations projected by
definition and the proof steps that are mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from resspace.boolfunc import function_by_name
from resspace.compilers import compile_pebbling, compile_pebbling_rk, pebbling_formula
from resspace.errors import InfeasibleError, ResspaceError
from resspace.formats import derivation_from_text, derivation_to_text
from resspace.graphs import make_graph
from resspace.logic import KDnfFormula, Term
from resspace.minimal import (
    block_substituted_min_unsat,
    enumerate_min_unsat,
    is_minimally_unsatisfiable,
    scan_min_unsat_cnf,
)
from resspace.pebbling import (
    search_min_space,
    search_min_time_given_space,
    trivial_black_pebbling,
)
from resspace.projection import Projector, extract_pebbling, project_invariant_audit
from resspace.proofs import check_refutation

import checks

# configurations projected by definition per operation, and the largest
# configuration (lines, original variables) the definition is run on
SAMPLED_CONFIGS = 5
SMALL_CONFIG = (8, 4)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], list]


def _graph(spec):
    family, _, param = spec.partition(":")
    return make_graph(family, int(param))


def _function(spec):
    name, _, d = spec.partition(":")
    return function_by_name(name, int(d))


def _indegree(dag):
    return max(len(dag.predecessors(v)) for v in range(1, dag.n + 1))


# ---------------------------------------------------------------------------
# round-trip: compile -> check -> extract -> audit, as `resspace pipeline`


def _projection_sample(walk, fm, f, k, mode, rng):
    """Seeded small configurations of the walk, projected by the library
    and by definition."""
    max_lines, max_vars = SMALL_CONFIG
    base_vars = sorted(fm.base.variables())
    small = sorted(
        {
            cfg
            for cfg in walk.configs
            if cfg
            and len(cfg) <= max_lines
            and len({(v - 1) // f.d + 1 for v in checks.variables_of(cfg)}) <= max_vars
        },
        key=lambda cfg: sorted(sorted(line) for line in cfg),
    )
    if not small:
        return ["no small configuration to project by definition"]
    projector = Projector(fm.base, f)
    problems = []
    for cfg in rng.sample(small, min(SAMPLED_CONFIGS, len(small))):
        lines = [KDnfFormula([Term(t) for t in line], k=k) for line in cfg]
        got = projector.project(lines, mode=mode)
        problems += checks.projection_problems(cfg, got, base_vars, f.table, f.d, mode)
    return problems


def pipeline_op(graph, fspec, pebbling):
    dag, f = _graph(graph), _function(fspec)
    fm = pebbling_formula(dag, f)
    if pebbling == "optimal":
        moves = search_min_space(dag, "black")[1]
    else:
        moves = trivial_black_pebbling(dag)
    bw_price = search_min_space(dag, "black_white")[0]
    preds, ell = checks.preds_of(dag), _indegree(dag)

    def run():
        deriv = compile_pebbling(dag, moves, f)
        measures = check_refutation(fm.cnf, deriv)
        result = extract_pebbling(deriv, dag, f, require_space_bound=True)
        audit = project_invariant_audit(deriv, fm.base, f)
        return deriv, measures, result, audit

    def check(out, rng):
        deriv, measures, result, audit = out
        walk = checks.ProofWalk(deriv, keep_configs=True)
        problems, time, space = checks.play_pebbling(
            preds, dag.sink, checks.moves_of(result.moves)
        )
        if problems:
            return ["extracted pebbling: " + p for p in problems]
        if time > (ell + 1) * walk.downloads:
            problems.append(f"time {time} > {ell + 1} * {walk.downloads} downloads")
        if not bw_price <= space <= walk.formula_space:
            problems.append(
                f"space {space} outside [{bw_price}, {walk.formula_space}]"
            )
        if walk.width > f.d * (ell + 1):
            problems.append(f"width {walk.width} > {f.d} * {ell + 1}")
        if (measures.length, measures.axiom_downloads) != (walk.length, walk.downloads):
            problems.append("measures disagree with the recount")
        if not audit.ok or audit.audited == 0:
            problems.append(f"audit ok={audit.ok} over {audit.audited} configurations")
        return problems + _projection_sample(walk, fm, f, 1, "subset", rng)

    return Op(f"pipeline {graph} {fspec} {pebbling}", run, check)


def rk_audit_op(graph, fspec):
    dag, f = _graph(graph), _function(fspec)
    fm = pebbling_formula(dag, f)
    moves = trivial_black_pebbling(dag)

    def run():
        deriv = compile_pebbling_rk(dag, moves, f)
        return deriv, project_invariant_audit(deriv, fm.base, f)

    def check(out, rng):
        deriv, audit = out
        problems = []
        if not audit.ok or audit.audited == 0:
            problems.append(f"audit ok={audit.ok} over {audit.audited} configurations")
        walk = checks.ProofWalk(deriv, keep_configs=True)
        return problems + _projection_sample(walk, fm, f, f.d, "whole_set", rng)

    return Op(f"rk-audit {graph} {fspec}", run, check)


def round_trip():
    return [
        pipeline_op("pyramid:2", "xor:2", "optimal"),
        pipeline_op("pyramid:1", "maj:3", "trivial"),
        pipeline_op("bit_reversal:1", "xor:2", "trivial"),
        pipeline_op("path:6", "xor:3", "trivial"),
        rk_audit_op("pyramid:2", "xor:2"),
        rk_audit_op("bit_reversal:1", "xor:2"),
    ]


# ---------------------------------------------------------------------------
# long-proof: `resspace compile` then `resspace check`


def proof_op(graph, fspec, k):
    dag, f = _graph(graph), _function(fspec)
    fm = pebbling_formula(dag, f)
    moves = trivial_black_pebbling(dag)
    ell = _indegree(dag)
    _, _, pebbling_space = checks.play_pebbling(
        checks.preds_of(dag), dag.sink, checks.moves_of(moves)
    )

    def run():
        # looked up per call, so the traced run sees its wrappers
        compile_fn = compile_pebbling_rk if k == "d" else compile_pebbling
        deriv = compile_fn(dag, moves, f)
        text = derivation_to_text(deriv)
        parsed = derivation_from_text(text, fm.cnf)
        return deriv, parsed, check_refutation(fm.cnf, parsed)

    def check(out, rng):
        deriv, parsed, measures = out
        problems = []
        if (parsed.k, parsed.mode, parsed.steps) != (deriv.k, deriv.mode, deriv.steps):
            problems.append("parsing the emitted text changed the derivation")
        walk = checks.ProofWalk(parsed)
        recount = (walk.length, walk.downloads, walk.formula_space)
        reported = (measures.length, measures.axiom_downloads, measures.formula_space)
        if recount != reported:
            problems.append(f"recount {recount} != reported {reported}")
        if not walk.refuted:
            problems.append("the empty line never appears")
        if k == "1" and walk.width > f.d * (ell + 1):
            problems.append(f"width {walk.width} > {f.d} * {ell + 1}")
        if k == "d" and (f.name, f.d) == ("xor", 2):
            bound = pebbling_space + 2**f.d + 10
            if walk.formula_space > bound:
                problems.append(f"formula space {walk.formula_space} > {bound}")
        for mutated, label in (
            checks.mutate_step(parsed, rng, walk),
            checks.mutate_inference(parsed, rng),
        ):
            try:
                check_refutation(fm.cnf, mutated)
            except ResspaceError:
                pass
            else:
                problems.append(f"mutation accepted: {label}")
        return problems

    return Op(f"proof {graph} {fspec} k={k}", run, check)


def long_proof():
    return [
        proof_op("pyramid:14", "xor:2", "1"),
        proof_op("pyramid:14", "xor:2", "d"),
        proof_op("pyramid:8", "xor:3", "1"),
        proof_op("pyramid:10", "maj:3", "d"),
    ]


# ---------------------------------------------------------------------------
# exhaustive: `resspace pebble`, `tradeoff` and `minunsat`


def _sweep(dag, mode):
    """Minimum time and witness per space budget 1..n (None if infeasible)."""
    out = []
    for s in range(1, dag.n + 1):
        try:
            out.append(search_min_time_given_space(dag, s, mode))
        except InfeasibleError:
            out.append(None)
    return out


def sweep_problems(dag, sweep, black_only):
    """(problems, price): witnesses replay within budget, feasibility is
    upward closed, and the minimum time does not grow with space and is
    2n-1 at space n; the price is the least feasible budget."""
    preds = checks.preds_of(dag)
    problems = []
    feasible = [s for s, row in enumerate(sweep, 1) if row is not None]
    if not feasible or feasible != list(range(feasible[0], dag.n + 1)):
        return [f"feasible budgets {feasible} are not upward closed"], None
    times = [row[0] for row in sweep if row is not None]
    if times != sorted(times, reverse=True):
        problems.append(f"minimum time grows with space: {times}")
    if times[-1] != 2 * dag.n - 1:
        problems.append(f"time {times[-1]} at space n is not 2n-1")
    for s, row in enumerate(sweep, 1):
        if row is None:
            continue
        bad, time, _ = checks.play_pebbling(
            preds, dag.sink, checks.moves_of(row[1]), budget=s, black_only=black_only
        )
        problems += [f"witness at space {s}: {p}" for p in bad]
        if not bad and time != row[0]:
            problems.append(f"witness at space {s} has {time} moves, not {row[0]}")
    return problems, feasible[0]


def black_sweep_op(graph):
    dag = _graph(graph)

    def check(sweep, rng):
        problems, price = sweep_problems(dag, sweep, black_only=True)
        family, _, h = graph.partition(":")
        if family == "pyramid" and price != int(h) + 2:
            problems.append(f"black price {price} of {graph} is not h+2")
        return problems

    return Op(f"black-sweep {graph}", lambda: _sweep(dag, "black"), check)


def bw_sweep_op(graph):
    dag = _graph(graph)

    def run():
        return _sweep(dag, "black_white"), search_min_space(dag, "black")[0]

    def check(out, rng):
        sweep, black_price = out
        problems, price = sweep_problems(dag, sweep, black_only=False)
        if price is not None and price > black_price:
            problems.append(f"black-white price {price} > black price {black_price}")
        return problems

    return Op(f"bw-sweep {graph}", run, check)


def scan_op(max_vars, max_clauses):
    def check(out, rng):
        count, violations, by_size, max_vars_by_size = out
        problems = []
        if violations:
            problems.append(f"{violations} sets break Tarsi's lemma")
        if count == 0 or sum(by_size) != count:
            problems.append(f"{count} covers, {sum(by_size)} by size")
        for size, (n, v) in enumerate(zip(by_size, max_vars_by_size)):
            if n and v >= size:
                problems.append(f"size {size}: {v} variables")
        return problems

    return Op(
        f"scan {max_vars},{max_clauses}",
        lambda: scan_min_unsat_cnf(max_vars, max_clauses),
        check,
    )


def _terms(formula):
    return [t.lits for t in formula.terms]


def enumerate_op(k, max_vars, max_formulas, max_terms=None):
    def run():
        return list(enumerate_min_unsat(k, max_vars, max_formulas, max_terms))

    def check(sets, rng):
        if not sets:
            return ["no sets enumerated"]
        problems = []
        for i, s in enumerate(sets):
            if k == 1:
                bad = checks.clause_set_problems([_clause(f) for f in s])
            else:
                bad = checks.dnf_set_problems(
                    [_terms(f) for f in s], max_vars=(2 * len(s)) ** 3
                )
            if len(s) > max_formulas:
                bad.append(f"{len(s)} formulas")
            problems += [f"set {i}: {p}" for p in bad]
        return problems

    name = f"enumerate {k},{max_vars},{max_formulas}" + (
        f",{max_terms}" if max_terms else ""
    )
    return Op(name, run, check)


def _clause(formula):
    return tuple(t.lits[0] for t in formula.terms)


def block_op(k, n):
    def run():
        formulas = block_substituted_min_unsat(k, n)
        return formulas, is_minimally_unsatisfiable(formulas)

    def check(out, rng):
        formulas, verdict = out
        problems = [] if verdict else ["the library calls the set not minimal"]
        variables = checks.variables_of([_terms(f) for f in formulas])
        if len(formulas) != n + 1 or variables != set(range(1, k * k * n + 1)):
            problems.append(f"{len(formulas)} formulas over {len(variables)} variables")
        return problems + checks.dnf_set_problems([_terms(f) for f in formulas])

    return Op(f"block {k},{n}", run, check)


def exhaustive():
    return [
        black_sweep_op("pyramid:5"),
        black_sweep_op("bit_reversal:3"),
        bw_sweep_op("pyramid:3"),
        bw_sweep_op("bit_reversal:2"),
        scan_op(4, 7),
        enumerate_op(1, 4, 6),
        enumerate_op(2, 4, 3, max_terms=2),
        block_op(3, 2),
    ]


WORKLOADS = {"round-trip": round_trip, "long-proof": long_proof, "exhaustive": exhaustive}

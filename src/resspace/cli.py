"""Command-line harness: formula generation, pebbling searches, proof
compilation and checking, translation/extraction round trips, minimal
unsatisfiability tooling, and time-space trade-off sweeps with CSV output.

Exit codes: 0 success, 1 invariant or check failure, 2 usage error,
3 resource cap exceeded.  All flags are long-form; identical configuration
and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .boolfunc import function_by_name, is_k_non_authoritarian, substitute_formula
from .compilers import compile_pebbling, compile_pebbling_rk, pebbling_formula
from .errors import (
    CapExceededError,
    FormatError,
    InfeasibleError,
    InvalidParamError,
    ResspaceError,
    StateSpaceExceededError,
    TooManyVariablesError,
)
from .formats import (
    cnf_from_dimacs,
    cnf_to_dimacs,
    derivation_from_text,
    derivation_to_text,
    graph_to_text,
    kdnf_set_from_text,
    kdnf_set_to_text,
    pebbling_from_text,
    pebbling_to_text,
    substitution_comment,
)
from .graphs import make_graph
from .logic import Clause, CnfFormula, KDnfFormula, implies
from .minimal import (
    block_substituted_min_unsat,
    enumerate_min_unsat,
    is_minimally_unsatisfiable,
)
from .pebbling import (
    search_min_space,
    search_min_time_given_space,
    trivial_black_pebbling,
    validate_pebbling,
)
from .projection import extract_pebbling, project_invariant_audit, shared_projector
from .proofs import check_refutation, walk

USAGE_EXIT, FAIL_EXIT, CAP_EXIT = 2, 1, 3


def _parse_spec(spec: str, form: str, int_head: bool = False):
    """Split a ``head:tail`` value whose tail (and head, if ``int_head``) is
    an integer; anything else is a usage error naming the expected form."""
    head, sep, tail = spec.partition(":")
    try:
        if sep:
            return (int(head) if int_head else head), int(tail)
    except ValueError:
        pass
    raise InvalidParamError(f"{spec!r} is not of the form {form}")


def _parse_graph(spec: str):
    return make_graph(*_parse_spec(spec, "family:param"))


def _parse_function(spec: str):
    if spec.partition(":")[0] in ("identity", "id"):
        return function_by_name("identity")
    return function_by_name(*_parse_spec(spec, "name:arity"))


def _indegree(dag):
    return max(dag.indegree(v) for v in range(1, dag.n + 1))


def cmd_gen(args):
    dag = _parse_graph(args.graph)
    f = _parse_function(args.f)
    fm = pebbling_formula(dag, f)
    graph_path = args.out + ".graph"
    cnf_path = args.out + ".cnf"
    manifest_path = args.out + ".json"
    with open(graph_path, "w") as fh:
        fh.write(graph_to_text(dag))
    comments = [substitution_comment(f.name, f.d, dag.n)]
    with open(cnf_path, "w") as fh:
        fh.write(cnf_to_dimacs(fm.cnf, comments=comments, nvars=f.d * dag.n))
    manifest = {
        "graph": args.graph,
        "function": args.f,
        "seed": args.seed,
        "files": [graph_path, cnf_path],
        "variables": f.d * dag.n,
        "clauses": len(fm.cnf),
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {graph_path} {cnf_path} {manifest_path}")
    return 0


def cmd_pebble(args):
    dag = _parse_graph(args.graph)
    if args.min_time_for_space is not None:
        time, witness = search_min_time_given_space(
            dag, args.min_time_for_space, args.mode
        )
        print(f"min_time space<={args.min_time_for_space} {args.mode}: {time}")
    else:
        price, witness = search_min_space(dag, args.mode)
        print(f"price {args.mode}: {price}")
    metrics = validate_pebbling(dag, witness)
    print(f"witness time={metrics.time} space={metrics.space}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(pebbling_to_text(witness))
        print(f"wrote {args.out}")
    return 0


def _load_pebbling(args, dag):
    if args.pebbling == "trivial":
        return trivial_black_pebbling(dag)
    if args.pebbling == "optimal":
        return search_min_space(dag, "black")[1]
    with open(args.pebbling) as fh:
        return pebbling_from_text(fh.read())


def cmd_compile(args):
    dag = _parse_graph(args.graph)
    f = _parse_function(args.f)
    moves = _load_pebbling(args, dag)
    if args.k == "d":
        deriv = compile_pebbling_rk(dag, moves, f)
    else:
        deriv = compile_pebbling(dag, moves, f)
    measures = check_refutation(pebbling_formula(dag, f).cnf, deriv)
    print(
        f"length={measures.length} downloads={measures.axiom_downloads} "
        f"formula_space={measures.formula_space} total_space={measures.total_space} "
        f"variable_space={measures.variable_space}"
        + (f" width={measures.width}" if measures.width is not None else "")
    )
    with open(args.out, "w") as fh:
        fh.write(derivation_to_text(deriv))
    print(f"wrote {args.out}")
    return 0


def cmd_check(args):
    with open(args.formula) as fh:
        formula, _, _ = cnf_from_dimacs(fh.read())
    with open(args.proof) as fh:
        deriv = derivation_from_text(fh.read(), formula)
    measures = check_refutation(formula, deriv)
    print(
        f"refutation ok: length={measures.length} "
        f"formula_space={measures.formula_space} total_space={measures.total_space} "
        f"variable_space={measures.variable_space}"
        + (f" width={measures.width}" if measures.width is not None else "")
    )
    return 0


def cmd_extract(args):
    dag = _parse_graph(args.graph)
    f = _parse_function(args.f)
    fm = pebbling_formula(dag, f)
    with open(args.proof) as fh:
        deriv = derivation_from_text(fh.read(), fm.cnf)
    result = extract_pebbling(deriv, dag, f)
    print(f"pebbling time={result.time} space={result.space}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(pebbling_to_text(result.moves))
        print(f"wrote {args.out}")
    return 0


def cmd_project(args):
    f = _parse_function(args.f)
    with open(args.base) as fh:
        base, _, _ = cnf_from_dimacs(fh.read())
    subbed = base if f.name == "identity" else substitute_formula(base, f)
    with open(args.proof) as fh:
        deriv = derivation_from_text(fh.read(), subbed)
    projector = shared_projector(base, f)
    for t, _, board in walk(deriv):
        projected = projector.project_board(board.values(), mode=args.mode)
        shown = " ".join(
            "0" if not c.lits else "|".join(str(l) for l in c.lits)
            for c in sorted(projected)
        )
        print(f"t={t} {{{shown}}}")
    return 0


def cmd_minunsat(args):
    if args.check:
        with open(args.check) as fh:
            formulas, _ = kdnf_set_from_text(fh.read())
        verdict = is_minimally_unsatisfiable(formulas)
        print("minimally-unsatisfiable" if verdict else "not-minimal")
        return 0 if verdict else FAIL_EXIT
    if args.construct:
        k, n = _parse_spec(args.construct, "k:n", int_head=True)
        formulas = block_substituted_min_unsat(k, n)
        text = kdnf_set_to_text(formulas, k=k)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    max_formulas = args.max_formulas
    if max_formulas is None:
        max_formulas = 4 if args.k == 1 else 3
    count = 0
    for s in enumerate_min_unsat(args.k, args.max_vars, max_formulas, args.max_terms):
        sys.stdout.write(kdnf_set_to_text(list(s), k=args.k))
        count += 1
    print(f"c found {count} sets", file=sys.stderr)
    return 0


def _pipeline_report(dag, f, moves):
    fm = pebbling_formula(dag, f)
    deriv = compile_pebbling(dag, moves, f)
    measures = check_refutation(fm.cnf, deriv)
    lines = [
        f"compiled: length={measures.length} downloads={measures.axiom_downloads} "
        f"space={measures.formula_space} width={measures.width}"
    ]
    ell = _indegree(dag)
    if measures.width > f.d * (ell + 1):
        return lines, f"width bound {f.d * (ell + 1)} violated"
    result = extract_pebbling(deriv, dag, f)
    lines.append(f"extracted pebbling: time={result.time} space={result.space}")
    if result.time > (ell + 1) * measures.axiom_downloads:
        return lines, "extracted time exceeds (indegree+1) * downloads"
    if is_k_non_authoritarian(f, 1):
        if result.space > measures.formula_space:
            return lines, "extracted space exceeds refutation space"
        lines.append(
            f"space bound: space(P)={result.space} <= Sp(pi)={measures.formula_space}"
        )
        audit = project_invariant_audit(deriv, fm.base, f)
        lines.append(f"projection audit: {audit.audited} configurations, ok={audit.ok}")
        if not audit.ok:
            return lines, f"projection audit violations: {audit.violations[:3]}"
    return lines, None


def cmd_pipeline(args):
    dag = _parse_graph(args.graph)
    f = _parse_function(args.f)
    moves = _load_pebbling(args, dag)
    lines, failure = _pipeline_report(dag, f, moves)
    for line in lines:
        print(line)
    if failure:
        print(f"FAIL: {failure}")
        return FAIL_EXIT
    print("pipeline ok")
    return 0


def cmd_tradeoff(args):
    dag = _parse_graph(args.graph)
    f = _parse_function(args.f)
    lo, hi = _parse_spec(args.space, "lo:hi", int_head=True)
    if hi < lo:
        raise InvalidParamError("space sweep must be lo:hi with lo <= hi")
    rows = []
    for s in range(lo, hi + 1):
        try:
            min_time, witness = search_min_time_given_space(dag, s, "black")
        except InfeasibleError:
            rows.append((s, None, "INFEASIBLE"))
            continue
        except StateSpaceExceededError:
            rows.append((s, None, "STATE_SPACE_EXCEEDED"))
            continue
        deriv = compile_pebbling(dag, witness, f)
        measures = check_refutation(pebbling_formula(dag, f).cnf, deriv)
        rows.append((s, (min_time, measures), "ok"))
    feasible = [r for r in rows if r[2] == "ok"]
    times = [r[1][0] for r in feasible]
    if times != sorted(times, reverse=True):
        raise ResspaceError("oracle min_time is not non-increasing in space")
    out = [f"# seed={args.seed} graph={args.graph} f={args.f} space={args.space}"]
    out.append(
        "graph,n,space_budget,oracle_min_time,proof_length,formula_space,"
        "total_space,variable_space,status"
    )
    for s, payload, status in rows:
        if status != "ok":
            out.append(f"{args.graph},{dag.n},{s},,,,,,{status}")
            continue
        min_time, m = payload
        out.append(
            f"{args.graph},{dag.n},{s},{min_time},{m.length},{m.formula_space},"
            f"{m.total_space},{m.variable_space},ok"
        )
    text = "\n".join(out) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_selftest(args):
    from .boolfunc import or_function, xor_function, substitute_clause

    failures = []

    def check(name, ok):
        print(f"{'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    got = substitute_clause(Clause([1, -2]), xor_function(2))
    want = CnfFormula([[1, 2, 3, -4], [1, 2, -3, 4], [-1, -2, 3, -4], [-1, -2, -3, 4]])
    check("xor substitution of a two-literal clause", got == want)
    check(
        "xor(2) is 1-non-authoritarian, or(2) is not",
        is_k_non_authoritarian(xor_function(2), 1)
        and not is_k_non_authoritarian(or_function(2), 1),
    )
    check(
        "unit contradiction is unsatisfiable",
        implies([Clause([1]), Clause([-1])], [KDnfFormula((), k=1)]),
    )
    for graph, func in [("path:2", "identity"), ("pyramid:1", "xor:2")]:
        dag = _parse_graph(graph)
        f = _parse_function(func)
        _, failure = _pipeline_report(dag, f, trivial_black_pebbling(dag))
        check(f"pipeline {graph} {func}", failure is None)
    print(f"seed={args.seed}: {len(failures)} failures")
    return 0 if not failures else FAIL_EXIT


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resspace",
        description="pebbling formulas, resolution checking, and space measurement",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a graph, DIMACS formula, and manifest")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", default="identity")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pebble", help="exhaustive pebbling searches")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["black", "black_white"], default="black")
    p.add_argument("--min-time-for-space", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pebble)

    p = sub.add_parser("compile", help="compile a pebbling into a refutation")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", default="identity")
    p.add_argument("--pebbling", default="trivial")
    p.add_argument("--k", choices=["1", "d"], default="1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="replay and measure a proof trace")
    p.add_argument("--formula", required=True)
    p.add_argument("--proof", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extract", help="extract a pebbling from a refutation")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", default="identity")
    p.add_argument("--proof", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("project", help="projected clauses per configuration")
    p.add_argument("--base", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--mode", choices=["subset", "whole_set"], default="subset")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("minunsat", help="minimal unsatisfiability tools")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-vars", type=int, default=3)
    p.add_argument(
        "--max-formulas",
        type=int,
        help="largest set to enumerate (default: 4 for --k 1, 3 for --k 2 or more)",
    )
    p.add_argument("--max-terms", type=int, default=None)
    p.add_argument("--check")
    p.add_argument("--construct")
    p.add_argument("--out")
    p.set_defaults(func=cmd_minunsat)

    p = sub.add_parser("tradeoff", help="time-space trade-off sweep to CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", default="xor:2")
    p.add_argument("--space", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("pipeline", help="compile, check, extract, audit")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", default="xor:2")
    p.add_argument("--pebbling", default="trivial")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("selftest", help="built-in invariant checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CapExceededError, TooManyVariablesError, StateSpaceExceededError) as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return CAP_EXIT
    except (InvalidParamError, FormatError) as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except ResspaceError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Text formats: DIMACS CNF, DNF/term strings, proof traces, pebbling
traces, graph edge lists, and k-DNF set files.

All emitters are deterministic: objects are canonical, so serializing the
same value twice yields byte-identical output.

DNF strings join terms with ``|`` and the literals inside a term with
``^``; literals are signed integers, a lone signed integer is a unit term,
and ``F`` denotes the empty DNF 0.  Clauses reuse the DNF form (a clause is
a 1-DNF of unit terms).

The line-based parsers report any malformed line as a FormatError naming
its 1-based line number.
"""

from __future__ import annotations

from .errors import FormatError
from .logic import Clause, CnfFormula, KDnfFormula, Term


def _line_error(n: int, line: str, e: Exception) -> FormatError:
    """The FormatError for line n, which raised e while being parsed."""
    why = f"missing field {e}" if isinstance(e, KeyError) else str(e)
    return FormatError(f"line {n}: {why} in {line!r}")


def _read_header(line: str, kind: str, seen: bool, field: str, convert):
    """(k, value) from a ``p <kind> k=<k> <field>=<value>`` header line:
    k must be positive, value is converted by ``convert``, and ``seen``
    says a header came earlier in the file.  Raises ValueError, KeyError or
    FormatError, which the caller reports with the line number."""
    parts = line.split()
    if len(parts) != 4 or parts[1] != kind:
        raise FormatError(f"bad {kind} header")
    if seen:
        raise FormatError(f"second {kind} header")
    fields = dict(p.split("=", 1) for p in parts[2:])
    k, value = int(fields["k"]), convert(fields[field])
    if k < 1:
        raise FormatError(f"k={k} is not positive")
    return k, value


# ---------------------------------------------------------------------------
# DNF / clause text


def dnf_to_text(formula: KDnfFormula) -> str:
    if formula.is_empty():
        return "F"
    parts = []
    for t in formula.terms:
        if not t.lits:
            raise FormatError("empty term is not serializable")
        parts.append("^".join(str(l) for l in t.lits))
    return "|".join(parts)


def dnf_from_text(text: str, k: int) -> KDnfFormula:
    return _dnf_from_text(text, k, {})


def _dnf_from_text(text: str, k: int, term_of: dict) -> KDnfFormula:
    """dnf_from_text, with ``term_of`` mapping the text of a term to its
    Term: a file parser passes one dict for the whole file, so each distinct
    term text is parsed once."""
    text = text.strip()
    if not text:
        raise FormatError("empty DNF string")
    if text == "F":
        return KDnfFormula((), k=k)
    parts = text.split("|")
    unseen = {}
    for part in parts:
        if part in term_of or part in unseen:
            continue
        lits = []
        for tok in part.split("^"):
            try:
                lits.append(int(tok))
            except ValueError:
                raise FormatError(f"bad literal token {tok!r}") from None
        unseen[part] = lits
    try:
        # every token is read before any literal is checked, so a bad token
        # is reported before a bad literal
        for part, lits in unseen.items():
            term_of[part] = Term(lits)
        return KDnfFormula(tuple(map(term_of.__getitem__, parts)), k=k)
    except ValueError as e:  # a literal 0, or a term wider than k
        raise FormatError(str(e)) from None


def clause_to_text(clause: Clause) -> str:
    # the text of the clause's 1-DNF, whose unit terms sort by their literal
    return "|".join(map(str, sorted(clause.lits))) or "F"


def clause_from_text(text: str) -> Clause:
    return dnf_from_text(text, k=1).as_clause()


# ---------------------------------------------------------------------------
# DIMACS


def cnf_to_dimacs(formula: CnfFormula, comments=(), nvars=None) -> str:
    nvars = nvars if nvars is not None else max(formula.variables(), default=0)
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {nvars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause.lits) + " 0")
    return "\n".join(lines) + "\n"


def cnf_from_dimacs(text: str):
    """Parse DIMACS; returns (formula, nvars, comments)."""
    clauses = []
    comments = []
    nvars = None
    declared = None
    cur = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].strip())
            continue
        try:
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise FormatError("bad problem line")
                nvars, declared = int(parts[2]), int(parts[3])
                continue
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    clauses.append(Clause(cur))
                    cur = []
                else:
                    cur.append(lit)
        except (ValueError, FormatError) as e:
            raise _line_error(n, line, e) from None
    if cur:
        raise FormatError("unterminated clause")
    if nvars is None:
        raise FormatError("missing problem line")
    if declared is not None and declared != len(clauses):
        raise FormatError(f"declared {declared} clauses, found {len(clauses)}")
    return CnfFormula(clauses, keep_trivial=True), nvars, comments


def substitution_comment(name: str, d: int, base_vars: int) -> str:
    return f"substitution f={name} d={d} base_vars={base_vars}"


def parse_substitution_comment(comments):
    """Extract (name, d, base_vars) from DIMACS comments, or None."""
    for c in comments:
        parts = c.split()
        if parts and parts[0] == "substitution":
            try:
                fields = dict(p.split("=", 1) for p in parts[1:])
                return fields["f"], int(fields["d"]), int(fields["base_vars"])
            except (ValueError, KeyError) as e:
                raise FormatError(f"bad substitution comment {c!r}: {e}") from None
    return None


# ---------------------------------------------------------------------------
# proof traces
#
#   p proof k=<k> mode=<syntactic|semantic>
#   a <clause>                 axiom download
#   i <rule> <ids> : <dnf>     inference (rule in cut/andi/ande/weak/sem)
#   e <id>                     erasure
#
# ids are assigned by arrival order (downloads and inferences), never reused.

RULE_NAMES = ("cut", "andi", "ande", "weak", "sem")


def derivation_to_text(derivation) -> str:
    from .proofs import AxiomDownload, Erasure, Inference

    if derivation.assumptions:
        raise FormatError("derivations with assumptions are not serializable")
    lines = [f"p proof k={derivation.k} mode={derivation.mode}"]
    for step in derivation.steps:
        if isinstance(step, AxiomDownload):
            lines.append(f"a {clause_to_text(step.clause)}")
        elif isinstance(step, Inference):
            ids = " ".join(str(p) for p in step.premises)
            ids = f"{ids} " if ids else ""
            lines.append(f"i {step.rule} {ids}: {dnf_to_text(step.formula)}")
        elif isinstance(step, Erasure):
            lines.append(f"e {step.target}")
        else:
            raise FormatError(f"unknown step {step!r}")
    return "\n".join(lines) + "\n"


def derivation_from_text(text: str, formula: CnfFormula):
    from .proofs import (
        SEMANTIC,
        SYNTACTIC,
        AxiomDownload,
        Derivation,
        Erasure,
        Inference,
    )

    header = None
    steps = []
    term_of = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c "):
            continue
        try:
            if line.startswith("p "):
                k, mode = _read_header(line, "proof", header is not None, "mode", str)
                if mode not in (SYNTACTIC, SEMANTIC):
                    raise FormatError(f"unknown mode {mode!r}")
                header = (k, mode)
                continue
            if header is None:
                raise FormatError("step before proof header")
            if line.startswith("a "):
                steps.append(AxiomDownload(clause_from_text(line[2:])))
            elif line.startswith("e "):
                steps.append(Erasure(int(line[2:])))
            elif line.startswith("i "):
                head, _, body = line[2:].partition(":")
                toks = head.split()
                if not toks or toks[0] not in RULE_NAMES:
                    raise FormatError("bad inference line")
                rule = toks[0]
                premises = tuple(int(t) for t in toks[1:])
                dnf = _dnf_from_text(body, k, term_of)
                steps.append(Inference(dnf, rule, premises))
            else:
                raise FormatError("bad trace line")
        except (ValueError, KeyError, FormatError) as e:
            raise _line_error(n, line, e) from None
    if header is None:
        raise FormatError("missing proof header")
    return Derivation(formula=formula, k=header[0], mode=header[1], steps=tuple(steps))


# ---------------------------------------------------------------------------
# pebbling traces: one move per line ("pb v" / "rb v" / "pw v" / "rw v")


def pebbling_to_text(moves) -> str:
    return "\n".join(f"{m.kind} {m.vertex}" for m in moves) + ("\n" if moves else "")


def pebbling_from_text(text: str):
    from .pebbling import MOVE_KINDS, Move

    moves = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if len(parts) != 2 or parts[0] not in MOVE_KINDS:
                raise FormatError("bad move line")
            moves.append(Move(parts[0], int(parts[1])))
        except (ValueError, FormatError) as e:
            raise _line_error(n, line, e) from None
    return tuple(moves)


# ---------------------------------------------------------------------------
# graph files: "e <from> <to>" lines, comments with "c"


def graph_to_text(dag) -> str:
    lines = [f"c n={dag.n} sink={dag.sink}"]
    lines += [f"e {u} {v}" for u, v in dag.edges]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str):
    """The graph of an edge list, validated: a cycle raises CycleError, a
    second sink MultipleSinksError, an indegree above the bound
    IndegreeExceededError.  The vertex count is the one on the ``c n=<n>``
    line graph_to_text writes, or else the largest edge endpoint."""
    from .graphs import dag_from_edges

    edges = []
    declared = None
    mx = 0
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        parts = line.split()
        try:
            if not parts:
                continue
            if parts[0] == "c":
                if len(parts) > 1 and parts[1].startswith("n="):
                    declared = int(parts[1][2:])
                continue
            if line.startswith("c"):
                continue
            if len(parts) != 3 or parts[0] != "e":
                raise FormatError("bad edge line")
            u, v = int(parts[1]), int(parts[2])
        except (ValueError, FormatError) as e:
            raise _line_error(n, line, e) from None
        edges.append((u, v))
        mx = max(mx, u, v)
    return dag_from_edges(mx if declared is None else declared, edges)


# ---------------------------------------------------------------------------
# k-DNF set files: "p kdnf k=<k> m=<formulas>" then one DNF per line


def kdnf_set_to_text(formulas, k: int) -> str:
    lines = [f"p kdnf k={k} m={len(formulas)}"]
    lines += [dnf_to_text(f) for f in formulas]
    return "\n".join(lines) + "\n"


def kdnf_set_from_text(text: str):
    k = None
    formulas = []
    term_of = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            if line.startswith("p "):
                k, declared = _read_header(line, "kdnf", k is not None, "m", int)
                continue
            if k is None:
                raise FormatError("formula before kdnf header")
            formulas.append(_dnf_from_text(line, k, term_of))
        except (ValueError, KeyError, FormatError) as e:
            raise _line_error(n, line, e) from None
    if k is None:
        raise FormatError("missing kdnf header")
    if declared != len(formulas):
        raise FormatError(f"declared {declared} formulas, found {len(formulas)}")
    return formulas, k

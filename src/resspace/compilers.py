"""Pebbling contradictions and the compilers from black pebblings to
refutations.

``compile_pebbling`` turns a complete black pebbling of a DAG into a
resolution refutation of the (optionally substituted) pebbling
contradiction: whenever a vertex is pebbled, the clause set representing
"the vertex's function value is true" is derived onto the board from the
predecessors' sets and the substituted pebbling axioms; removals erase the
set; the sink's set finally clashes with the sink axioms.

``compile_pebbling_rk`` produces a k-DNF refutation (k = the substitution
arity) in which each pebbled vertex is represented by a single DNF line.
A block's DNF is not chosen here: it is the De Morgan negation of the
clauses that the substitution uses for the opposite literal, so
``boolfunc.canonical_clauses`` is the one rule for both representations.
The line for a substituted axiom is assembled block by block: within one
block, every clause picking a literal from each DNF term is derived from
the block's clause set (resolving inside the block also reaches the
tautological picks that arise when terms conflict) and the picks are merged
into full terms with conjunction-introduction; predecessor blocks are then
cut away term by term using conjunction-elimination on the predecessor's
line.  Keeping one line per vertex bounds the formula space by the pebbling
space plus a constant depending only on the function and the indegree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .boolfunc import (
    BooleanFunction,
    identity_function,
    literal_substitution,
    substitute_clause,
    substitute_formula,
)
from .errors import (
    IllegalMoveError,
    IncompletePebblingError,
    InvalidPebblingError,
    NotImpliedError,
)
from .graphs import Dag
from .logic import Clause, CnfFormula, KDnfFormula, Term, implies
from .pebbling import require_black, validate_pebbling
from .proofs import SYNTACTIC, Derivation, DerivationBuilder, derive_implied_clauses


@dataclass(frozen=True)
class PebblingFormula:
    """The pebbling contradiction of a DAG, optionally substituted.

    ``base`` has one unit clause per source, one propagation clause per
    non-source, and the negated sink unit: n+1 clauses over n variables,
    each of width at most 1 + indegree.  ``cnf`` is base with ``function``
    substituted (the identity leaves it unchanged).
    """

    graph: Dag
    base: CnfFormula
    function: BooleanFunction
    cnf: CnfFormula


def source_axiom(v: int) -> Clause:
    return Clause([v])


def propagation_axiom(dag: Dag, v: int) -> Clause:
    return Clause([-u for u in dag.predecessors(v)] + [v])


def sink_axiom(z: int) -> Clause:
    return Clause([-z])


def pebbling_formula(dag: Dag, f: BooleanFunction | None = None) -> PebblingFormula:
    clauses = []
    for v in range(1, dag.n + 1):
        if not dag.predecessors(v):
            clauses.append(source_axiom(v))
        else:
            clauses.append(propagation_axiom(dag, v))
    clauses.append(sink_axiom(dag.sink))
    base = CnfFormula(clauses)
    if len(base) != dag.n + 1:
        raise InvalidPebblingError("pebbling contradiction must have n+1 clauses")
    f = f or identity_function()
    cnf = base if f.name == "identity" else substitute_formula(base, f)
    return PebblingFormula(graph=dag, base=base, function=f, cnf=cnf)


def _checked_black(dag, moves):
    try:
        validate_pebbling(dag, moves)
    except (IllegalMoveError, IncompletePebblingError) as e:
        raise InvalidPebblingError(str(e)) from None
    require_black(moves)


# ---------------------------------------------------------------------------
# resolution compiler


def compile_pebbling(dag: Dag, moves, f: BooleanFunction | None = None) -> Derivation:
    """A syntactic resolution refutation of the (substituted) pebbling
    contradiction that follows the given complete black pebbling.

    Invariant: while v carries a black pebble, every clause of v's
    substituted positive representation is on the board.  Every placement,
    a source's included, is one ``derive_implied_clauses`` call that derives
    those clauses from v's substituted axiom clauses and the lines of the
    predecessors' sets; removals erase them; one last call derives the empty
    clause from the sink axioms and the sink's set.
    """
    _checked_black(dag, moves)
    f = f or identity_function()
    fm = pebbling_formula(dag, f)
    builder = DerivationBuilder(fm.cnf, k=1)
    board: dict[int, dict[Clause, int]] = {}

    def place(axiom_clause, targets, bound):
        # the substituted axiom clauses stay unbound: each target's derivation
        # downloads them at its leaves and erases them right after use,
        # keeping the board small.  A source's targets are its own axiom
        # clauses, so each is derived by a single download.
        premises = CnfFormula(list(substitute_clause(axiom_clause, f)) + list(bound))
        return derive_implied_clauses(builder, premises, targets, bound)

    for move in moves:
        v = move.vertex
        if move.kind == "pb":
            preds = dag.predecessors(v)
            axiom = propagation_axiom(dag, v) if preds else source_axiom(v)
            bound = {}
            for u in preds:
                bound.update(board[u])
            targets = substitute_clause(Clause([v]), f)
            board[v] = dict(zip(targets, place(axiom, targets, bound)))
        else:
            for i in board.pop(v).values():
                builder.erase(i)

    z = dag.sink
    place(sink_axiom(z), [Clause()], board[z])
    # leave exactly the empty clause on the board
    for i in board.pop(z).values():
        builder.erase(i)
    return builder.build()


# ---------------------------------------------------------------------------
# canonical DNF representations for the k-DNF compiler


def dnf_representation(f: BooleanFunction, var: int, positive: bool) -> KDnfFormula:
    """A d-DNF representing f (or its negation) over the block of ``var``:
    by De Morgan, the negation of each clause that ``literal_substitution``
    gives for the opposite literal.  Thresholds thus get subset DNFs whose
    terms never conflict and every other function its minterms, and
    within-block resolution from the block's clause set reaches every pick
    clause of either."""
    opposite = literal_substitution(-var if positive else var, f)
    return KDnfFormula([Term([-l for l in c.lits]) for c in opposite], k=f.d)


# ---------------------------------------------------------------------------
# within-block resolution closure


_CLOSURE_CAP = 100_000


def _resolution_closure(clauses):
    """All clauses (trivial ones included) reachable from the given set by
    resolution, with one derivation recipe each; more than _CLOSURE_CAP
    clauses raise NotImpliedError."""
    reach = {c: ("axiom",) for c in clauses}
    frontier = list(clauses)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(reach):
                for pivot in a.lits:
                    if -pivot not in b.lits:
                        continue
                    r = Clause(
                        [l for l in a.lits if l != pivot]
                        + [l for l in b.lits if l != -pivot]
                    )
                    if r not in reach:
                        reach[r] = ("cut", a, b, pivot)
                        nxt.append(r)
                    if len(reach) > _CLOSURE_CAP:
                        raise NotImpliedError("resolution closure too large")
        frontier = nxt
    return reach


class _BlockScope:
    """Derives clauses of one block (plus a fixed disjunctive context) from
    a group of context-carrying lines."""

    def __init__(self, builder, group: dict[Clause, int], ctx_terms):
        self.builder = builder
        self.group = group
        self.ctx = tuple(ctx_terms)
        self.closure = _resolution_closure(list(group))

    def line_formula(self, block_clause: Clause) -> KDnfFormula:
        terms = [Term([l]) for l in block_clause.lits]
        return KDnfFormula(terms + list(self.ctx), k=self.builder.k)

    def _emit(self, c: Clause) -> int:
        recipe = self.closure[c]
        if recipe[0] == "axiom":
            return self.builder.hold(self.group[c])
        _, a, b, pivot = recipe
        ia = self._emit(a)
        ib = self._emit(b)
        out = self.builder.infer("cut", [ia, ib], self.line_formula(c))
        self.builder.erase(ia)
        self.builder.erase(ib)
        return out

    def derive(self, want: Clause) -> int:
        """A line for want-or-context, via the smallest reachable subclause
        of ``want`` plus one weakening."""
        best = None
        for c in self.closure:
            if set(c.lits) <= set(want.lits):
                if best is None or (len(c), c.lits) < (len(best), best.lits):
                    best = c
        if best is None:
            raise NotImpliedError(
                f"block clauses cannot reach any subclause of {want.lits}"
            )
        line = self._emit(best)
        if best == want and best not in self.group:
            return line
        # a group clause is copied by the weakening even when it is the want
        # itself; the pinned compile outputs keep that step
        out = self.builder.infer("weak", [line], self.line_formula(want))
        self.builder.erase(line)
        return out


def _dnf_ladder(scope: _BlockScope, terms) -> int:
    """Merge pick clauses into full DNF terms with conjunction-introduction.

    The scope derives the line for the clause picking literal jvec[i] from
    terms[i] (joined with the scope's context); every ingredient line is
    erased right after its single use.
    """
    builder = scope.builder
    terms = list(terms)

    def formula_at(s_prime, jvec, partial=None):
        parts = [terms[i] for i in range(s_prime)]
        base = s_prime
        if partial is not None:
            parts.append(partial)
            base += 1
        for off, j in enumerate(jvec):
            parts.append(Term([terms[base + off].lits[j]]))
        return KDnfFormula(parts + list(scope.ctx), k=builder.k)

    def derive_level(s_prime, jvec) -> int:
        if s_prime == 0:
            return scope.derive(Clause([terms[i].lits[j] for i, j in enumerate(jvec)]))
        term = terms[s_prime - 1]
        acc = derive_level(s_prime - 1, (0,) + jvec)
        for idx in range(1, len(term.lits)):
            nxt = derive_level(s_prime - 1, (idx,) + jvec)
            combined = formula_at(s_prime - 1, jvec, partial=Term(term.lits[: idx + 1]))
            new = builder.infer("andi", [acc, nxt], combined)
            builder.erase(acc)
            builder.erase(nxt)
            acc = new
        return acc

    return derive_level(len(terms), ())


def derive_substituted_line(builder, axiom_clause: Clause, f: BooleanFunction,
                            bindings: dict[Clause, int],
                            dnfs: dict[int, KDnfFormula]) -> int:
    """From the downloaded clauses of axiom_clause[f], derive the single
    k-DNF line that disjoins the per-literal DNF representations, ``dnfs``
    (``dnf_representation`` of each literal of the clause).

    Blocks are handled one at a time: for every fixed choice of clauses in
    the later blocks, the current block's clause set (with that context) is
    replaced by the block's DNF via a pick-clause ladder; the next stage
    groups the resulting lines by the remaining choices.  Every entry holds
    its line, the first stage's a binding, and is erased once its block is
    replaced.
    """
    lits = axiom_clause.lits
    cl_sets = [tuple(literal_substitution(a, f)) for a in lits]
    reps = [dnfs[a] for a in lits]

    lines = {}
    for choice in itertools.product(*cl_sets):
        whole = Clause([l for c in choice for l in c.lits])
        lines[choice] = builder.hold(bindings[whole])

    for j in range(len(lits)):
        grouped = {}
        for choice, entry in lines.items():
            grouped.setdefault(choice[1:], {})[choice[0]] = entry
        new_lines = {}
        for suffix, members in grouped.items():
            ctx = [t for rep in reps[:j] for t in rep.terms]
            ctx += [Term([l]) for c in suffix for l in c.lits]
            scope = _BlockScope(builder, members, ctx)
            new_lines[suffix] = _dnf_ladder(scope, reps[j].terms)
            for i in members.values():
                builder.erase(i)
        lines = new_lines
    (line,) = lines.values()
    return line


def derive_dnf_from_cnf(clauses: CnfFormula, dnf: KDnfFormula, k: int) -> Derivation:
    """A standalone k-DNF derivation of ``dnf`` from the clause set that
    represents the same function (the conjunction-introduction walkthrough:
    derive every pick clause by resolution, merge literals into terms)."""
    builder = DerivationBuilder(clauses, k=k)
    bindings = {c: builder.download(c) for c in clauses}
    line = _dnf_ladder(_BlockScope(builder, bindings, ()), dnf.terms)
    if builder.value(line) != dnf.with_k(k):
        raise AssertionError("ladder did not produce the requested DNF")
    for i in bindings.values():
        builder.erase(i)
    return builder.build()


# ---------------------------------------------------------------------------
# cutting a block away with conjunction elimination


def _clause_line_from_helper(builder, helper_id: int, t_remove: Term):
    """Shrink every term of the helper line to a single literal negating a
    literal of ``t_remove`` (conjunction elimination), then widen to the
    exact negated clause; returns the id of a line the caller holds: the
    helper itself, held once more, when it is that clause already."""
    cur_id = builder.hold(helper_id)
    cur_val = builder.value(cur_id)
    for t2 in list(cur_val.terms):
        hit = next((b for b in t2.lits if -b in t_remove.lits), None)
        assert hit is not None, "pair is not contradictory"
        if t2 == Term([hit]):
            continue
        new_val = KDnfFormula(
            [t for t in cur_val.terms if t != t2] + [Term([hit])], k=builder.k
        )
        new_id = builder.infer("ande", [cur_id], new_val)
        builder.erase(cur_id)
        cur_id, cur_val = new_id, new_val
    want = KDnfFormula([Term([-a]) for a in t_remove.lits], k=builder.k)
    if cur_val != want:
        new_id = builder.infer("weak", [cur_id], want)
        builder.erase(cur_id)
        cur_id = new_id
    return cur_id


def cut_away_terms(builder, target_id: int, terms, helper_id: int) -> int:
    """Remove the given terms from the target line one at a time, each via
    a negated-term clause distilled from the helper line; consumes the
    target line, leaves the helper line to its holder, and returns the
    remainder's id."""
    cur = target_id
    for t in terms:
        neg_id = _clause_line_from_helper(builder, helper_id, t)
        remainder = KDnfFormula(
            [u for u in builder.value(cur).terms if u != t], k=builder.k
        )
        new = builder.infer("cut", [cur, neg_id], remainder)
        builder.erase(cur)
        builder.erase(neg_id)
        cur = new
    return cur


# ---------------------------------------------------------------------------
# k-DNF compiler


def compile_pebbling_rk(dag: Dag, moves, f: BooleanFunction) -> Derivation:
    """A syntactic k-DNF refutation (k = arity of f) of the substituted
    pebbling contradiction in which each pebbled vertex is represented by a
    single DNF line."""
    _checked_black(dag, moves)
    fm = pebbling_formula(dag, f)
    k = f.d
    builder = DerivationBuilder(fm.cnf, k=k)
    board: dict[int, int] = {}

    def substituted_line(axiom_clause, dnfs):
        axioms = substitute_clause(axiom_clause, f)
        bindings = {c: builder.download(c) for c in axioms}
        line = derive_substituted_line(builder, axiom_clause, f, bindings, dnfs)
        for i in bindings.values():
            builder.erase(i)
        return line

    for move in moves:
        v = move.vertex
        if move.kind == "rb":
            builder.erase(board.pop(v))
            continue
        preds = dag.predecessors(v)
        axiom = source_axiom(v) if not preds else propagation_axiom(dag, v)
        dnfs = {a: dnf_representation(f, abs(a), positive=a > 0) for a in axiom.lits}
        line = substituted_line(axiom, dnfs)
        for u in preds:
            line = cut_away_terms(builder, line, dnfs[-u].terms, board[u])
        assert builder.value(line) == dnfs[v]
        board[v] = line

    z = dag.sink
    neg_line = substituted_line(sink_axiom(z), {-z: dnf_representation(f, z, False)})
    final = cut_away_terms(
        builder, board.pop(z), dnf_representation(f, z, positive=True).terms, neg_line
    )
    builder.erase(neg_line)
    assert builder.value(final).is_empty()
    return builder.build()


def refute_dnf_pair(d1: KDnfFormula, d2: KDnfFormula) -> Derivation:
    """A k-DNF refutation of the contradictory pair {d1, d2}, presented as a
    derivation with the pair as assumptions: every term of d1 is cut away
    using a negated-term clause extracted from d2 by conjunction
    elimination."""
    k = max(d1.k, d2.k)
    d1, d2 = d1.with_k(k), d2.with_k(k)
    if not implies([d1, d2], [KDnfFormula((), k=k)]):
        raise NotImpliedError("the pair is satisfiable")
    builder = DerivationBuilder(CnfFormula([]), k=k)
    a1 = builder._new_id(d1)
    a2 = builder._new_id(d2)
    out = cut_away_terms(builder, a1, d1.terms, a2)
    assert builder.value(out).is_empty()
    return Derivation(
        builder.formula, k, SYNTACTIC, tuple(builder.steps), assumptions=(d1, d2)
    )

"""k-DNF resolution derivations: step legality (syntactic and semantic),
replay, the five measures, and the implicationally-complete clause
derivation that the resolution compiler writes into its proof's builder
for every pebbled vertex.

A derivation is a sequence of steps over configurations ("the blackboard"):
axiom downloads add a clause of the target CNF as a 1-DNF line, inferences
add a consequence of lines already on the board, erasures remove a line.
Lines added by downloads and inferences get stable ids in arrival order;
erasures name the id.  Configurations are sets of formulas: measures are
computed over distinct line values, and ids are bookkeeping only.

``walk`` is the one loop over a derivation's steps: it checks each step
against the board, applies it and hands the live board to its reader, so
every reader reads the proof once.  ``replay`` folds the walk into the
measures; it keeps neither the steps' events nor the boards, so checking
holds memory for the board, not for the length.

Syntactic rules (lines are k-DNFs; T, T' terms; a_i literals):

  cut          (a_1^...^a_k') v B  and  ~a_1 v ... v ~a_k' v C  give  B v C
  andi         A v T  and  A v T'  give  A v (T ^ T')  when |T u T'| <= k
  ande         A v T  gives  A v T'  for any subterm T' of T
  weak         A  gives  A v B  for any k-DNF B

In semantic mode any k-DNF implied by the current configuration may be
derived; the checker verifies the implication by brute force and requires
the new line to stay over the variables of the target formula and board
(a checker convention; the rule itself does not bound the consequence).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadPremisesError,
    NotAnAxiomError,
    NotARefutationError,
    NotImpliedError,
    RuleMismatchError,
    WidthExceededError,
)
from .logic import (
    Clause,
    CnfFormula,
    KDnfFormula,
    Term,
    implies,
    negating_restriction,
    restrict_clause,
)

SYNTACTIC, SEMANTIC = "syntactic", "semantic"


@dataclass(frozen=True)
class AxiomDownload:
    clause: Clause


@dataclass(frozen=True)
class Inference:
    formula: KDnfFormula
    rule: str
    premises: tuple[int, ...]


@dataclass(frozen=True)
class Erasure:
    target: int


@dataclass(frozen=True)
class Derivation:
    """A step sequence over a target CNF.  ``assumptions`` seed the board
    before the first step (used for derivations from k-DNF sets rather than
    from a formula's axioms); they get ids 1..len(assumptions)."""

    formula: CnfFormula
    k: int
    mode: str
    steps: tuple
    assumptions: tuple = ()


def zero_formula(k: int = 1) -> KDnfFormula:
    """The empty DNF 0, the refutation goal."""
    return KDnfFormula((), k=k)


@dataclass(frozen=True)
class MeasureReport:
    """Length counts axiom downloads and inferences; the space measures are
    maxima over configurations of distinct line values.  Width is reported
    for resolution (k=1) only; k >= 2 derivations report the largest term
    count and line size instead."""

    length: int
    axiom_downloads: int
    formula_space: int
    total_space: int
    variable_space: int
    width: int | None = None
    max_terms: int | None = None
    max_formula_size: int | None = None


# ---------------------------------------------------------------------------
# rule shape matching, on term sets: board lines and checked consequences
# all carry the rules' k, and premise terms are non-trivial and no wider than
# k, so a line plus a premise term equals a formula iff their term sets agree


def match_cut(d1: KDnfFormula, d2: KDnfFormula, cons: KDnfFormula):
    """A term T of d1 whose negated literals appear as unit terms of d2 such
    that cons lies between (d1 \\ T) u (d2 \\ negs) and d1 u d2."""
    d1t, d2t, et = set(d1.terms), set(d2.terms), set(cons.terms)
    if not et <= d1t | d2t:
        return None
    units = {s.lits[0]: s for s in d2t if len(s.lits) == 1}
    for t in d1.terms:
        if all(-a in units for a in t.lits):
            lower = (d1t - {t}) | (d2t - {units[-a] for a in t.lits})
            if lower <= et:
                return t
    return None


def match_andi(d1: KDnfFormula, d2: KDnfFormula, cons: KDnfFormula, k: int):
    d1t, d2t, et = set(d1.terms), set(d2.terms), set(cons.terms)
    # a premise term missing from cons is the one the rule consumed
    only1, only2 = d1t - et, d2t - et
    if len(only1) > 1 or len(only2) > 1:
        return None
    for t in only1 or d1.terms:
        for t2 in only2 or d2.terms:
            lits = set(t.lits) | set(t2.lits)
            if len(lits) > k:
                continue
            u = Term(lits)
            if u.is_trivial():
                candidates = (et,)
            elif u in et:
                candidates = (et - {u}, et)
            else:
                continue
            for a in candidates:
                if a | {t} == d1t and a | {t2} == d2t:
                    return t, t2
    return None


def match_ande(d1: KDnfFormula, cons: KDnfFormula):
    d1t, et = set(d1.terms), set(cons.terms)
    only1, only_cons = d1t - et, et - d1t
    if len(only1) > 1 or len(only_cons) > 1:
        return None
    for t in only1 or d1.terms:
        for t2 in only_cons or cons.terms:
            if not t2.is_subterm_of(t):
                continue
            for a in (et - {t2}, et):
                if a | {t} == d1t:
                    return t, t2
    return None


# ---------------------------------------------------------------------------
# replay


class Configuration:
    """Live lines indexed by stable id; the configuration proper is the set
    of distinct values.

    The measures are kept up to date as lines are added and popped: a
    multiplicity for each distinct value, for each variable the number of
    distinct values that mention it, and the total size of the distinct
    values.  Their peaks, and the largest term count and size of any line,
    are taken when a value enters the board: an erasure never raises them.
    """

    def __init__(self):
        self.lines: dict[int, KDnfFormula] = {}
        self.next_id = 1
        self.multiplicity: dict[KDnfFormula, int] = {}
        self.var_refs: dict[int, int] = {}
        self.total_size = 0
        self.peak_formulas = self.peak_total = self.peak_variables = 0
        self.max_terms = self.max_size = 0

    def add(self, formula: KDnfFormula) -> int:
        i = self.next_id
        self.lines[i] = formula
        self.next_id += 1
        count = self.multiplicity.get(formula, 0)
        self.multiplicity[formula] = count + 1
        if not count:
            size = formula.size()
            self.total_size += size
            for v in formula.variables():
                self.var_refs[v] = self.var_refs.get(v, 0) + 1
            self.peak_formulas = max(self.peak_formulas, len(self.multiplicity))
            self.peak_total = max(self.peak_total, self.total_size)
            self.peak_variables = max(self.peak_variables, len(self.var_refs))
            self.max_terms = max(self.max_terms, len(formula.terms))
            self.max_size = max(self.max_size, size)
        return i

    def pop(self, line_id: int) -> KDnfFormula:
        formula = self.lines.pop(line_id)
        count = self.multiplicity[formula]
        if count > 1:
            self.multiplicity[formula] = count - 1
            return formula
        del self.multiplicity[formula]
        self.total_size -= formula.size()
        for v in formula.variables():
            refs = self.var_refs[v]
            if refs > 1:
                self.var_refs[v] = refs - 1
            else:
                del self.var_refs[v]
        return formula

    def values(self) -> frozenset[KDnfFormula]:
        return frozenset(self.multiplicity)


@dataclass
class ReplayEvent:
    """What a step did to the board: the id and value of the line it added,
    or of the line it erased, and for an inference its rule and premises."""

    kind: str  # "axiom" | "infer" | "erase"
    new_id: int
    formula: KDnfFormula
    rule: str | None = None
    premises: tuple[int, ...] = ()
    premise_values: tuple[KDnfFormula, ...] = ()


def _seeded(deriv: Derivation) -> Configuration:
    config = Configuration()
    for assumption in deriv.assumptions:
        config.add(assumption.with_k(deriv.k))
    return config


@dataclass
class ReplayLog:
    """The outcome of a replay.  It keeps no record of the steps."""

    measures: MeasureReport
    first_zero: int | None  # index of the first configuration containing 0

    @property
    def refuted(self) -> bool:
        return self.first_zero is not None


def _check_inference(deriv: Derivation, config: Configuration, step, index: int):
    """Raise unless the inference follows from the board under the rules of
    ``deriv``: its k, its mode and, in semantic mode, its formula."""
    for p in step.premises:
        if p not in config.lines:
            raise BadPremisesError(f"step {index}: premise {p} not on the board")
    vals = tuple(config.lines[p] for p in step.premises)
    cons = step.formula
    if cons.max_term_width() > deriv.k:
        raise WidthExceededError(f"step {index}: term wider than k={deriv.k}")
    if cons.k != deriv.k:
        cons = cons.with_k(deriv.k)
    rule = step.rule
    if deriv.mode == SEMANTIC:
        if rule != "sem":
            raise RuleMismatchError(f"step {index}: semantic derivations use rule sem")
        if not cons.variables() <= config.var_refs.keys() | deriv.formula.variables():
            raise RuleMismatchError(
                f"step {index}: consequence mentions variables outside the board"
            )
        if not implies(list(config.values()), [cons]):
            raise NotImpliedError(f"step {index}: consequence is not implied")
    elif rule == "sem":
        raise RuleMismatchError(f"step {index}: rule sem needs semantic mode")
    elif rule == "weak":
        if len(vals) != 1:
            raise BadPremisesError(f"step {index}: weakening takes one premise")
        if not set(vals[0].terms) <= set(cons.terms):
            raise RuleMismatchError(f"step {index}: weakening must keep all terms")
    elif rule == "ande":
        if len(vals) != 1:
            raise BadPremisesError(f"step {index}: ande takes one premise")
        if match_ande(vals[0], cons) is None:
            raise RuleMismatchError(f"step {index}: not an ande consequence")
    elif rule == "andi":
        if len(vals) != 2:
            raise BadPremisesError(f"step {index}: andi takes two premises")
        if (
            match_andi(vals[0], vals[1], cons, deriv.k) is None
            and match_andi(vals[1], vals[0], cons, deriv.k) is None
        ):
            raise RuleMismatchError(f"step {index}: not an andi consequence")
    elif rule == "cut":
        if len(vals) != 2:
            raise BadPremisesError(f"step {index}: cut takes two premises")
        if (
            match_cut(vals[0], vals[1], cons) is None
            and match_cut(vals[1], vals[0], cons) is None
        ):
            raise RuleMismatchError(f"step {index}: not a cut consequence")
    else:
        raise RuleMismatchError(f"step {index}: unknown rule {rule!r}")


def _check_step(deriv: Derivation, config: Configuration, step, index: int):
    """Raise unless step number ``index`` is legal on the board."""
    if isinstance(step, AxiomDownload):
        if step.clause not in deriv.formula:
            raise NotAnAxiomError(
                f"step {index}: clause {step.clause.lits} is not an axiom"
            )
    elif isinstance(step, Inference):
        _check_inference(deriv, config, step, index)
    elif isinstance(step, Erasure):
        if step.target not in config.lines:
            raise BadPremisesError(f"step {index}: erasing missing id {step.target}")
    else:
        raise RuleMismatchError(f"step {index}: unknown step kind")


def _apply(config: Configuration, step, k: int) -> ReplayEvent:
    """Apply a checked step to the board in place and return its event."""
    if isinstance(step, AxiomDownload):
        line = KDnfFormula.from_clause(step.clause, k=k)
        return ReplayEvent("axiom", config.add(line), line)
    if isinstance(step, Inference):
        vals = tuple(config.lines[p] for p in step.premises)
        line = step.formula if step.formula.k == k else step.formula.with_k(k)
        return ReplayEvent("infer", config.add(line), line, step.rule, step.premises, vals)
    return ReplayEvent("erase", step.target, config.pop(step.target))


def walk(deriv: Derivation):
    """The boards one at a time: (0, None, the seeded board), then (t, event
    of step t, the board after it) for t = 1, 2, ...  Each step is checked
    before it is applied, so an illegal step raises once every board before
    it has been yielded.  The board is the live configuration: read it
    before the walk advances, and keep ``board.values()``."""
    config = _seeded(deriv)
    yield 0, None, config
    for index, step in enumerate(deriv.steps):
        _check_step(deriv, config, step, index)
        yield index + 1, _apply(config, step, deriv.k), config


def replay(deriv: Derivation) -> ReplayLog:
    """Fold the walk into the measures; the log holds memory for the
    largest board, not for every step."""
    zero = zero_formula(deriv.k)
    boards = walk(deriv)
    _, _, config = next(boards)
    first_zero = 0 if zero in config.multiplicity else None
    length = downloads = 0
    for t, ev, _ in boards:
        if ev.kind == "erase":
            continue
        length += 1
        downloads += ev.kind == "axiom"
        if first_zero is None and ev.formula == zero:
            first_zero = t
    measures = MeasureReport(
        length=length,
        axiom_downloads=downloads,
        formula_space=config.peak_formulas,
        total_space=config.peak_total,
        variable_space=config.peak_variables,
        width=config.max_terms if deriv.k == 1 else None,
        max_terms=None if deriv.k == 1 else config.max_terms,
        max_formula_size=None if deriv.k == 1 else config.max_size,
    )
    return ReplayLog(measures, first_zero)


def check_refutation(formula: CnfFormula, deriv: Derivation) -> MeasureReport:
    """Replay a claimed refutation; the empty DNF must appear on the board."""
    if deriv.formula != formula:
        raise NotARefutationError("derivation targets a different formula")
    log = replay(deriv)
    if not log.refuted:
        raise NotARefutationError("the empty DNF never appears")
    return log.measures


# ---------------------------------------------------------------------------
# building derivations


class DerivationBuilder:
    """Step/id bookkeeping for the proof compilers and transforms; it builds
    syntactic derivations.

    The builder tracks live line values alongside ids, so that callers can
    read a line back and derive from lines already on the board.
    """

    def __init__(self, formula: CnfFormula, k: int = 1):
        self.formula = formula
        self.k = k
        self.steps = []
        self.live: dict[int, KDnfFormula] = {}
        self._next = 1

    def _new_id(self, value) -> int:
        i = self._next
        self._next += 1
        self.live[i] = value
        return i

    def download(self, clause: Clause) -> int:
        self.steps.append(AxiomDownload(clause))
        return self._new_id(KDnfFormula.from_clause(clause, k=self.k))

    def infer(self, rule: str, premises, formula: KDnfFormula) -> int:
        if formula.k != self.k:
            formula = formula.with_k(self.k)
        self.steps.append(Inference(formula, rule, tuple(premises)))
        return self._new_id(formula)

    def infer_clause(self, rule: str, premises, clause: Clause) -> int:
        return self.infer(rule, premises, KDnfFormula.from_clause(clause, k=self.k))

    def erase(self, line_id: int):
        self.steps.append(Erasure(line_id))
        del self.live[line_id]

    def value(self, line_id: int) -> KDnfFormula:
        return self.live[line_id]

    def clause_value(self, line_id: int) -> Clause:
        return self.live[line_id].as_clause()

    def build(self) -> Derivation:
        return Derivation(self.formula, self.k, SYNTACTIC, tuple(self.steps))


# ---------------------------------------------------------------------------
# implicational completeness: deriving implied clauses


def derive_implied_clauses(builder: DerivationBuilder, premises: CnfFormula, targets,
                           bound: dict[Clause, int]) -> list[int]:
    """Resolution derivations of each target from the premise clauses,
    appended to the builder in turn; returns the targets' line ids.

    One implication sweep checks every target.  A premise in ``bound`` is
    read from its line already on the board (clause -> id) and is never
    erased; the others are downloaded at each leaf that uses them and
    erased after use.

    Each derivation follows a decision tree over the premises restricted by
    the target's negation (for the empty target, the empty restriction).
    The tree queries variables in ascending order; as soon as the path
    falsifies a restricted premise, the first such premise becomes a leaf,
    lifted back by one weakening into the restricted clause joined with the
    target (none when that is the premise itself).  Folding the tree
    bottom-up with resolutions cuts only variables outside the target, so
    the root clause is the target.  Length stays below 2^(n+1)-1 and total
    space below n(n+2) for n distinct variables.
    """
    targets = list(targets)
    if not implies(list(premises), targets):
        raise NotImpliedError(
            f"premises do not imply {' and '.join(str(t.lits) for t in targets)}"
        )
    borrowed = set(bound.values())

    def fetch(clause: Clause) -> int:
        return bound[clause] if clause in bound else builder.download(clause)

    def release(line_id: int):
        if line_id not in borrowed:
            builder.erase(line_id)

    def derive(target: Clause) -> int:
        rho0 = negating_restriction(target)
        # restricted premises paired with their originals; satisfied ones drop
        work = []
        for c in premises:
            r = restrict_clause(c, rho0)
            if r is not True:
                work.append((Clause() if r is False else r, c))
        variables = sorted(set().union(*(set(rc.variables()) for rc, _ in work), set()))

        def grow(rho: set, depth: int):
            # rho holds the literals the path made true; the implication
            # sweep guarantees a falsified premise before the path is full
            for rc, orig in work:
                if all(-l in rho for l in rc.lits):
                    lifted = Clause(rc.lits + target.lits)
                    a = fetch(orig)
                    if lifted == orig:
                        return a, lifted
                    w = builder.infer_clause("weak", [a], lifted)
                    release(a)
                    return w, lifted
            x = variables[depth]
            lid, lc = grow(rho | {-x}, depth + 1)
            if x not in lc:
                return lid, lc
            rid, rc_ = grow(rho | {x}, depth + 1)
            if -x not in rc_:
                release(lid)
                return rid, rc_
            resolvent = Clause(
                [l for l in lc.lits if l != x] + [l for l in rc_.lits if l != -x]
            )
            out = builder.infer_clause("cut", [lid, rid], resolvent)
            release(lid)
            release(rid)
            return out, resolvent

        root_id, root_clause = grow(set(), 0)
        # every leaf carries the target and no cut removes a target literal
        assert root_clause == target, "the root clause is the target"
        return root_id

    return [derive(t) for t in targets]


def derive_implied_clause(premises, target: Clause) -> Derivation:
    """``derive_implied_clauses`` of one target on a fresh builder, with
    every premise downloaded: a standalone derivation."""
    builder = DerivationBuilder(CnfFormula(premises), k=1)
    derive_implied_clauses(builder, builder.formula, [target], {})
    return builder.build()

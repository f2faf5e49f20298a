"""Literals, clauses, terms, CNF/DNF formulas, restrictions and brute-force
semantic implication.

Literals are nonzero signed integers in the DIMACS convention: ``v`` is the
positive literal over variable ``v >= 1`` and ``-v`` the negative one, so
negation is plain arithmetic negation.  Clauses and terms canonicalize their
literal sets to a fixed order (ascending variable id, negative literal before
positive at equal id), which makes serialization byte-stable and lets golden
tests compare objects directly.

The restriction semantics follow the usual case tables: a term is satisfied
when all its literals are, falsified when one is falsified, otherwise the
unfixed residual remains; clauses and CNF/DNF formulas dually.  ``restrict``
returns ``True``, ``False`` or a residual of the same kind as its input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .caps import get_cap
from .errors import (
    PartialAssignmentError,
    TooManyVariablesError,
    TrivialClauseError,
)

# ---------------------------------------------------------------------------
# literals


def neg(lit: int) -> int:
    """Negation of a literal; an involution."""
    return -lit


def var_of(lit: int) -> int:
    return abs(lit)


def _lit_key(lit: int):
    # ascending variable id, negative before positive at equal id
    return (abs(lit), lit > 0)


def canonical_literals(lits) -> tuple[int, ...]:
    """Deduplicate and sort literals into canonical order."""
    return tuple(sorted(set(lits), key=_lit_key))


def _check_lits(lits):
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            raise ValueError(f"bad literal {lit!r}")


# ---------------------------------------------------------------------------
# clauses and terms


@dataclass(frozen=True, order=True)
class Clause:
    """A disjunction of literals, stored as a canonical literal tuple."""

    lits: tuple[int, ...]

    def __init__(self, lits=()):
        lits = tuple(lits)
        _check_lits(lits)
        object.__setattr__(self, "lits", canonical_literals(lits))

    @property
    def width(self) -> int:
        return len(self.lits)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits)

    def is_trivial(self) -> bool:
        seen = set(self.lits)
        return any(-l in seen for l in self.lits)

    def union(self, other: "Clause") -> "Clause":
        return Clause(self.lits + other.lits)

    def without(self, lit: int) -> "Clause":
        return Clause(l for l in self.lits if l != lit)

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits

    def __iter__(self):
        return iter(self.lits)

    def __len__(self):
        return len(self.lits)


EMPTY_CLAUSE = Clause()


@dataclass(frozen=True, order=True)
class Term:
    """A conjunction of literals; the empty term is satisfied by everything."""

    lits: tuple[int, ...]

    def __init__(self, lits=()):
        lits = tuple(lits)
        _check_lits(lits)
        object.__setattr__(self, "lits", canonical_literals(lits))

    @property
    def width(self) -> int:
        return len(self.lits)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits)

    def is_trivial(self) -> bool:
        seen = set(self.lits)
        return any(-l in seen for l in self.lits)

    def union(self, other: "Term") -> "Term":
        return Term(self.lits + other.lits)

    def without(self, lit: int) -> "Term":
        return Term(l for l in self.lits if l != lit)

    def is_subterm_of(self, other: "Term") -> bool:
        return set(self.lits) <= set(other.lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits

    def __iter__(self):
        return iter(self.lits)

    def __len__(self):
        return len(self.lits)


EMPTY_TERM = Term()


@dataclass(frozen=True, order=True)
class CnfFormula:
    """A set of clauses in canonical lexicographic order.

    Trivial clauses are dropped on construction unless ``keep_trivial`` is
    set (the weakening rule may introduce them transiently).
    """

    clauses: tuple[Clause, ...]

    def __init__(self, clauses=(), keep_trivial=False):
        cs = []
        for c in clauses:
            if not isinstance(c, Clause):
                c = Clause(c)
            if keep_trivial or not c.is_trivial():
                cs.append(c)
        object.__setattr__(self, "clauses", tuple(sorted(set(cs))))

    def variables(self) -> frozenset[int]:
        out = set()
        for c in self.clauses:
            out.update(c.variables())
        return frozenset(out)

    def size(self) -> int:
        """Total literal count with repetition."""
        return sum(len(c) for c in self.clauses)

    def width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    def __contains__(self, clause: Clause) -> bool:
        return clause in self.clauses

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self):
        return len(self.clauses)


@dataclass(frozen=True, order=True)
class KDnfFormula:
    """A k-DNF: a set of terms, each with at most k literals.

    The empty DNF (no terms) is the unsatisfiable formula 0.  Trivial terms
    are dropped on construction; they never change the formula's value.
    """

    terms: tuple[Term, ...]
    k: int

    def __init__(self, terms=(), k=1):
        ts = []
        for t in terms:
            if not isinstance(t, Term):
                t = Term(t)
            if not t.is_trivial():
                ts.append(t)
        ts = tuple(sorted(set(ts)))
        for t in ts:
            if len(t) > k:
                raise ValueError(f"term {t.lits} wider than k={k}")
        object.__setattr__(self, "terms", ts)
        object.__setattr__(self, "k", k)

    @classmethod
    def from_clause(cls, clause: Clause, k: int = 1) -> "KDnfFormula":
        """View a clause as a 1-DNF of singleton terms (any k >= 1)."""
        return cls([Term([l]) for l in clause.lits], k=k)

    def is_empty(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[int]:
        out = set()
        for t in self.terms:
            out.update(t.variables())
        return frozenset(out)

    def size(self) -> int:
        return sum(len(t) for t in self.terms)

    def max_term_width(self) -> int:
        return max((len(t) for t in self.terms), default=0)

    def as_clause(self) -> Clause:
        """The clause this 1-DNF denotes; only valid for singleton terms."""
        if any(len(t) != 1 for t in self.terms):
            raise ValueError("formula has non-unit terms")
        return Clause(t.lits[0] for t in self.terms)

    def with_k(self, k: int) -> "KDnfFormula":
        return KDnfFormula(self.terms, k=k)

    def __contains__(self, term: Term) -> bool:
        return term in self.terms

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


EMPTY_DNF = KDnfFormula((), k=1)


# ---------------------------------------------------------------------------
# restrictions


@dataclass(frozen=True)
class Restriction:
    """A partial assignment: a set of literals, at most one per variable."""

    lits: tuple[int, ...]

    def __init__(self, lits=()):
        lits = tuple(lits)
        _check_lits(lits)
        canon = canonical_literals(lits)
        seen = set()
        for l in canon:
            if abs(l) in seen:
                raise ValueError(f"two literals over variable {abs(l)}")
            seen.add(abs(l))
        object.__setattr__(self, "lits", canon)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits)

    def value_of(self, var: int):
        """True/False if var is fixed, None otherwise."""
        if var in self.lits:
            return True
        if -var in self.lits:
            return False
        return None

    def satisfies(self, lit: int) -> bool:
        return lit in self.lits

    def falsifies(self, lit: int) -> bool:
        return -lit in self.lits

    def extend(self, lits) -> "Restriction":
        return Restriction(self.lits + tuple(lits))

    def negate(self) -> "Restriction":
        return Restriction(tuple(-l for l in self.lits))

    def covers(self, variables) -> bool:
        return set(variables) <= self.variables()

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits

    def __iter__(self):
        return iter(self.lits)

    def __len__(self):
        return len(self.lits)


def assignment_from_bits(variables, bits: int) -> Restriction:
    """Assignment over sorted(variables); bit i gives the value of the i-th."""
    vs = sorted(variables)
    return Restriction(tuple(v if (bits >> i) & 1 else -v for i, v in enumerate(vs)))


# ---------------------------------------------------------------------------
# restriction semantics (the case tables)


def restrict_literal(lit: int, rho: Restriction):
    if rho.satisfies(lit):
        return True
    if rho.falsifies(lit):
        return False
    return lit


def restrict_term(term: Term, rho: Restriction):
    if any(rho.falsifies(l) for l in term):
        return False
    residual = [l for l in term if not rho.satisfies(l)]
    if not residual:
        return True
    return Term(residual)


def restrict_clause(clause: Clause, rho: Restriction):
    if any(rho.satisfies(l) for l in clause):
        return True
    residual = [l for l in clause if not rho.falsifies(l)]
    if not residual:
        return False
    return Clause(residual)


def restrict_dnf(formula: KDnfFormula, rho: Restriction):
    residual = []
    for t in formula:
        r = restrict_term(t, rho)
        if r is True:
            return True
        if r is not False:
            residual.append(r)
    if not residual:
        return False  # every term dead; the empty DNF 0 is always false
    return KDnfFormula(residual, k=formula.k)


def restrict_cnf(formula: CnfFormula, rho: Restriction):
    residual = []
    for c in formula:
        r = restrict_clause(c, rho)
        if r is False:
            return False
        if r is not True:
            residual.append(r)
    if not residual:
        return True
    return CnfFormula(residual)


def restrict(entity, rho: Restriction):
    """Restrict any supported entity; returns True/False or a residual."""
    if isinstance(entity, Term):
        return restrict_term(entity, rho)
    if isinstance(entity, Clause):
        return restrict_clause(entity, rho)
    if isinstance(entity, KDnfFormula):
        return restrict_dnf(entity, rho)
    if isinstance(entity, CnfFormula):
        return restrict_cnf(entity, rho)
    if isinstance(entity, int):
        return restrict_literal(entity, rho)
    raise TypeError(f"cannot restrict {type(entity).__name__}")


def evaluate(entity, alpha: Restriction) -> bool:
    """Evaluate under a total assignment; raises if a variable is missing."""
    vs = (
        frozenset((abs(entity),)) if isinstance(entity, int) else entity.variables()
    )
    if not alpha.covers(vs):
        missing = sorted(set(vs) - alpha.variables())
        raise PartialAssignmentError(f"unassigned variables {missing}")
    result = restrict(entity, alpha)
    if result is True or result is False:
        return result
    raise AssertionError("total assignment left entity unfixed")


def negating_restriction(clause: Clause) -> Restriction:
    """The minimal restriction fixing a clause to false."""
    if clause.is_trivial():
        raise TrivialClauseError(f"clause {clause.lits} is trivial")
    return Restriction(tuple(-l for l in clause.lits))


# ---------------------------------------------------------------------------
# brute-force implication


def _entity_variables(entity):
    if isinstance(entity, int):
        return frozenset((abs(entity),))
    return entity.variables()


def _as_rows(entity, var_bit):
    """Encode an entity as (kind, rows) for the evaluation kernel.

    kind "cnf": satisfied iff every row (a clause) holds; kind "dnf":
    satisfied iff some row (a term) holds.  Rows are (pos_mask, neg_mask)
    bit masks over the assignment word.
    """
    def row(lits):
        pos = sum(1 << var_bit[l] for l in lits if l > 0)
        neg = sum(1 << var_bit[-l] for l in lits if l < 0)
        return (pos, neg)

    if isinstance(entity, int):
        entity = Clause([entity])
    if isinstance(entity, Clause):
        return ("cnf", [row(entity)])
    if isinstance(entity, Term):
        return ("dnf", [row(entity)])
    if isinstance(entity, CnfFormula):
        return ("cnf", [row(c) for c in entity])
    if isinstance(entity, KDnfFormula):
        return ("dnf", [row(t) for t in entity])
    raise TypeError(f"cannot encode {type(entity).__name__}")


def _normalize_side(side):
    if isinstance(side, (Clause, Term, CnfFormula, KDnfFormula, int)):
        return [side]
    return list(side)


def implication_counterexample(premises, conclusions, cap=None):
    """An assignment satisfying all premises and falsifying some conclusion,
    or None if the premises imply every conclusion.

    Exhaustive over all assignments to the union of the variables; the cap
    (default from caps.IMPLIES_VARS) keeps the 2^n enumeration explicit.
    """
    premises = _normalize_side(premises)
    conclusions = _normalize_side(conclusions)
    variables = sorted(
        reduce(lambda a, b: a | b, (_entity_variables(e) for e in premises + conclusions), frozenset())
    )
    cap = get_cap("IMPLIES_VARS") if cap is None else cap
    if len(variables) > cap:
        raise TooManyVariablesError(
            f"{len(variables)} variables exceed brute-force cap {cap}"
        )
    var_bit = {v: i for i, v in enumerate(variables)}
    prem_rows = [_as_rows(e, var_bit) for e in premises]
    conc_rows = [_as_rows(e, var_bit) for e in conclusions]

    from . import accel

    bits = accel.find_counterexample(len(variables), prem_rows, conc_rows)
    if bits is None:
        return None
    return assignment_from_bits(variables, bits)


def implies(premises, conclusions, cap=None) -> bool:
    """True iff every assignment satisfying all premises satisfies every
    conclusion.  implies(A, [EMPTY_DNF]) tests unsatisfiability of A."""
    return implication_counterexample(premises, conclusions, cap=cap) is None


def is_satisfiable(formulas, cap=None) -> bool:
    return not implies(formulas, [EMPTY_DNF], cap=cap)


def all_assignments(variables):
    """All assignments over the given variables, in bit order."""
    vs = sorted(variables)
    for bits in range(1 << len(vs)):
        yield assignment_from_bits(vs, bits)


def all_clauses_over(variables, max_width=None):
    """All nontrivial nonempty clauses over the variables, canonical order."""
    vs = sorted(variables)
    max_width = len(vs) if max_width is None else max_width
    out = []
    for w in range(1, max_width + 1):
        for combo in itertools.combinations(vs, w):
            for signs in itertools.product((1, -1), repeat=w):
                out.append(Clause(s * v for s, v in zip(signs, combo)))
    return sorted(set(out))

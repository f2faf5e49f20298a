"""Literals, clauses, terms, CNF/DNF formulas, restrictions and brute-force
semantic implication.

Literals are nonzero signed integers in the DIMACS convention: ``v`` is the
positive literal over variable ``v >= 1`` and ``-v`` the negative one, so
negation is plain arithmetic negation.  Clauses and terms canonicalize their
literal sets to a fixed order (ascending variable id, negative literal before
positive at equal id), which makes serialization byte-stable and lets golden
tests compare objects directly.

Clauses, terms and k-DNFs are hash-consed: each distinct value is one
object, shared by everything that builds it, and its hash is computed once.
The public constructors validate their input before they look the value up,
so a bad literal or a term wider than k raises however many equal values
exist.  The interning tables hold their values weakly, so a value lives only
as long as something else keeps it.  Equality and ordering stay value-based.

The restriction semantics follow the usual case tables: a term is satisfied
when all its literals are, falsified when one is falsified, otherwise the
unfixed residual remains; clauses and CNF/DNF formulas dually.  ``restrict``
returns ``True``, ``False`` or a residual of the same kind as its input.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import attrgetter

from .caps import get_cap
from .errors import (
    PartialAssignmentError,
    TooManyVariablesError,
    TrivialClauseError,
)

# ---------------------------------------------------------------------------
# literals


def canonical_literals(lits) -> tuple[int, ...]:
    """Deduplicate and sort literals into canonical order: sorting by value
    puts -v before v, and the stable sort by variable id keeps that order."""
    lits = tuple(lits)
    if len(lits) < 2:
        return lits
    return tuple(sorted(sorted(set(lits)), key=abs))


def _check_lits(lits) -> tuple[int, ...]:
    """The literals as a tuple of plain ints.  The first one that is not a
    nonzero int raises ValueError; an int subclass such as bool becomes its
    int value, so an interned value prints the same whoever built it first."""
    lits = tuple(lits)
    plain = True
    for lit in lits:
        if type(lit) is not int:
            if not isinstance(lit, int):
                raise ValueError(f"bad literal {lit!r}")
            plain = False
        if lit == 0:
            raise ValueError(f"bad literal {lit!r}")
    return lits if plain else tuple(map(int, lits))


# ---------------------------------------------------------------------------
# clauses and terms


@dataclass(frozen=True, order=True, init=False)
class _Literals:
    """A canonical literal tuple: the shared body of clauses and terms.

    Clauses and terms are plain subclasses, so dataclass equality and order
    still compare only within one class: a clause never equals a term with
    the same literals, and ordering a clause against a term raises TypeError.
    Each subclass interns its values in its own table.
    """

    __slots__ = ("lits", "_hash", "_trivial", "__weakref__")
    lits: tuple[int, ...]

    def __new__(cls, lits=()):
        return cls._interned(canonical_literals(_check_lits(lits)))

    @classmethod
    def _interned(cls, lits: tuple[int, ...]):
        """The one object with these canonical, checked literals."""
        # the table's own dict of weak references: reading it directly
        # saves WeakValueDictionary.get's Python frame on every lookup
        ref = cls._table.data.get(lits)
        obj = None if ref is None else ref()
        if obj is None:
            obj = object.__new__(cls)
            object.__setattr__(obj, "lits", lits)
            object.__setattr__(obj, "_hash", hash((lits,)))
            # the literals are distinct, so a shared variable is a
            # complementary pair
            trivial = len(lits) > 1 and len(set(map(abs, lits))) < len(lits)
            object.__setattr__(obj, "_trivial", trivial)
            cls._table[lits] = obj
        return obj

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # returns the interned object
        return type(self), (self.lits,)

    @property
    def width(self) -> int:
        return len(self.lits)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits)

    def is_trivial(self) -> bool:
        return self._trivial

    def union(self, other):
        return self._interned(canonical_literals(self.lits + other.lits))

    def without(self, lit: int):
        return self._interned(tuple(l for l in self.lits if l != lit))

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits

    def __iter__(self):
        return iter(self.lits)

    def __len__(self):
        return len(self.lits)


class Clause(_Literals):
    """A disjunction of literals, stored as a canonical literal tuple."""

    __slots__ = ()
    _table = weakref.WeakValueDictionary()


EMPTY_CLAUSE = Clause()


class Term(_Literals):
    """A conjunction of literals; the empty term is satisfied by everything."""

    __slots__ = ()
    _table = weakref.WeakValueDictionary()

    def is_subterm_of(self, other: "Term") -> bool:
        return set(self.lits) <= set(other.lits)


EMPTY_TERM = Term()
_term_lits = attrgetter("lits")


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
        return frozenset(abs(l) for c in self.clauses for l in c.lits)

    def size(self) -> int:
        """Total literal count with repetition."""
        return sum(len(c) for c in self.clauses)

    def width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    @cached_property
    def _clause_set(self) -> frozenset[Clause]:
        # derived on first membership test; not a field, so equality, hash
        # and order still see only the clause tuple
        return frozenset(self.clauses)

    def __contains__(self, clause: Clause) -> bool:
        return clause in self._clause_set

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self):
        return len(self.clauses)


def _check_width(terms, k: int) -> None:
    for t in terms:
        if len(t.lits) > k:
            raise ValueError(f"term {t.lits} wider than k={k}")


@dataclass(frozen=True, order=True, init=False)
class KDnfFormula:
    """A k-DNF: a set of terms, each with at most k literals.

    The empty DNF (no terms) is the unsatisfiable formula 0.  Trivial terms
    are dropped on construction; they never change the formula's value.
    Values are interned by (terms, k).
    """

    __slots__ = ("terms", "k", "_hash", "__weakref__")
    terms: tuple[Term, ...]
    k: int

    _table = weakref.WeakValueDictionary()

    def __new__(cls, terms=(), k=1):
        ts = []
        for t in terms:
            if not isinstance(t, Term):
                t = Term(t)
            if not t._trivial:
                ts.append(t)
        # lits is a term's only field, so this is the dataclass order
        ts = tuple(sorted(set(ts), key=_term_lits))
        _check_width(ts, k)
        return cls._interned(ts, k)

    @classmethod
    def _interned(cls, terms: tuple[Term, ...], k: int) -> "KDnfFormula":
        """The one formula with these canonical terms, each at most k wide."""
        key = (terms, k)
        ref = cls._table.data.get(key)
        obj = None if ref is None else ref()
        if obj is None:
            obj = object.__new__(cls)
            object.__setattr__(obj, "terms", terms)
            object.__setattr__(obj, "k", k)
            object.__setattr__(obj, "_hash", hash(key))
            cls._table[key] = obj
        return obj

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return KDnfFormula, (self.terms, self.k)

    @classmethod
    def from_clause(cls, clause: Clause, k: int = 1) -> "KDnfFormula":
        """View a clause as a 1-DNF of singleton terms (any k >= 1)."""
        # a clause's literals are checked and distinct, and unit terms sort
        # by their literal
        terms = tuple(Term._interned((l,)) for l in sorted(clause.lits))
        _check_width(terms, k)
        return cls._interned(terms, k)

    def is_empty(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for t in self.terms for l in t.lits)

    def size(self) -> int:
        return sum(len(t.lits) for t in self.terms)

    def max_term_width(self) -> int:
        return max((len(t.lits) for t in self.terms), default=0)

    def as_clause(self) -> Clause:
        """The clause this 1-DNF denotes; only valid for singleton terms."""
        if any(len(t) != 1 for t in self.terms):
            raise ValueError("formula has non-unit terms")
        return Clause._interned(canonical_literals(t.lits[0] for t in self.terms))

    def with_k(self, k: int) -> "KDnfFormula":
        _check_width(self.terms, k)
        return KDnfFormula._interned(self.terms, k)

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
        canon = canonical_literals(_check_lits(lits))
        seen = set()
        for l in canon:
            if abs(l) in seen:
                raise ValueError(f"two literals over variable {abs(l)}")
            seen.add(abs(l))
        object.__setattr__(self, "lits", canon)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.lits)

    def satisfies(self, lit: int) -> bool:
        return lit in self.lits

    def falsifies(self, lit: int) -> bool:
        return -lit in self.lits

    def extend(self, lits) -> "Restriction":
        return Restriction(self.lits + tuple(lits))

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


def _row(lits, var_bit):
    """One literal tuple as (pos_mask, neg_mask): v sets bit var_bit[v] of
    pos_mask, -v the same bit of neg_mask."""
    pos = neg = 0
    for l in lits:
        if l > 0:
            pos |= 1 << var_bit[l]
        else:
            neg |= 1 << var_bit[-l]
    return pos, neg


def _as_rows(entity, var_bit):
    """Encode an entity as (kind, rows) for the satisfaction kernel
    ``accel.sat_mask``, the one place that evaluates the encoding.

    kind "cnf": satisfied iff every row (a clause) holds; kind "dnf":
    satisfied iff some row (a term) holds.  Rows are (pos_mask, neg_mask)
    bit masks over the assignment word, variable v on bit var_bit[v].
    """
    if isinstance(entity, Clause):
        return "cnf", [_row(entity.lits, var_bit)]
    if isinstance(entity, KDnfFormula):
        return "dnf", [_row(t.lits, var_bit) for t in entity.terms]
    if isinstance(entity, Term):
        return "dnf", [_row(entity.lits, var_bit)]
    if isinstance(entity, CnfFormula):
        return "cnf", [_row(c.lits, var_bit) for c in entity.clauses]
    if isinstance(entity, int):
        return "cnf", [_row(Clause([entity]).lits, var_bit)]
    raise TypeError(f"cannot encode {type(entity).__name__}")


def _normalize_side(side):
    if isinstance(side, (Clause, Term, CnfFormula, KDnfFormula, int)):
        return [side]
    return list(side)


def _swept_variables(entities):
    """The sorted variables of the entities and each one's bit in the
    assignment word, for a sweep of all 2^n assignments; the cap
    IMPLIES_VARS (see caps.py) keeps that sweep explicit."""
    variables = sorted(
        reduce(lambda a, b: a | b, map(_entity_variables, entities), frozenset())
    )
    cap = get_cap("IMPLIES_VARS")
    if len(variables) > cap:
        raise TooManyVariablesError(
            f"{len(variables)} variables exceed brute-force cap {cap}"
        )
    return variables, {v: i for i, v in enumerate(variables)}


def implication_counterexample(premises, conclusions):
    """An assignment satisfying all premises and falsifying some conclusion,
    or None if the premises imply every conclusion.

    Exhaustive over all assignments to the union of the variables; the cap
    IMPLIES_VARS (see caps.py) keeps the 2^n enumeration explicit.
    """
    premises = _normalize_side(premises)
    conclusions = _normalize_side(conclusions)
    variables, var_bit = _swept_variables(premises + conclusions)
    prem_rows = [_as_rows(e, var_bit) for e in premises]
    conc_rows = [_as_rows(e, var_bit) for e in conclusions]

    from . import accel

    bits = accel.find_counterexample(len(variables), prem_rows, conc_rows)
    if bits is None:
        return None
    return assignment_from_bits(variables, bits)


def implies(premises, conclusions) -> bool:
    """True iff every assignment satisfying all premises satisfies every
    conclusion.  implies(A, [EMPTY_DNF]) tests unsatisfiability of A."""
    return implication_counterexample(premises, conclusions) is None


def is_satisfiable(formulas) -> bool:
    return not implies(formulas, [EMPTY_DNF])


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

"""Boolean functions of small arity, their canonical CNF representations,
variable substitution into formulas, and the non-authoritarian predicate.

A function of arity d is stored as a truth table indexed by assignment
words (bit i of the index is the value of the i-th input).  Substituting a
function f into a formula replaces every variable x by f over a fresh block
of d variables; the block of original variable x occupies fresh ids
d*(x-1)+1 .. d*x, so substituted formulas are deterministic and DIMACS
output is stable.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import InvalidParamError
from .logic import Clause, CnfFormula

ARITY_CAP = 8


def _check_arity(d: int):
    if d < 1 or d > ARITY_CAP:
        raise InvalidParamError(f"arity {d} out of range 1..{ARITY_CAP}")


@dataclass(frozen=True)
class BooleanFunction:
    """A non-constant Boolean function given by name, arity and truth table."""

    name: str
    d: int
    table: tuple[bool, ...]

    def __init__(self, name, d, table):
        _check_arity(d)
        table = tuple(bool(b) for b in table)
        if len(table) != 1 << d:
            raise InvalidParamError("truth table size must be 2^d")
        if all(table) or not any(table):
            raise InvalidParamError("constant functions are not allowed")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "table", table)

    def value(self, bits: int) -> bool:
        return self.table[bits]

    def __call__(self, *args: bool) -> bool:
        if len(args) != self.d:
            raise InvalidParamError(f"expected {self.d} arguments")
        return self.table[sum(1 << i for i, b in enumerate(args) if b)]


def _named(name: str, d: int, value) -> BooleanFunction:
    """The function ``name`` of arity d that takes value(i) on assignment
    word i.  The arity is checked before the 2^d-entry table is built, so an
    out-of-range d fails at once instead of exhausting memory."""
    _check_arity(d)
    return BooleanFunction(name, d, [value(i) for i in range(1 << d)])


def or_function(d: int) -> BooleanFunction:
    return _named("or", d, lambda i: i != 0)


def and_function(d: int) -> BooleanFunction:
    return _named("and", d, lambda i: i == (1 << d) - 1)


def xor_function(d: int) -> BooleanFunction:
    return _named("xor", d, lambda i: i.bit_count() % 2 == 1)


def threshold_function(d: int, k: int) -> BooleanFunction:
    """True when at least k of the d inputs are true."""
    if not 1 <= k <= d:
        raise InvalidParamError(f"threshold {k} out of range 1..{d}")
    f = _named(f"thr{k}", d, lambda i: i.bit_count() >= k)
    object.__setattr__(f, "_thr_k", k)
    return f


def threshold_of(f: BooleanFunction) -> int | None:
    """The k for which f is the named threshold "at least k of d": 1 for
    or, d for and, its own k for thr<k> and maj; None for anything else."""
    if f.name == "or":
        return 1
    if f.name == "and":
        return f.d
    return getattr(f, "_thr_k", None)  # set by threshold_function only


def identity_function() -> BooleanFunction:
    return BooleanFunction("identity", 1, [False, True])


def majority_function(d: int) -> BooleanFunction:
    if d % 2 == 0:
        raise InvalidParamError("majority needs odd arity")
    return threshold_function(d, (d + 1) // 2)


def function_by_name(name: str, d: int | None = None) -> BooleanFunction:
    """Resolve a CLI-style function spec: or/and/xor/maj need d, thr needs d
    written as thr<k>:<d>, identity needs none."""
    if name == "identity" or name == "id":
        return identity_function()
    if d is None:
        raise InvalidParamError(f"function {name!r} needs an arity")
    if name == "or":
        return or_function(d)
    if name == "and":
        return and_function(d)
    if name == "xor":
        return xor_function(d)
    if name == "maj":
        return majority_function(d)
    if name.startswith("thr"):
        try:
            k = int(name[3:])
        except ValueError:
            raise InvalidParamError(f"{name!r} is not of the form thr<k>") from None
        return threshold_function(d, k)
    raise InvalidParamError(f"unknown function {name!r}")


# ---------------------------------------------------------------------------
# canonical clause representations


@functools.cache
def canonical_clauses(f: BooleanFunction, positive: bool = True) -> CnfFormula:
    """The canonical CNF over variables 1..d representing f (or its negation).

    Two rules: a threshold "at least k of d" gets its subset clauses (every
    d-k+1 inputs contain a true one; for the negation, every k inputs contain
    a false one); any other function gets one clause per assignment on which
    it misses the wanted value, the clause true everywhere except there.
    The result is immutable and depends only on (f, positive), so it is
    built once per pair.
    """
    d = f.d
    k = threshold_of(f)
    if k is not None:
        if positive:
            subsets = itertools.combinations(range(1, d + 1), d - k + 1)
            return CnfFormula(Clause(s) for s in subsets)
        subsets = itertools.combinations(range(1, d + 1), k)
        return CnfFormula(Clause([-v for v in s]) for s in subsets)
    return CnfFormula(
        Clause([-(i + 1) if (bits >> i) & 1 else i + 1 for i in range(d)])
        for bits in range(1 << d)
        if f.value(bits) != positive
    )


# ---------------------------------------------------------------------------
# substitution


@dataclass(frozen=True)
class SubstitutionVarMap:
    """Block renaming: original variable x owns fresh ids d*(x-1)+1 .. d*x."""

    d: int

    def fresh(self, var: int, j: int) -> int:
        if not 1 <= j <= self.d:
            raise InvalidParamError(f"block index {j} out of range")
        return self.d * (var - 1) + j

    def block(self, var: int) -> tuple[int, ...]:
        return tuple(self.d * (var - 1) + j for j in range(1, self.d + 1))

    def original(self, fresh_var: int) -> int:
        """The shadow of a substituted variable: the variable it belongs to."""
        return (fresh_var - 1) // self.d + 1

    def shadow(self, variables) -> frozenset[int]:
        return frozenset(self.original(v) for v in variables)


def rename_clause(clause: Clause, var: int, varmap: SubstitutionVarMap) -> Clause:
    """Map a clause over 1..d into the block of ``var``."""
    return Clause(
        [
            (varmap.fresh(var, abs(l)) if l > 0 else -varmap.fresh(var, abs(l)))
            for l in clause
        ]
    )


def literal_substitution(lit: int, f: BooleanFunction) -> CnfFormula:
    """a[f]: the canonical clauses of f (or not-f) renamed into a's block."""
    varmap = SubstitutionVarMap(f.d)
    base = canonical_clauses(f, positive=lit > 0)
    return CnfFormula([rename_clause(c, abs(lit), varmap) for c in base])


def clause_set_disjunction(left, right) -> tuple[Clause, ...]:
    """Pairwise unions of two clause sets; trivial results are dropped."""
    out = set()
    for a in left:
        for b in right:
            u = a.union(b)
            if not u.is_trivial():
                out.add(u)
    return tuple(sorted(out))


def substitute_clause(clause: Clause, f: BooleanFunction) -> CnfFormula:
    """C[f]: the cross-product disjunction of the per-literal clause sets."""
    if clause.is_trivial():
        raise InvalidParamError("cannot substitute into a trivial clause")
    if not clause.lits:
        return CnfFormula([Clause()], keep_trivial=True)
    acc = tuple(literal_substitution(clause.lits[0], f))
    for lit in clause.lits[1:]:
        acc = clause_set_disjunction(acc, tuple(literal_substitution(lit, f)))
    return CnfFormula(acc)


def substitute_formula(formula: CnfFormula, f: BooleanFunction) -> CnfFormula:
    """F[f]: the union of C[f] over the clauses of F."""
    out = []
    for c in formula:
        out.extend(substitute_clause(c, f).clauses)
    return CnfFormula(out)


# ---------------------------------------------------------------------------
# the non-authoritarian predicate


def is_k_non_authoritarian(f: BooleanFunction, k: int) -> bool:
    """True iff no restriction of at most k of the d inputs fixes f: every
    such restriction extends both to a satisfying and a falsifying input.
    Exhaustive over all restrictions."""
    d = f.d
    for size in range(0, min(k, d) + 1):
        for vs in itertools.combinations(range(d), size):
            for vals in itertools.product((0, 1), repeat=size):
                seen0 = seen1 = False
                fixed = dict(zip(vs, vals))
                free = [i for i in range(d) if i not in fixed]
                base = sum(1 << i for i, b in fixed.items() if b)
                for ext in range(1 << len(free)):
                    bits = base
                    for j, i in enumerate(free):
                        if (ext >> j) & 1:
                            bits |= 1 << i
                    if f.value(bits):
                        seen1 = True
                    else:
                        seen0 = True
                    if seen0 and seen1:
                        break
                if not (seen0 and seen1):
                    return False
    return True

"""Minimally unsatisfiable and minimally implying k-DNF sets: checkers, an
explicit block-substitution construction, and exhaustive enumeration at
desk scale.

A set of k-DNFs minimally implies G when it implies G but replacing any
single term by any proper subterm (the empty term included) breaks the
implication.  Shrinking a term only weakens it, so checking the maximal
proper subterms (one literal removed) suffices.  For 1-DNF sets the notion
coincides with clause-deletion minimality of the corresponding CNF.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import accel
from .caps import get_cap
from .errors import CapExceededError, InvalidParamError
from .logic import (
    EMPTY_DNF,
    Clause,
    KDnfFormula,
    Term,
    _as_rows,
    all_clauses_over,
    implies,
)


def _with_term_replaced(formula: KDnfFormula, old: Term, new: Term) -> KDnfFormula:
    terms = [t for t in formula.terms if t != old] + [new]
    return KDnfFormula(terms, k=formula.k)


def minimally_implies(formulas, goal) -> bool:
    """True iff the set implies the goal and every single-term shrink stops
    implying it."""
    formulas = list(formulas)
    if not implies(formulas, [goal]):
        return False
    for i, d in enumerate(formulas):
        for t in d.terms:
            for lit in t.lits:
                shrunk = list(formulas)
                shrunk[i] = _with_term_replaced(d, t, t.without(lit))
                if implies(shrunk, [goal]):
                    return False
    return True


def is_minimally_unsatisfiable(formulas) -> bool:
    """Minimal implication of the empty DNF: unsatisfiable, and shrinking
    any single term restores satisfiability."""
    return minimally_implies(formulas, EMPTY_DNF)


# ---------------------------------------------------------------------------
# the explicit block construction


def _positive_block_dnf(blocks, k) -> KDnfFormula:
    return KDnfFormula([Term(b) for b in blocks], k=k)


def _negative_block_dnf(blocks, k) -> KDnfFormula:
    terms = [
        Term([-v for v in pick]) for pick in itertools.product(*blocks)
    ]
    return KDnfFormula(terms, k=k)


def block_substituted_min_unsat(k: int, n: int):
    """The k-DNF set obtained from the n+1 clause contradiction
    { x1 v ... v xn, ~x1, ..., ~xn } by replacing each variable with a
    disjunction of k blocks of k fresh conjoined variables: n+1 formulas
    over exactly k^2*n variables, minimally unsatisfiable."""
    if k < 1 or n < 1:
        raise InvalidParamError("k and n must be positive")
    blocks = {}
    nxt = 1
    for i in range(1, n + 1):
        blocks[i] = [tuple(range(nxt + j * k, nxt + (j + 1) * k)) for j in range(k)]
        nxt += k * k
    big = KDnfFormula(
        [t for i in range(1, n + 1) for t in _positive_block_dnf(blocks[i], k).terms],
        k=k,
    )
    out = [big]
    for i in range(1, n + 1):
        out.append(_negative_block_dnf(blocks[i], k))
    return out


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _term_mask(term, max_vars):
    """Assignments (bit-indexed) satisfying the term.  A clause is falsified
    exactly where the term of its negated literals is satisfied."""
    var_bit = {v: v - 1 for v in term.variables()}
    a = np.arange(1 << max_vars, dtype=np.int64)
    sat = accel.sat_mask(a, *_as_rows(term, var_bit))
    return int.from_bytes(np.packbits(sat, bitorder="little").tobytes(), "little")


def _var_mask(entity):
    mask = 0
    for v in entity.variables():
        mask |= 1 << (v - 1)
    return mask


def _gap_free_mask(vm):
    return vm & (vm + 1) == 0  # used variables form a prefix 1..v


def _renamed_lits(lits, perm):
    """Literals with variable v renamed to perm[v - 1], signs kept."""
    return [perm[abs(l) - 1] * (1 if l > 0 else -1) for l in lits]


def _canonical_classes(universe, hits, var_masks, rename):
    """The classes of the hits under renaming of the used variables, each as
    its least sorted index tuple, sorted and deduplicated.

    A hit is a tuple of universe indices; hits whose used variables are not
    a prefix 1..v are skipped.  ``rename(item, perm)`` maps an item through
    a permutation of 1..v and stays inside the universe.  The universe is
    sorted in output order, so the least index tuple is the least item
    tuple.  An item's images are computed on first use only.
    """
    index_of = {item: i for i, item in enumerate(universe)}
    perms = {}
    images = {}  # (v, i) -> index of item i under each permutation of 1..v
    classes = set()
    for hit in hits:
        vm = 0
        for i in hit:
            vm |= var_masks[i]
        if not _gap_free_mask(vm):
            continue
        v = vm.bit_length()
        if v not in perms:
            perms[v] = list(itertools.permutations(range(1, v + 1)))
        rows = []
        for i in hit:
            row = images.get((v, i))
            if row is None:
                row = images[v, i] = [
                    index_of[rename(universe[i], p)] for p in perms[v]
                ]
            rows.append(row)
        classes.add(min(tuple(sorted(col)) for col in zip(*rows)))
    return sorted(classes)


def enumerate_min_unsat(k: int, max_vars: int, max_formulas: int, max_terms=None):
    """All minimally unsatisfiable k-DNF sets within the caps, up to
    variable renaming and formula order, in a deterministic order.

    For k=1 each formula is a clause and the search walks irredundant
    subcube covers of the assignment cube (every clause keeps a privately
    falsified assignment), which is exactly clause-deletion minimality.
    For k >= 2 the universe is all sets of at most ``max_formulas`` distinct
    antichain formulas with at most ``max_terms`` (default 4) nonempty terms
    each; prefixes must stay satisfiable and every added formula must
    strictly shrink the joint satisfying set.
    """
    if k < 1:
        raise InvalidParamError(f"k must be positive, got {k}")
    if max_vars < 0:
        raise InvalidParamError(f"max_vars must be non-negative, got {max_vars}")
    if max_formulas < 1:
        raise InvalidParamError(f"max_formulas must be positive, got {max_formulas}")
    if max_vars > get_cap("ENUM_VARS"):
        raise CapExceededError(f"max_vars {max_vars} exceeds cap")
    if max_formulas > get_cap("ENUM_FORMULAS"):
        raise CapExceededError(f"max_formulas {max_formulas} exceeds cap")
    if k == 1:
        yield from _enumerate_cnf(max_vars, max_formulas)
        return
    max_terms = 4 if max_terms is None else max_terms
    if max_terms < 1:
        raise InvalidParamError(f"max_terms must be positive, got {max_terms}")
    if max_terms > get_cap("ENUM_TERMS"):
        raise CapExceededError(f"max_terms {max_terms} exceeds cap")
    yield from _enumerate_kdnf(k, max_vars, max_formulas, max_terms)


def _clause_universe(max_vars):
    """All clauses over 1..max_vars in canonical order, with the masks of
    the assignments each falsifies and of the variables each uses."""
    universe = all_clauses_over(range(1, max_vars + 1))
    masks = [_term_mask(Term(-l for l in c.lits), max_vars) for c in universe]
    return universe, masks, [_var_mask(c) for c in universe]


def _enumerate_cnf(max_vars, max_formulas):
    universe, masks, var_masks = _clause_universe(max_vars)
    covers = accel.cover_enumeration(masks, 1 << max_vars, max_formulas)
    for best in _canonical_classes(
        universe, covers, var_masks, lambda c, p: Clause(_renamed_lits(c.lits, p))
    ):
        yield tuple(KDnfFormula.from_clause(universe[i]) for i in best)


def scan_min_unsat_cnf(max_vars: int, max_formulas: int):
    """Exhaustively visit every minimally unsatisfiable CNF within the caps
    (not deduplicated by renaming) and report
    (count, bound_violations, counts_by_size, max_vars_by_size); a
    violation is a set whose variable count reaches its clause count."""
    if max_vars > get_cap("ENUM_VARS"):
        raise CapExceededError(f"max_vars {max_vars} exceeds cap")
    _, masks, var_masks = _clause_universe(max_vars)
    return accel.cover_scan(masks, var_masks, 1 << max_vars, max_formulas)


def _all_terms(k, max_vars):
    """All nontrivial terms of width 1..k over 1..max_vars, in term order."""
    return [Term(c.lits) for c in all_clauses_over(range(1, max_vars + 1), max_width=k)]


def _enumerate_kdnf(k, max_vars, max_formulas, max_terms):
    if (1 << max_vars) > 64:
        raise CapExceededError("k-DNF enumeration supports at most 6 variables")
    if max_formulas > 3:
        raise CapExceededError("k-DNF enumeration supports at most 3 formulas")
    terms = _all_terms(k, max_vars)
    tmask = {t: _term_mask(t, max_vars) for t in terms}
    shrunk_mask = {
        (t, lit): _term_mask(t.without(lit), max_vars)
        for t in terms
        for lit in t.lits
    }
    full = (1 << (1 << max_vars)) - 1

    formulas = []
    # antichain term sets only: a term containing another is never shrinkable
    for m in range(1, max_terms + 1):
        for combo in itertools.combinations(terms, m):
            if any(a.is_subterm_of(b) for a, b in itertools.permutations(combo, 2)):
                continue
            sat = 0
            for t in combo:
                sat |= tmask[t]
            if sat == full:
                continue  # tautological formulas never sit in a minimal set
            formulas.append((KDnfFormula(combo, k=k), sat))
    formulas.sort(key=lambda fs: fs[0].terms)

    universe = [f for f, _ in formulas]
    sats = [s for _, s in formulas]
    var_masks = [_var_mask(f) for f in universe]
    req_masks = []  # per formula, per (term, literal) shrink: the mask a
    # joint assignment of the other formulas must intersect
    for f in universe:
        reqs = []
        for t in f.terms:
            rest = 0
            for u in f.terms:
                if u != t:
                    rest |= tmask[u]
            for lit in t.lits:
                reqs.append(rest | shrunk_mask[(t, lit)])
        req_masks.append(tuple(reqs))

    hits = _kdnf_scan(sats, var_masks, req_masks, max_formulas, full)

    def rename(f, perm):
        return KDnfFormula([Term(_renamed_lits(t.lits, perm)) for t in f.terms], k=k)

    for best in _canonical_classes(universe, hits, var_masks, rename):
        yield tuple(universe[i] for i in best)


def _kdnf_scan(sats, var_masks, req_masks, max_formulas, full):
    def shrink_ok(members):
        for a in members:
            others = full
            for b in members:
                if b != a:
                    others &= sats[b]
            for req in req_masks[a]:
                if not others & req:
                    return False
        return True

    n = len(sats)
    hits = []
    for i in range(n):
        si = sats[i]
        for j in range(i + 1, n):
            joint = si & sats[j]
            if joint == si:
                continue
            if joint == 0:
                if (
                    max_formulas >= 2
                    and _gap_free_mask(var_masks[i] | var_masks[j])
                    and shrink_ok((i, j))
                ):
                    hits.append((i, j))
            elif max_formulas >= 3:
                for l in range(j + 1, n):
                    if sats[l] & joint:
                        continue
                    if _gap_free_mask(
                        var_masks[i] | var_masks[j] | var_masks[l]
                    ) and shrink_ok((i, j, l)):
                        hits.append((i, j, l))
    return hits

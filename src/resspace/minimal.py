"""Minimally unsatisfiable and minimally implying k-DNF sets: checkers, an
explicit block-substitution construction, exhaustive enumeration at desk
scale, and near-satisfying witness restrictions.

A set of k-DNFs minimally implies G when it implies G but replacing any
single term by any proper subterm (the empty term included) breaks the
implication.  Shrinking a term only weakens it, so checking the maximal
proper subterms (one literal removed) suffices.  For 1-DNF sets the notion
coincides with clause-deletion minimality of the corresponding CNF.
"""

from __future__ import annotations

import itertools

from . import accel
from .caps import get_cap
from .errors import CapExceededError, InvalidParamError, NotMinimalError
from .logic import (
    EMPTY_DNF,
    Clause,
    CnfFormula,
    KDnfFormula,
    Restriction,
    Term,
    all_clauses_over,
    implication_counterexample,
    implies,
)


def _with_term_replaced(formula: KDnfFormula, old: Term, new: Term) -> KDnfFormula:
    terms = [t for t in formula.terms if t != old] + [new]
    return KDnfFormula(terms, k=formula.k)


def _shrink_witness(formulas, idx, old, new, goal):
    """An assignment satisfying the set with formulas[idx]'s term ``old``
    replaced by ``new`` while leaving the implied formula unfixed, or None."""
    changed = list(formulas)
    changed[idx] = _with_term_replaced(formulas[idx], old, new)
    return implication_counterexample(changed, [goal])


def minimally_implies(formulas, goal) -> bool:
    """True iff the set implies the goal and every single-term shrink stops
    implying it."""
    formulas = list(formulas)
    if not implies(formulas, [goal]):
        return False
    for i, d in enumerate(formulas):
        for t in d.terms:
            for lit in t.lits:
                if _shrink_witness(formulas, i, t, t.without(lit), goal) is None:
                    return False
    return True


def is_minimally_unsatisfiable(formulas) -> bool:
    """Minimal implication of the empty DNF: unsatisfiable, and shrinking
    any single term restores satisfiability."""
    return minimally_implies(formulas, EMPTY_DNF)


def is_minimally_unsatisfiable_cnf(formula: CnfFormula) -> bool:
    """Clause-deletion minimality: unsatisfiable, every proper subset
    satisfiable."""
    clauses = list(formula)
    if not implies(clauses, [EMPTY_DNF]):
        return False
    for i in range(len(clauses)):
        rest = clauses[:i] + clauses[i + 1 :]
        if implies(rest, [EMPTY_DNF]):
            return False
    return True


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


def shrink_witness_restriction(formulas, idx: int, term: Term, lit: int, goal=EMPTY_DNF) -> Restriction:
    """A restriction of size at most k times the set size that satisfies
    every other formula and the chosen term minus the chosen literal while
    leaving the implied formula unfixed.

    Built from the shrink witness assignment: keep one satisfied term per
    other formula plus the shrunken term's literals, drop the rest.
    """
    formulas = list(formulas)
    if term not in formulas[idx] or lit not in term:
        raise NotMinimalError("term or literal not in the chosen formula")
    if not minimally_implies(formulas, goal):
        raise NotMinimalError("the set does not minimally imply the goal")
    alpha = _shrink_witness(formulas, idx, term, term.without(lit), goal)
    assert alpha is not None
    keep = set(term.without(lit).lits)
    for j, d in enumerate(formulas):
        if j == idx:
            continue
        sat = next(t for t in d.terms if all(alpha.satisfies(l) for l in t.lits))
        keep.update(sat.lits)
    keep_vars = {abs(l) for l in keep}
    return Restriction([l for l in alpha if abs(l) in keep_vars])


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _clause_mask(clause, max_vars):
    """Assignments (bit-indexed) falsifying the clause."""
    mask = 0
    for bits in range(1 << max_vars):
        if all(((bits >> (abs(l) - 1)) & 1) == (0 if l > 0 else 1) for l in clause.lits):
            mask |= 1 << bits
    return mask


def _term_mask(term, max_vars):
    """Assignments satisfying the term."""
    mask = 0
    for bits in range(1 << max_vars):
        if all(((bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in term.lits):
            mask |= 1 << bits
    return mask


def _var_mask(entity):
    mask = 0
    for v in entity.variables():
        mask |= 1 << (v - 1)
    return mask


def _gap_free_mask(vm):
    return vm & (vm + 1) == 0  # used variables form a prefix 1..v


def _canonical_set(formulas, k):
    """Lexicographically least representative under renamings of the used
    variables (which must be gap-free)."""
    used = sorted(set().union(*(set(f.variables()) for f in formulas), set()))
    best = None
    for perm in itertools.permutations(range(1, len(used) + 1)):
        rename = dict(zip(used, perm))
        cand = tuple(
            sorted(
                KDnfFormula(
                    [
                        Term([rename[abs(l)] * (1 if l > 0 else -1) for l in t.lits])
                        for t in f.terms
                    ],
                    k=k,
                )
                for f in formulas
            )
        )
        if best is None or cand < best:
            best = cand
    return best


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
    if max_vars > get_cap("ENUM_VARS"):
        raise CapExceededError(f"max_vars {max_vars} exceeds cap")
    if max_formulas > get_cap("ENUM_FORMULAS"):
        raise CapExceededError(f"max_formulas {max_formulas} exceeds cap")
    if k == 1:
        yield from _enumerate_cnf(max_vars, max_formulas)
        return
    max_terms = 4 if max_terms is None else max_terms
    if max_terms > get_cap("ENUM_TERMS"):
        raise CapExceededError(f"max_terms {max_terms} exceeds cap")
    yield from _enumerate_kdnf(k, max_vars, max_formulas, max_terms)


def _enumerate_cnf(max_vars, max_formulas):
    universe = all_clauses_over(range(1, max_vars + 1))
    masks = [_clause_mask(c, max_vars) for c in universe]
    var_masks = [_var_mask(c) for c in universe]
    covers = accel.cover_enumeration(masks, 1 << max_vars, max_formulas)

    # canonicalize covers as index tuples: precompute, per used-variable
    # count, how each variable permutation permutes the clause universe
    index_of = {c: i for i, c in enumerate(universe)}
    perm_maps = {}
    for v_used in range(1, max_vars + 1):
        maps = []
        for perm in itertools.permutations(range(1, v_used + 1)):
            rename = dict(zip(range(1, v_used + 1), perm))
            m = [0] * len(universe)
            for i, c in enumerate(universe):
                if c.variables() <= set(range(1, v_used + 1)):
                    renamed = Clause(
                        [rename[abs(l)] * (1 if l > 0 else -1) for l in c.lits]
                    )
                    m[i] = index_of[renamed]
            maps.append(m)
        perm_maps[v_used] = maps

    seen = set()
    results = []
    for cover in covers:
        vm = 0
        for i in cover:
            vm |= var_masks[i]
        if not _gap_free_mask(vm):
            continue
        v_used = vm.bit_length()
        best = min(
            tuple(sorted(pm[i] for i in cover)) for pm in perm_maps[v_used]
        )
        if best in seen:
            continue
        seen.add(best)
        results.append(best)
    for best in sorted(results):
        yield tuple(KDnfFormula.from_clause(universe[i]) for i in best)


def scan_min_unsat_cnf(max_vars: int, max_formulas: int):
    """Exhaustively visit every minimally unsatisfiable CNF within the caps
    (not deduplicated by renaming) and report
    (count, bound_violations, counts_by_size, max_vars_by_size); a
    violation is a set whose variable count reaches its clause count."""
    if max_vars > get_cap("ENUM_VARS"):
        raise CapExceededError(f"max_vars {max_vars} exceeds cap")
    universe = all_clauses_over(range(1, max_vars + 1))
    masks = [_clause_mask(c, max_vars) for c in universe]
    var_masks = [_var_mask(c) for c in universe]
    return accel.cover_scan(masks, var_masks, 1 << max_vars, max_formulas)


def _all_terms(k, max_vars):
    out = []
    for w in range(1, k + 1):
        for combo in itertools.combinations(range(1, max_vars + 1), w):
            for signs in itertools.product((1, -1), repeat=w):
                out.append(Term([s * v for s, v in zip(signs, combo)]))
    return sorted(set(out))


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

    sats = [s for _, s in formulas]
    var_masks = [_var_mask(f) for f, _ in formulas]
    req_masks = []  # per formula, per (term, literal) shrink: the mask a
    # joint assignment of the other formulas must intersect
    for f, _ in formulas:
        reqs = []
        for t in f.terms:
            rest = 0
            for u in f.terms:
                if u != t:
                    rest |= tmask[u]
            for lit in t.lits:
                reqs.append(rest | shrunk_mask[(t, lit)])
        req_masks.append(tuple(reqs))

    hits = _kdnf_scan_python(sats, var_masks, req_masks, max_formulas, full)

    seen = set()
    results = []
    for idxs in hits:
        canon = _canonical_set([formulas[i][0] for i in idxs], k)
        if canon not in seen:
            seen.add(canon)
            results.append(canon)
    for canon in sorted(results):
        yield canon


def _kdnf_scan_python(sats, var_masks, req_masks, max_formulas, full):
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
                if _gap_free_mask(var_masks[i] | var_masks[j]) and shrink_ok((i, j)):
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

"""Minimally unsatisfiable and minimally implying k-DNF sets: checkers, an
explicit block-substitution construction, and exhaustive enumeration at
desk scale.

A set of k-DNFs minimally implies G when it implies G but replacing any
single term by any proper subterm (the empty term included) breaks the
implication.  Shrinking a term only weakens it, so checking the maximal
proper subterms (one literal removed) suffices.  Shrinking term t of
formula i to t' adds exactly the models of t' to formula i, so once the set
implies G the shrink breaks the implication iff some assignment satisfies
t' and every other formula but falsifies G: one sweep of the cube answers
every shrink at once (``accel.minimality_sweep``).  For 1-DNF sets the notion
coincides with clause-deletion minimality of the corresponding CNF.
"""

from __future__ import annotations

import itertools
import math

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
    _row,
    _swept_variables,
    all_clauses_over,
)


def minimally_implies(formulas, goal) -> bool:
    """True iff the set implies the goal and every single-term shrink stops
    implying it."""
    formulas = list(formulas)
    _, var_bit = _swept_variables(formulas + [goal])
    shrinks = [
        [_row(t.without(lit).lits, var_bit) for t in d.terms for lit in t.lits]
        for d in formulas
    ]
    return accel.minimality_sweep(
        len(var_bit),
        [_as_rows(d, var_bit) for d in formulas],
        _as_rows(goal, var_bit),
        shrinks,
    )


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


# Hits are grouped this many at a time, and the renamed images of one
# group's chunk hold at most _CANON_BLOCK cells: a few MB at most.
_CANON_HITS = 1 << 12
_CANON_BLOCK = 1 << 16


def _canonical_classes(universe, hits, var_masks, rename):
    """The classes of the hits under renaming of the used variables, each as
    its least sorted index tuple, sorted and deduplicated.

    A hit is a tuple of universe indices; the hits may be any iterable,
    read _CANON_HITS at a time, and hits whose used variables are not a
    prefix 1..v are skipped.  ``rename(item, perm)`` maps an item through
    a permutation of 1..v and stays inside the universe.  The universe is
    sorted in output order, so the least index tuple is the least item
    tuple.  An item's images under the v! renamings are computed on first
    use only.  Hits are taken in groups of one size and one v: each hit's
    images are sorted as one array, and the least of them is found one
    position at a time.
    """
    index_of = {item: i for i, item in enumerate(universe)}
    var = np.array(var_masks, dtype=np.int64)
    tables = {}  # v -> (renamings, row of each item in images or -1, images)
    classes = set()

    def images_of(v, rows):
        if v not in tables:
            slot = np.full(len(universe), -1, dtype=np.intp)
            perms = list(itertools.permutations(range(1, v + 1)))
            tables[v] = perms, slot, np.empty((0, len(perms)), dtype=np.int32)
        perms, slot, images = tables[v]
        new = np.unique(rows)
        new = new[slot[new] < 0]
        if new.size:
            slot[new] = np.arange(len(images), len(images) + new.size)
            fresh = [
                [index_of[rename(universe[i], p)] for p in perms] for i in new.tolist()
            ]
            images = np.concatenate((images, fresh), dtype=np.int32)
            tables[v] = perms, slot, images
        return images[slot[rows]]  # (hit, member, renaming)

    hits = iter(hits)
    while block := list(itertools.islice(hits, _CANON_HITS)):
        by_size = {}
        for hit in block:
            by_size.setdefault(len(hit), []).append(hit)
        for size, group in by_size.items():
            rows = np.array(group, dtype=np.intp).reshape(len(group), size)
            vm = np.bitwise_or.reduce(var[rows], axis=1)
            gap_free = _gap_free_mask(vm)
            rows, nvars = rows[gap_free], np.bitwise_count(vm[gap_free])
            for v in np.unique(nvars).tolist():
                of_v = rows[nvars == v]
                step = max(1, _CANON_BLOCK // (size * math.factorial(v)))
                for start in range(0, len(of_v), step):
                    # (hit, renaming, member), each hit's image sorted
                    img = images_of(v, of_v[start : start + step]).transpose(0, 2, 1)
                    img = np.sort(img)
                    alive = np.ones(img.shape[:2], dtype=bool)
                    best = np.empty((img.shape[0], size), dtype=np.int32)
                    for pos in range(size):
                        col = np.where(alive, img[:, :, pos], len(universe))
                        best[:, pos] = col.min(axis=1)
                        alive &= col == best[:, pos, None]
                    classes.update(map(tuple, best.tolist()))
    return sorted(classes)


def _check_limits(max_vars, max_formulas):
    """The checks both min-unsat searches make on their shared limits."""
    if max_vars < 0:
        raise InvalidParamError(f"max_vars must be non-negative, got {max_vars}")
    if max_formulas < 1:
        raise InvalidParamError(f"max_formulas must be positive, got {max_formulas}")
    if max_vars > get_cap("ENUM_VARS"):
        raise CapExceededError(f"max_vars {max_vars} exceeds cap")
    if max_formulas > get_cap("ENUM_FORMULAS"):
        raise CapExceededError(f"max_formulas {max_formulas} exceeds cap")


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
    _check_limits(max_vars, max_formulas)
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


def _narrowest_starts(universe, w, negated):
    """Cover walks from orbit representatives of width w, as (first,
    excluded) for accel._cover_dfs: per count j in ``negated``, first is the
    clause x1 v ... v x_{w-j} v ~x_{w-j+1} v ... v ~x_w, and excluded is the
    bit set of the clauses narrower than w."""
    excluded = sum(1 << i for i, c in enumerate(universe) if len(c.lits) < w)
    return [
        (universe.index(Clause([*range(1, w - j + 1), *range(-w, j - w)])), excluded)
        for j in negated
    ]


def _enumerate_cnf(max_vars, max_formulas):
    """The classes of the irredundant covers under renaming.  Each class
    holds a gap-free cover that contains one of the representatives of
    _narrowest_starts and no narrower clause: rename a narrowest clause's
    positive variables onto 1..w-j, its negative ones onto w-j+1..w, and
    the other used variables onto w+1.., so those walks reach every class."""
    universe, masks, var_masks = _clause_universe(max_vars)
    starts = [
        start
        for w in range(1, max_vars + 1)
        for start in _narrowest_starts(universe, w, range(w + 1))
    ]
    covers = accel.cover_enumeration(masks, 1 << max_vars, max_formulas, starts)
    for best in _canonical_classes(
        universe, covers, var_masks, lambda c, p: Clause(_renamed_lits(c.lits, p))
    ):
        yield tuple(KDnfFormula.from_clause(universe[i]) for i in best)


def scan_min_unsat_cnf(max_vars: int, max_formulas: int):
    """Exhaustively count every minimally unsatisfiable CNF within the caps
    (not deduplicated by renaming) and report
    (count, bound_violations, counts_by_size, max_vars_by_size); a
    violation is a set whose variable count reaches its clause count.

    The universe is every clause over 1..max_vars, and the figures do not
    change when variables are renamed or their signs flipped, a group that
    moves any clause of width w onto any other.  Every cover has a
    narrowest width w, so one scan per w walks the covers that hold the
    clause x1 v ... v xw and no narrower clause, and weights each by
    C(v, w) * 2^w (the width-w clauses) over its own number of width-w
    clauses.
    """
    _check_limits(max_vars, max_formulas)
    universe, masks, var_masks = _clause_universe(max_vars)
    count = violations = 0
    by_size = [0] * (max_formulas + 2)
    max_vars_by_size = [0] * (max_formulas + 2)
    for w in range(1, max_vars + 1):
        [(first, excluded)] = _narrowest_starts(universe, w, [0])
        n, bad, sizes, most = accel.cover_scan(
            masks,
            var_masks,
            1 << max_vars,
            max_formulas,
            first=first,
            excluded=excluded,
            orbit=math.comb(max_vars, w) << w,
        )
        count += n
        violations += bad
        by_size = [a + b for a, b in zip(by_size, sizes)]
        max_vars_by_size = [max(a, b) for a, b in zip(max_vars_by_size, most)]
    return count, violations, by_size, max_vars_by_size


def _all_terms(k, max_vars):
    """All nontrivial terms of width 1..k over 1..max_vars, in term order."""
    return [Term(c.lits) for c in all_clauses_over(range(1, max_vars + 1), max_width=k)]


def _kdnf_universe(k, max_vars, max_terms):
    """The formulas the k-DNF scan draws from, in output order, with their
    satisfying-assignment masks, used-variable masks and shrink requirements,
    and the mask of all assignments."""
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
    return universe, sats, var_masks, req_masks, full


def _enumerate_kdnf(k, max_vars, max_formulas, max_terms):
    if (1 << max_vars) > 64:
        raise CapExceededError("k-DNF enumeration supports at most 6 variables")
    if max_formulas > 3:
        raise CapExceededError("k-DNF enumeration supports at most 3 formulas")
    universe, sats, var_masks, req_masks, full = _kdnf_universe(k, max_vars, max_terms)
    hits = _kdnf_scan(sats, var_masks, req_masks, max_formulas, full)

    def rename(f, perm):
        return KDnfFormula([Term(_renamed_lits(t.lits, perm)) for t in f.terms], k=k)

    for best in _canonical_classes(universe, hits, var_masks, rename):
        yield tuple(universe[i] for i in best)


# The (j, l) blocks of the three-formula scan hold at most this many cells.
_SCAN_BLOCK = 1 << 17


def _all_hit(reqs, others):
    """Row by row: does ``others`` meet every requirement mask of the row?
    Rows are padded with the full mask, which any nonzero ``others`` meets."""
    return ((reqs & others[:, None]) != 0).all(axis=1)


def _kdnf_scan(sats, var_masks, req_masks, max_formulas, full):
    """The index pairs and triples (i < j < l) of formulas that are jointly
    unsatisfiable but not without their last member, whose second member
    cuts the first's satisfying set, whose used variables are gap-free, and
    which every single-literal shrink makes satisfiable, in lexicographic
    order.

    Every mask fits one uint64 (at most 2^6 assignments).  Each i takes its
    j in one array operation and its (j, l) candidates in blocks of rows.
    """
    n = len(sats)
    sat = np.array(sats, dtype=np.uint64)
    var = np.array(var_masks, dtype=np.int64)
    reqs = np.full((n, max(map(len, req_masks), default=1)), full, dtype=np.uint64)
    for a, row in enumerate(req_masks):
        reqs[a, : len(row)] = row
    hits = []
    for i in range(n):
        si = sat[i]
        j = np.arange(i + 1, n)
        joint = sat[i + 1 :] & si
        live = joint != si  # formula j must cut the joint set
        j, joint = j[live], joint[live]
        if max_formulas >= 2:
            pj = j[joint == 0]
            pj = pj[_gap_free_mask(var[i] | var[pj])]
            pj = pj[
                _all_hit(reqs[[i]], sat[pj]) & _all_hit(reqs[pj], np.full(pj.size, si))
            ]
            hits += [(i, b) for b in pj.tolist()]
        if max_formulas < 3:
            continue
        j, joint = j[joint != 0], joint[joint != 0]
        rows = max(1, _SCAN_BLOCK // max(1, n - i))
        for start in range(0, j.size, rows):
            bj, bjoint = j[start : start + rows], joint[start : start + rows]
            lo = int(bj[0]) + 1
            r, c = np.nonzero((bjoint[:, None] & sat[None, lo:]) == 0)
            tj, tl, tjoint = bj[r], c + lo, bjoint[r]
            keep = (tl > tj) & _gap_free_mask(var[i] | var[tj] | var[tl])
            tj, tl, tjoint = tj[keep], tl[keep], tjoint[keep]
            # shrink tests, the most selective first: j against i and l
            sl = sat[tl]
            keep = _all_hit(reqs[tj], sl & si)
            tj, tl, tjoint, sl = tj[keep], tl[keep], tjoint[keep], sl[keep]
            ok = _all_hit(reqs[tl], tjoint) & _all_hit(reqs[[i]], sat[tj] & sl)
            hits += [(i, b, c) for b, c in zip(tj[ok].tolist(), tl[ok].tolist())]
    hits.sort()
    return hits

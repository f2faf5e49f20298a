"""Kernels against brute-force oracles, the shared cover walk, cap plumbing."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resspace import accel
from resspace.errors import CapExceededError
from resspace import minimal
from resspace.logic import (
    EMPTY_CLAUSE,
    EMPTY_DNF,
    EMPTY_TERM,
    Clause,
    CnfFormula,
    KDnfFormula,
    Term,
    _as_rows,
    all_clauses_over,
    evaluate,
)
from resspace.minimal import (
    _all_terms,
    _gap_free_mask,
    _kdnf_scan,
    _term_mask,
    _var_mask,
    is_minimally_unsatisfiable,
)
from reference import all_assignments, cover_dfs, minimally_implies


def _random_entities(rng, nv):
    """Seeded clauses, terms (tautological and contradictory ones among
    them), CNFs keeping trivial clauses, k-DNFs and literals over 1..nv."""

    def lits():
        width = rng.randint(0, 4)
        return [rng.choice((1, -1)) * rng.randint(1, nv) for _ in range(width)]

    out = []
    for _ in range(40):
        out += [
            Clause(lits()),
            Term(lits()),
            CnfFormula([lits() for _ in range(rng.randint(0, 3))], keep_trivial=True),
            KDnfFormula([lits() for _ in range(rng.randint(0, 3))], k=4),
            rng.choice((1, -1)) * rng.randint(1, nv),
        ]
    return out


@pytest.mark.parametrize("nv", [1, 2, 4])
def test_sat_mask_agrees_with_evaluate(nv):
    # the kernel on the one encoding gives logic.evaluate's value on every
    # assignment, bit b of the word being the value of variable b+1
    rng = random.Random(100 + nv)
    var_bit = {v: v - 1 for v in range(1, nv + 1)}
    a = np.arange(1 << nv, dtype=np.int64)
    alphas = list(all_assignments(range(1, nv + 1)))
    edge = [
        Clause([1, -1]),
        Term([1, -1]),
        CnfFormula([[1, -1], [-1, 1]], keep_trivial=True),
        CnfFormula([[1, -1], [1]], keep_trivial=True),
        EMPTY_CLAUSE,
        EMPTY_TERM,
        EMPTY_DNF,
        CnfFormula(),
    ]
    entities = edge + _random_entities(rng, nv)
    kinds = {type(e) for e in entities}
    assert kinds == {Clause, Term, CnfFormula, KDnfFormula, int}
    assert any(isinstance(e, Term) and e.is_trivial() for e in entities[len(edge) :])
    for e in entities:
        got = accel.sat_mask(a, *_as_rows(e, var_bit))
        assert got.dtype == bool and got.shape == a.shape
        assert got.tolist() == [evaluate(e, alpha) for alpha in alphas], e


_LITS = st.lists(st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v))), max_size=5)


@st.composite
def _entities_over_six_vars(draw):
    """A clause, term, CNF or k-DNF over at most 6 variables, and the
    variable count; clauses and terms may be trivial (a complementary pair),
    and CNFs keep their tautological clauses."""
    entity = draw(
        st.one_of(
            _LITS.map(Clause),
            _LITS.map(Term),
            st.lists(_LITS, max_size=4).map(lambda cs: CnfFormula(cs, keep_trivial=True)),
            st.lists(_LITS, max_size=4).map(lambda ts: KDnfFormula(ts, k=5)),
        )
    )
    nv = draw(st.integers(max(entity.variables(), default=0), 6))
    return entity, nv


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(_entities_over_six_vars())
def test_sat_mask_agrees_with_evaluate_on_drawn_entities(drawn):
    entity, nv = drawn
    a = np.arange(1 << nv, dtype=np.int64)
    got = accel.sat_mask(a, *_as_rows(entity, {v: v - 1 for v in range(1, nv + 1)}))
    alphas = all_assignments(range(1, nv + 1))
    assert got.tolist() == [evaluate(entity, alpha) for alpha in alphas]


def _term_mask_by_loop(term, max_vars):
    """The per-assignment loop: bit b set iff assignment b satisfies term."""
    mask = 0
    for bits in range(1 << max_vars):
        if all(((bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in term.lits):
            mask |= 1 << bits
    return mask


@pytest.mark.parametrize("max_vars", [0, 1, 3, 4])
def test_term_mask_matches_the_assignment_loop(max_vars):
    terms = [EMPTY_TERM] + [
        Term(c.lits) for c in all_clauses_over(range(1, max_vars + 1))
    ]
    terms += [Term([1, -1]), Term([-2, 1, 2])] if max_vars >= 2 else []
    for t in terms:
        assert _term_mask(t, max_vars) == _term_mask_by_loop(t, max_vars), t


def _clause_universe(max_vars):
    _, masks, var_masks = minimal._clause_universe(max_vars)
    return masks, var_masks, 1 << max_vars


def test_clause_universe_masks_are_falsifying_assignments():
    # bit b of a clause's mask is set iff the assignment with bits b
    # falsifies it; bit v-1 of its variable mask iff it mentions v
    max_vars = 3
    universe, masks, var_masks = minimal._clause_universe(max_vars)
    assert universe == all_clauses_over(range(1, max_vars + 1))
    alphas = list(all_assignments(range(1, max_vars + 1)))
    for c, mask, vm in zip(universe, masks, var_masks):
        want = sum(1 << b for b, alpha in enumerate(alphas) if not evaluate(c, alpha))
        assert mask == want
        assert vm == sum(1 << (v - 1) for v in c.variables())


def _reference_covers(masks, npoints, max_cubes):
    """The cover walk with each chosen cube's private region rebuilt from
    scratch at every node: the sorted covers in DFS order."""
    full_mask = (1 << npoints) - 1
    covers = []

    def private_ok(chosen):
        for i in chosen:
            rest = 0
            for j in chosen:
                if j != i:
                    rest |= masks[j]
            if masks[i] & ~rest & full_mask == 0:
                return False
        return True

    def rec(covered, chosen, forbidden):
        if covered == full_mask:
            covers.append(tuple(sorted(chosen)))
            return
        if len(chosen) >= max_cubes:
            return
        p = ((covered + 1) & ~covered).bit_length() - 1
        tried = []
        for c in (i for i, m in enumerate(masks) if (m >> p) & 1):
            if c in forbidden:
                continue
            chosen.append(c)
            if private_ok(chosen):
                rec(covered | masks[c], chosen, forbidden | set(tried))
            chosen.pop()
            tried.append(c)

    rec(0, [], frozenset())
    return covers


@pytest.mark.parametrize("max_vars, max_cubes", [(2, 4), (3, 8), (3, 5), (4, 5)])
def test_cover_enumeration_and_scan_agree(max_vars, max_cubes):
    # the enumeration is the reference walk's list, in its order; both
    # wrappers visit the same DFS, so the covers must reproduce every figure
    # the scan reports
    masks, var_masks, npoints = _clause_universe(max_vars)
    covers = list(accel.cover_enumeration(masks, npoints, max_cubes))
    assert covers == _reference_covers(masks, npoints, max_cubes)
    n, violations, counts, max_vars_by_size = accel.cover_scan(
        masks, var_masks, npoints, max_cubes
    )
    assert len(covers) == n > 0
    assert len(set(covers)) == len(covers)
    want_counts = [0] * (max_cubes + 2)
    want_max = [0] * (max_cubes + 2)
    want_violations = 0
    for cover in covers:
        vm = 0
        for c in cover:
            vm |= var_masks[c]
        nv = bin(vm).count("1")
        want_counts[len(cover)] += 1
        want_max[len(cover)] = max(want_max[len(cover)], nv)
        want_violations += nv >= len(cover)
    assert counts == want_counts
    assert max_vars_by_size == want_max
    assert violations == want_violations


@pytest.mark.parametrize("max_vars, max_cubes", [(3, 8), (4, 6)])
def test_cover_enumeration_matches_the_set_based_walk(max_vars, max_cubes):
    # the bit-set walk visits the covers of the walk that carried its
    # forbidden candidates as sets, in the same order
    masks, _, npoints = _clause_universe(max_vars)
    want = []
    cover_dfs(
        masks, npoints, max_cubes, lambda chosen: want.append(tuple(sorted(chosen)))
    )
    assert len(want) > 800
    assert list(accel.cover_enumeration(masks, npoints, max_cubes)) == want


def _walked(masks, npoints, max_cubes, first=None, excluded=0):
    walk = accel._cover_dfs(masks, npoints, max_cubes, first, excluded)
    return [tuple(c) for c in walk]


def _random_masks(rng, npoints, count):
    return [rng.randrange(1, 1 << npoints) for _ in range(count)]


@pytest.mark.parametrize("max_cubes", [1, 2])
def test_cover_enumeration_matches_the_reference_at_the_last_slot(max_cubes):
    # with one or two cubes the last slot is the root or one level down;
    # the full cube (the empty clause) and random masks give it covers
    masks, _, npoints = _clause_universe(3)
    cases = [([(1 << npoints) - 1] + masks, npoints)]
    rng = random.Random(7)
    cases += [(_random_masks(rng, 4, 12) + [15] * (i % 2), 4) for i in range(40)]
    found = 0
    for universe, npoints in cases:
        want = []
        cover_dfs(universe, npoints, max_cubes, lambda c: want.append(tuple(sorted(c))))
        assert list(accel.cover_enumeration(universe, npoints, max_cubes)) == want
        found += len(want)
    assert found > 20


def test_cover_walk_from_a_first_cube_avoiding_excluded_ones():
    # the covers walked from a first cube are those of the whole walk that
    # hold it and no excluded candidate, each once
    rng = random.Random(11)
    for _ in range(60):
        npoints = rng.randrange(2, 7)
        masks = _random_masks(rng, npoints, rng.randrange(4, 11))
        max_cubes = rng.randrange(1, 5)
        first = rng.randrange(len(masks))
        excluded = rng.getrandbits(len(masks)) & ~(1 << first)
        got = _walked(masks, npoints, max_cubes, first, excluded)
        assert all(c[0] == first for c in got)
        want = {
            c
            for c in _walked(masks, npoints, max_cubes)
            if first in c and not any(excluded >> i & 1 for i in c)
        }
        assert sorted(tuple(sorted(c)) for c in got) == sorted(
            tuple(sorted(c)) for c in want
        )


def test_cover_enumeration_output_limit_is_a_cap_error(monkeypatch):
    masks, _, npoints = _clause_universe(2)
    monkeypatch.setenv("RESSPACE_UNSAFE_ENUM_COVERS", "11")
    assert len(list(accel.cover_enumeration(masks, npoints, 4))) == 11
    monkeypatch.setenv("RESSPACE_UNSAFE_ENUM_COVERS", "5")
    covers = accel.cover_enumeration(masks, npoints, 4)
    assert len(list(itertools.islice(covers, 5))) == 5
    with pytest.raises(CapExceededError, match="more than 5 covers"):
        next(covers)


def test_cover_enumeration_walks_its_starts_in_turn_under_one_cap(monkeypatch):
    # the covers of each (first, excluded) start, sorted, one start after
    # the other; the cover cap counts them all
    masks, _, npoints = _clause_universe(2)
    starts = [(0, 0), (3, 1 << 0), (None, 0)]
    want = [tuple(sorted(c)) for s in starts for c in _walked(masks, npoints, 4, *s)]
    assert list(accel.cover_enumeration(masks, npoints, 4, starts)) == want
    assert list(accel.cover_enumeration(masks, npoints, 4, [])) == []
    limit = len(want) - 1
    monkeypatch.setenv("RESSPACE_UNSAFE_ENUM_COVERS", str(limit))
    covers = accel.cover_enumeration(masks, npoints, 4, starts)
    assert list(itertools.islice(covers, limit)) == want[:limit]
    with pytest.raises(CapExceededError, match=f"more than {limit} covers"):
        next(covers)


def test_unsafe_cap_override(monkeypatch):
    from resspace.caps import get_cap

    assert get_cap("IMPLIES_VARS") == 24
    monkeypatch.setenv("RESSPACE_UNSAFE_IMPLIES_VARS", "26")
    assert get_cap("IMPLIES_VARS") == 26


def test_kdnf_scan_matches_definition():
    # the scan's hits are exactly the gap-free pairs and triples of the
    # tiny formula list that the definitional checker calls minimal
    k, max_vars = 2, 3
    terms = _all_terms(k, max_vars)
    full = (1 << (1 << max_vars)) - 1
    formulas = []
    for m in (1, 2):
        for combo in itertools.combinations(terms[:10], m):
            if any(a.is_subterm_of(b) for a, b in itertools.permutations(combo, 2)):
                continue
            sat = 0
            for t in combo:
                sat |= _term_mask(t, max_vars)
            if sat == full:
                continue
            formulas.append((KDnfFormula(combo, k=k), sat))
    assert len(formulas) == 45
    sats = [s for _, s in formulas]
    var_masks = [_var_mask(f) for f, _ in formulas]
    req_masks = []
    for f, _ in formulas:
        reqs = []
        for t in f.terms:
            rest = 0
            for u in f.terms:
                if u != t:
                    rest |= _term_mask(u, max_vars)
            for lit in t.lits:
                reqs.append(rest | _term_mask(t.without(lit), max_vars))
        req_masks.append(tuple(reqs))

    got = _kdnf_scan(sats, var_masks, req_masks, 3, full)

    # the one-sweep checker also agrees with the shrink-by-shrink loop on
    # every gap-free pair and triple
    want = []
    for size in (2, 3):
        for idxs in itertools.combinations(range(len(formulas)), size):
            vm = 0
            for i in idxs:
                vm |= var_masks[i]
            if not _gap_free_mask(vm):
                continue
            subset = [formulas[i][0] for i in idxs]
            verdict = is_minimally_unsatisfiable(subset)
            assert verdict == minimally_implies(subset, EMPTY_DNF), idxs
            if verdict:
                want.append(idxs)
    assert want
    assert sorted(got) == sorted(want)

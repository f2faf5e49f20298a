"""Kernels against brute-force oracles, the shared cover walk, cap plumbing."""

import itertools

import pytest

from resspace import accel
from resspace.errors import CapExceededError
from resspace import minimal
from resspace.logic import KDnfFormula, all_assignments, all_clauses_over, evaluate
from resspace.minimal import (
    _all_terms,
    _gap_free_mask,
    _kdnf_scan,
    _term_mask,
    _var_mask,
    is_minimally_unsatisfiable,
)


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
    covers = accel.cover_enumeration(masks, npoints, max_cubes)
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


def test_cover_enumeration_output_limit_is_a_cap_error():
    masks, _, npoints = _clause_universe(2)
    assert len(accel.cover_enumeration(masks, npoints, 4, out_limit=11)) == 11
    with pytest.raises(CapExceededError):
        accel.cover_enumeration(masks, npoints, 4, out_limit=5)


def test_unsafe_cap_override(monkeypatch):
    from resspace.caps import get_cap

    assert get_cap("IMPLIES_VARS") == 24
    monkeypatch.setenv("RESSPACE_UNSAFE_IMPLIES_VARS", "26")
    assert get_cap("IMPLIES_VARS") == 26


def test_kdnf_scan_fallback_agrees():
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

    want = []
    for size in (2, 3):
        for idxs in itertools.combinations(range(len(formulas)), size):
            vm = 0
            for i in idxs:
                vm |= var_masks[i]
            if _gap_free_mask(vm) and is_minimally_unsatisfiable(
                [formulas[i][0] for i in idxs]
            ):
                want.append(idxs)
    assert want
    assert sorted(got) == sorted(want)

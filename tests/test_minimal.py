import itertools
import random

import pytest

from resspace.errors import CapExceededError, InvalidParamError
from resspace.logic import (
    EMPTY_DNF,
    Clause,
    CnfFormula,
    KDnfFormula,
    Term,
    all_clauses_over,
    implies,
)
from resspace.minimal import (
    _canonical_classes,
    _clause_universe,
    _kdnf_scan,
    _kdnf_universe,
    _renamed_lits,
    block_substituted_min_unsat,
    enumerate_min_unsat,
    is_minimally_unsatisfiable,
    minimally_implies,
    scan_min_unsat_cnf,
)
from reference import canonical_classes, kdnf_scan


def is_minimally_unsatisfiable_cnf(formula: CnfFormula) -> bool:
    """Reference clause-deletion minimality: unsatisfiable, every proper
    subset satisfiable."""
    clauses = list(formula)
    if not implies(clauses, [EMPTY_DNF]):
        return False
    for i in range(len(clauses)):
        rest = clauses[:i] + clauses[i + 1 :]
        if implies(rest, [EMPTY_DNF]):
            return False
    return True


def clauses_as_set(clauses):
    return [KDnfFormula.from_clause(Clause(c)) for c in clauses]


def _canonical_set(items, k=None):
    """Reference canonical form, built from scratch: the least sorted image
    of the items under every renaming of their used variables (which must
    be gap-free).  Items are clauses when k is None, else k-DNFs."""

    def renamed(item, rename):
        def lits(e):
            return [rename[abs(l)] * (1 if l > 0 else -1) for l in e.lits]

        if k is None:
            return Clause(lits(item))
        return KDnfFormula([Term(lits(t)) for t in item.terms], k=k)

    used = sorted(set().union(*(set(f.variables()) for f in items), set()))
    best = None
    for perm in itertools.permutations(range(1, len(used) + 1)):
        rename = dict(zip(used, perm))
        cand = tuple(sorted(renamed(f, rename) for f in items))
        if best is None or cand < best:
            best = cand
    return best


def test_eq23_minimal():
    # the n+1 clause contradiction over n variables
    for n in (1, 2, 3):
        s = clauses_as_set([list(range(1, n + 1))] + [[-i] for i in range(1, n + 1)])
        assert is_minimally_unsatisfiable(s)


def test_eq22_not_minimal():
    # shrinking (~x ^ y1) to ~x keeps the set unsatisfiable
    s = [
        KDnfFormula([Term([1])], k=2),
        KDnfFormula([Term([-1, 2]), Term([-1, 3])], k=2),
    ]
    assert not is_minimally_unsatisfiable(s)


def test_satisfiable_set_not_minimal():
    assert not is_minimally_unsatisfiable(clauses_as_set([[1], [2]]))


def test_cnf_minimality():
    assert is_minimally_unsatisfiable_cnf(CnfFormula([[1], [-1]]))
    assert not is_minimally_unsatisfiable_cnf(CnfFormula([[1], [-1], [1, 2]]))


def test_cnf_agreement_with_term_minimality():
    # on 1-DNF sets the two notions coincide; exhaustive over small sets
    universe = all_clauses_over([1, 2])
    for m in range(1, 4):
        for combo in itertools.combinations(universe, m):
            f = CnfFormula(combo)
            if len(f) != m:
                continue
            as_set = [KDnfFormula.from_clause(c) for c in f]
            assert is_minimally_unsatisfiable(as_set) == is_minimally_unsatisfiable_cnf(
                f
            )


def test_block_construction_shapes():
    for k, n in [(2, 1), (2, 2), (3, 1), (1, 2)]:
        s = block_substituted_min_unsat(k, n)
        assert len(s) == n + 1
        vs = set().union(*(set(f.variables()) for f in s))
        assert len(vs) == k * k * n
        assert all(f.max_term_width() <= k for f in s)


def test_block_construction_minimal():
    for k, n in [(2, 1), (2, 2), (3, 1)]:
        assert is_minimally_unsatisfiable(block_substituted_min_unsat(k, n))


def test_block_construction_k1_reduces_to_clause_set():
    s = block_substituted_min_unsat(1, 2)
    assert s[0] == KDnfFormula.from_clause(Clause([1, 2]))
    assert s[1:] == [
        KDnfFormula.from_clause(Clause([-1])),
        KDnfFormula.from_clause(Clause([-2])),
    ]


def test_minimally_implies_general_goal():
    # {x, ~x v y} minimally implies y: every unit-term shrink to the empty
    # term makes the corresponding formula true and breaks the implication
    s = [KDnfFormula([Term([1])]), KDnfFormula([Term([-1]), Term([2])])]
    goal = KDnfFormula([Term([2])])
    assert minimally_implies(s, goal)
    bigger = s + [KDnfFormula([Term([2])])]
    assert not minimally_implies(bigger, goal)


def test_enumerate_cnf_2vars():
    got = list(enumerate_min_unsat(1, 2, 3))
    as_sets = [tuple(tuple(t.lits[0] for t in f.terms) for f in s) for s in got]
    # the unit pair and the or-chain both appear, up to renaming
    assert ((-1,), (1,)) in as_sets
    assert any(len(s) == 3 and any(len(c) == 2 for c in s) for s in as_sets)


def test_enumerate_cnf_deterministic():
    a = list(enumerate_min_unsat(1, 3, 5))
    b = list(enumerate_min_unsat(1, 3, 5))
    assert a == b


def test_enumerate_cnf_thm213_bound():
    for s in enumerate_min_unsat(1, 3, 8):
        vs = set().union(*(set(f.variables()) for f in s))
        assert len(vs) < len(s)


def test_scan_cnf_3vars_no_violations():
    n, violations, counts, max_vars = scan_min_unsat_cnf(3, 8)
    assert n == 869
    assert violations == 0
    assert max(max_vars) == 3


def test_enumerate_kdnf_small():
    got = list(enumerate_min_unsat(2, 3, 2, max_terms=3))
    assert got
    for s in got:
        assert is_minimally_unsatisfiable(list(s))
        vs = set().union(*(set(f.variables()) for f in s))
        assert len(vs) <= (2 * len(s)) ** 3


def test_enumerate_kdnf_finds_block_instance():
    got = list(enumerate_min_unsat(2, 4, 2, max_terms=4))
    assert _canonical_set(block_substituted_min_unsat(2, 1), 2) in got


def test_enumerate_kdnf_oracle_agreement():
    # the mask-arithmetic minimality filter agrees with the brute-force
    # checker on everything it yields
    got = list(enumerate_min_unsat(2, 3, 3, max_terms=2))
    assert got
    for s in got:
        assert is_minimally_unsatisfiable(list(s))


@pytest.mark.parametrize(
    "caps, count",
    [((1, 3, 5), 109), ((2, 3, 2, 3), 21), ((2, 3, 3, 2), 79), ((2, 4, 3, 2), 202)],
)
def test_enumeration_yields_each_class_once_in_canonical_form(caps, count):
    # every yielded set is its own reference canonical form, and the sets
    # strictly ascend, so no renaming class appears twice; k=1 sets are in
    # clause order, which is not the order of their 1-DNF views
    k, max_vars, max_formulas, *max_terms = caps
    got = list(enumerate_min_unsat(k, max_vars, max_formulas, *max_terms))
    if k == 1:
        got = [tuple(f.as_clause() for f in s) for s in got]
    assert len(got) == count
    for s in got:
        assert _canonical_set(s, None if k == 1 else k) == s
    assert all(a < b for a, b in zip(got, got[1:]))


def test_canonical_classes_match_reference_on_random_hits():
    # arbitrary clause sets, gap-free or not and mostly satisfiable: one
    # class per distinct reference canonical form, as least index tuples
    universe, _, var_masks = _clause_universe(4)
    index_of = {c: i for i, c in enumerate(universe)}
    rng = random.Random(7)
    hits = [
        tuple(sorted(rng.sample(range(len(universe)), rng.randint(1, 4))))
        for _ in range(400)
    ]
    got = _canonical_classes(
        universe, hits, var_masks, lambda c, p: Clause(_renamed_lits(c.lits, p))
    )
    want = set()
    for hit in hits:
        vm = 0
        for i in hit:
            vm |= var_masks[i]
        if vm & (vm + 1) == 0:
            canon = _canonical_set([universe[i] for i in hit])
            want.add(tuple(index_of[c] for c in canon))
    assert 0 < len(want) < len(hits)
    assert got == sorted(want)


@pytest.mark.parametrize("max_vars", [5, 6])
def test_canonical_classes_match_reference_on_random_kdnf_hits(max_vars):
    # pairs and triples of 2-DNFs whose variables are exactly 1..v for
    # v = max_vars or one less: the 120- and 720-renaming paths, checked
    # against the from-scratch canonical form and the per-hit loop
    universe, _, var_masks, _, _ = _kdnf_universe(2, max_vars, 2)
    index_of = {f: i for i, f in enumerate(universe)}
    rng = random.Random(max_vars)
    hits = []
    while len(hits) < 24:
        hit = tuple(sorted(rng.sample(range(len(universe)), rng.randint(2, 3))))
        vm = 0
        for i in hit:
            vm |= var_masks[i]
        if vm in ((1 << max_vars) - 1, (1 << (max_vars - 1)) - 1):
            hits.append(hit)
    hits += hits[:4]  # repeated hits land in one class

    def rename(f, perm):
        return KDnfFormula([Term(_renamed_lits(t.lits, perm)) for t in f.terms], k=2)

    got = _canonical_classes(universe, hits, var_masks, rename)
    want = {
        tuple(index_of[f] for f in _canonical_set([universe[i] for i in hit], 2))
        for hit in hits
    }
    assert got == sorted(want)
    assert got == canonical_classes(universe, hits, var_masks, rename)


def test_kdnf_scan_matches_reference_loop():
    # the block scan returns the per-triple loop's hits, in its order
    universe, sats, var_masks, req_masks, full = _kdnf_universe(2, 4, 2)
    assert len(universe) == 476
    got = _kdnf_scan(sats, var_masks, req_masks, 3, full)
    assert len(got) == 2948
    assert got == kdnf_scan(sats, var_masks, req_masks, 3, full)


def test_scan_rejects_negative_max_vars_and_nonpositive_max_formulas():
    with pytest.raises(InvalidParamError, match="max_vars"):
        scan_min_unsat_cnf(-1, 3)
    for max_formulas in (0, -1):
        with pytest.raises(InvalidParamError, match="max_formulas"):
            scan_min_unsat_cnf(1, max_formulas)
    with pytest.raises(CapExceededError):
        scan_min_unsat_cnf(9, 3)
    with pytest.raises(CapExceededError):
        scan_min_unsat_cnf(2, 19)


def test_enumerate_rejects_nonpositive_k_and_negative_max_vars():
    for k in (0, -1):
        with pytest.raises(InvalidParamError):
            list(enumerate_min_unsat(k, 3, 4))
    for k in (1, 2):
        with pytest.raises(InvalidParamError):
            list(enumerate_min_unsat(k, -1, 3, 2))


def test_enumerate_rejects_nonpositive_max_formulas_and_max_terms():
    for k in (1, 2):
        with pytest.raises(InvalidParamError, match="max_formulas"):
            list(enumerate_min_unsat(k, 3, 0, 2))
    for max_terms in (0, -1):
        with pytest.raises(InvalidParamError, match="max_terms"):
            list(enumerate_min_unsat(2, 3, 2, max_terms))


def test_enumerate_kdnf_honours_max_formulas_below_two():
    # every yielded k-DNF set has at least two formulas, so a limit of one
    # yields nothing, and a limit of two yields only pairs
    assert list(enumerate_min_unsat(2, 3, 1, 2)) == []
    pairs = list(enumerate_min_unsat(2, 3, 2, 2))
    assert pairs and all(len(s) == 2 for s in pairs)
    assert {s for s in enumerate_min_unsat(2, 3, 3, 2) if len(s) == 2} == set(pairs)


def test_enumeration_caps():
    with pytest.raises(CapExceededError):
        list(enumerate_min_unsat(1, 9, 3))
    with pytest.raises(CapExceededError):
        list(enumerate_min_unsat(2, 4, 4, max_terms=2))
    with pytest.raises(CapExceededError):
        list(enumerate_min_unsat(2, 4, 2, max_terms=9))

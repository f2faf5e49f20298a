import functools
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from resspace import accel
from resspace.errors import CapExceededError, InvalidParamError, TooManyVariablesError
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


def test_scan_cnf_4vars_7clauses_is_pinned():
    assert scan_min_unsat_cnf(4, 7) == (
        659314,
        0,
        [0, 0, 4, 48, 974, 22072, 102960, 533256, 0],
        [0, 0, 1, 2, 3, 4, 4, 4, 0],
    )


def _reference_scan(max_vars, max_formulas):
    """The scan's figures over every cover the reference walk visits in the
    whole clause universe, each counted once."""
    _, masks, var_masks = _clause_universe(max_vars)
    count = violations = 0
    by_size = [0] * (max_formulas + 2)
    most = [0] * (max_formulas + 2)

    def visit(chosen):
        nonlocal count, violations
        nv = sum(any(var_masks[c] >> v & 1 for c in chosen) for v in range(max_vars))
        count += 1
        by_size[len(chosen)] += 1
        most[len(chosen)] = max(most[len(chosen)], nv)
        violations += nv >= len(chosen)

    reference.cover_dfs(masks, 1 << max_vars, max_formulas, visit)
    return count, violations, by_size, most


@pytest.mark.parametrize(
    "max_vars, max_formulas",
    [(v, m) for v in range(4) for m in range(1, 9)] + [(4, m) for m in range(1, 6)],
)
def test_weighted_scan_matches_the_unweighted_reference_walk(max_vars, max_formulas):
    # one walk per narrowest width, weighted by orbit size, counts what the
    # walk over every labelled cover counts
    got = scan_min_unsat_cnf(max_vars, max_formulas)
    assert got == _reference_scan(max_vars, max_formulas)


@pytest.mark.parametrize(
    "max_vars, max_formulas",
    [(v, m) for v in range(4) for m in range(1, 9)] + [(4, m) for m in range(1, 7)],
)
def test_enumerate_cnf_matches_the_labelled_cover_reference(max_vars, max_formulas):
    # the walks from orbit representatives reach every class that the walk
    # over all labelled covers reaches, and only those
    got = list(enumerate_min_unsat(1, max_vars, max_formulas))
    assert got == reference.enumerate_cnf(max_vars, max_formulas)


@pytest.mark.parametrize("caps, walked", [((4, 6), 45_897), ((2, 3), 8)])
def test_enumerate_cnf_walks_only_the_representative_covers(caps, walked, monkeypatch):
    # every labelled cover would be 126,058 at (4, 6) and 10 at (2, 3)
    count = 0
    enumeration = accel.cover_enumeration

    def counting(*args):
        nonlocal count
        for cover in enumeration(*args):
            count += 1
            yield cover

    monkeypatch.setattr(accel, "cover_enumeration", counting)
    list(enumerate_min_unsat(1, *caps))
    assert count == walked


def test_enumerate_cnf_streams_its_covers():
    # the 45,897 covers walked go to canonicalisation a block at a time,
    # never as one list
    tracemalloc.start()
    try:
        got = list(enumerate_min_unsat(1, 4, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 5694
    assert peak < 8e6


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


# --- the one-sweep checker against the shrink-by-shrink reference ----------

SWEEP = settings(deadline=None, derandomize=True, database=None, max_examples=300)
GOAL_KINDS = (Clause, Term, KDnfFormula, CnfFormula)


@functools.cache
def _known_minimal_sets():
    """Minimally unsatisfiable sets to perturb: the enumerated 2-DNF sets
    and small block instances."""
    sets = [list(s) for s in enumerate_min_unsat(2, 3, 3, 2)]
    sets += [block_substituted_min_unsat(k, n) for k, n in [(1, 2), (1, 3), (2, 1), (2, 2)]]
    return sets


def _negation(formula, kind):
    """A goal of the given kind equivalent to the negation of the k-DNF, or
    None when that kind cannot express it."""
    clauses = [Clause([-l for l in t.lits]) for t in formula.terms]
    if kind is CnfFormula:
        return CnfFormula(clauses)
    if kind is Term:
        if all(len(c) == 1 for c in clauses):
            return Term([c.lits[0] for c in clauses])
        return None
    if len(clauses) != 1:
        return None
    return clauses[0] if kind is Clause else KDnfFormula.from_clause(clauses[0])


@st.composite
def _goal_cases(draw):
    """(formulas, goal): a known minimal set, perhaps with one formula F
    taken out and a goal equivalent to not F (the rest minimally implies
    it) or a drawn goal of some kind, then perhaps perturbed by adding a
    term or a formula, shrinking a term or dropping a formula."""
    formulas = list(draw(st.sampled_from(_known_minimal_sets())))
    k = max(f.k for f in formulas)
    nv = max(max(f.variables(), default=0) for f in formulas) + 1
    lit = st.integers(1, nv).flatmap(lambda v: st.sampled_from((v, -v)))
    term = st.lists(lit, min_size=1, max_size=k).map(Term)

    goal = EMPTY_DNF
    kind = draw(st.sampled_from((None,) + GOAL_KINDS))
    if kind is not None:
        i = draw(st.integers(0, len(formulas) - 1))
        goal = _negation(formulas.pop(i), kind)
        if goal is None or draw(st.integers(0, 3)) == 0:
            goal = {
                Clause: st.lists(lit, max_size=3).map(Clause),
                Term: st.lists(lit, max_size=3).map(Term),
                KDnfFormula: st.lists(term, max_size=3).map(
                    lambda ts: KDnfFormula(ts, k=k)
                ),
                CnfFormula: st.lists(st.lists(lit, max_size=3), max_size=3).map(
                    CnfFormula
                ),
            }[kind]
            goal = draw(goal)

    change = draw(st.sampled_from(("none", "add term", "add formula", "shrink", "drop")))
    if formulas and change != "none":
        i = draw(st.integers(0, len(formulas) - 1))
        f = formulas[i]
        if change == "add term":
            formulas[i] = KDnfFormula(f.terms + (draw(term),), k=f.k)
        elif change == "add formula":
            formulas.insert(i, KDnfFormula(draw(st.lists(term, max_size=3)), k=k))
        elif change == "shrink" and f.terms:
            t = draw(st.sampled_from(f.terms))
            shrunk = t.without(draw(st.sampled_from(t.lits)))
            formulas[i] = KDnfFormula([u for u in f.terms if u != t] + [shrunk], k=f.k)
        elif change == "drop":
            del formulas[i]
    return formulas, goal


def test_minimally_implies_matches_reference_on_drawn_sets_and_goals():
    verdicts = set()

    @SWEEP
    @given(_goal_cases())
    def check(case):
        formulas, goal = case
        got = minimally_implies(formulas, goal)
        assert got == reference.minimally_implies(formulas, goal)
        verdicts.add((type(goal), got))

    check()
    for kind in GOAL_KINDS:
        assert {(kind, True), (kind, False)} <= verdicts, kind


def test_minimally_implies_matches_reference_on_criterion_10_sets():
    # every block (k, n) of criterion 10, block 3,2 and the non-minimal
    # eq22 set of the paper
    eq22 = [
        KDnfFormula([Term([1])], k=2),
        KDnfFormula([Term([-1, 2]), Term([-1, 3])], k=2),
    ]
    cases = [block_substituted_min_unsat(k, n) for k, n in [(2, 1), (2, 2), (3, 1), (3, 2)]]
    for formulas in cases + [eq22]:
        want = reference.minimally_implies(formulas, EMPTY_DNF)
        assert want == (formulas is not eq22)
        assert is_minimally_unsatisfiable(formulas) == want


@pytest.mark.parametrize(
    "formulas, goal, want",
    [
        ([], EMPTY_DNF, False),  # the empty set is satisfiable
        ([], CnfFormula(), True),  # and implies true, with nothing to shrink
        ([EMPTY_DNF], EMPTY_DNF, True),
        ([EMPTY_DNF, KDnfFormula([Term([1])])], EMPTY_DNF, False),
        # width-1 terms shrink to the empty term, making their formula true
        (clauses_as_set([[1], [-1]]), EMPTY_DNF, True),
        (clauses_as_set([[1], [-1], [2]]), EMPTY_DNF, False),
        (clauses_as_set([[1, 2]]), EMPTY_DNF, False),  # not implied
        (clauses_as_set([[1]]), Clause([1, 2]), True),
        ([KDnfFormula([Term([1, 2])], k=2)], Clause([1]), False),  # x^y -> x stays
        (clauses_as_set([[1]]), Term([1]), True),
        (clauses_as_set([[1], [2]]), Term([1]), False),
        (clauses_as_set([[1], [-1, 2]]), 2, True),  # a literal goal
    ],
)
def test_minimally_implies_edge_cases(formulas, goal, want):
    assert minimally_implies(formulas, goal) == want
    assert reference.minimally_implies(formulas, goal) == want


def test_minimality_sweep_spans_chunks():
    # 19 variables make two chunks of 2^18 words.  Shrinking the last unit
    # formula, ~x19, is broken only by x19 alone, the first word of the
    # second chunk; without that formula the set's one model is that word.
    s = block_substituted_min_unsat(1, 19)
    assert is_minimally_unsatisfiable(s)
    assert not is_minimally_unsatisfiable(s[:-1])
    assert not is_minimally_unsatisfiable(s + clauses_as_set([[1, 19]]))


def test_minimality_cap_raises_the_implication_message():
    over = [KDnfFormula.from_clause(Clause(range(1, 26))), KDnfFormula([Term([-1])])]
    with pytest.raises(TooManyVariablesError) as ref:
        reference.minimally_implies(over, EMPTY_DNF)
    assert str(ref.value) == "25 variables exceed brute-force cap 24"
    with pytest.raises(TooManyVariablesError, match=f"^{ref.value}$"):
        is_minimally_unsatisfiable(over)
    with pytest.raises(TooManyVariablesError, match=f"^{ref.value}$"):
        minimally_implies(over[:1], Clause([-1]))
    with pytest.raises(TooManyVariablesError, match=f"^{ref.value}$"):
        minimally_implies(over[1:], Clause(range(2, 26)))

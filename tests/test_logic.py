import itertools
import random

import pytest

from resspace.errors import (
    PartialAssignmentError,
    TooManyVariablesError,
    TrivialClauseError,
)
from resspace.logic import (
    EMPTY_CLAUSE,
    EMPTY_DNF,
    EMPTY_TERM,
    Clause,
    CnfFormula,
    KDnfFormula,
    Restriction,
    Term,
    all_assignments,
    all_clauses_over,
    evaluate,
    implication_counterexample,
    implies,
    negating_restriction,
    restrict,
)


def test_negation_involution():
    for lit in (1, -1, 7, -7):
        assert -(-lit) == lit


def test_clause_canonical_order():
    # ascending variable id, negative literal before positive at equal id
    c = Clause([3, -1, 2, -1])
    assert c.lits == (-1, 2, 3)
    assert Clause([-2, 2]).lits == (-2, 2)
    assert Clause([2, -2]).is_trivial()
    assert not Clause([1, -2]).is_trivial()


def test_term_trivial():
    assert Term([1, -1, 2]).is_trivial()
    assert not Term([1, 2]).is_trivial()


def test_cnf_drops_trivial_by_default():
    f = CnfFormula([Clause([1, -1]), Clause([2])])
    assert f.clauses == (Clause([2]),)
    g = CnfFormula([Clause([1, -1]), Clause([2])], keep_trivial=True)
    assert len(g) == 2


def test_cnf_counts():
    f = CnfFormula([[1, 2], [-1], [2, 3, -4]])
    assert len(f) == 3
    assert f.size() == 6
    assert f.width() == 3


def test_kdnf_width_bound():
    KDnfFormula([Term([1, 2])], k=2)
    with pytest.raises(ValueError):
        KDnfFormula([Term([1, 2, 3])], k=2)


def test_kdnf_empty_is_contradiction():
    assert EMPTY_DNF.is_empty()
    assert restrict(EMPTY_DNF, Restriction([])) is False


def test_restriction_one_literal_per_variable():
    with pytest.raises(ValueError):
        Restriction([1, -1])


# --- restrict: the case tables ------------------------------------------------


def test_restrict_clause_single_literal_elimination():
    assert restrict(Clause([1, -2]), Restriction([-1])) == Clause([-2])


def test_restrict_clause_satisfied():
    assert restrict(Clause([1, -2]), Restriction([1])) is True


def test_restrict_dnf_both_terms_falsified():
    # (x^y) | (~x^z) under {x, ~y}: first term loses y, second loses x
    d = KDnfFormula([Term([1, 2]), Term([-1, 3])], k=2)
    assert restrict(d, Restriction([1, -2])) is False


def test_restrict_dnf_satisfied_term_elision():
    d = KDnfFormula([Term([1, 2]), Term([3])], k=2)
    r = restrict(d, Restriction([-1]))
    assert r == KDnfFormula([Term([3])], k=2)


def test_restrict_term_cases():
    t = Term([1, 2])
    assert restrict(t, Restriction([1, 2])) is True
    assert restrict(t, Restriction([-1])) is False
    assert restrict(t, Restriction([1])) == Term([2])
    assert restrict(EMPTY_TERM, Restriction([5])) is True


def test_restrict_cnf_cases():
    f = CnfFormula([[1, 2], [-1, 3]])
    assert restrict(f, Restriction([1, 3])) is True
    assert restrict(f, Restriction([-1, -2])) is False
    assert restrict(f, Restriction([2])) == CnfFormula([[-1, 3]])


# --- evaluate -----------------------------------------------------------------


def test_evaluate_empty_clause_false():
    assert evaluate(EMPTY_CLAUSE, Restriction([1])) is False


def test_evaluate_empty_term_true():
    assert evaluate(EMPTY_TERM, Restriction([])) is True


def test_evaluate_xor_substituted_pair():
    f = CnfFormula([[1, 2], [-1, -2]])
    assert evaluate(f, Restriction([1, -2])) is True
    assert evaluate(f, Restriction([1, 2])) is False


def test_evaluate_partial_assignment_error():
    with pytest.raises(PartialAssignmentError):
        evaluate(Clause([1, 2]), Restriction([1]))


# --- implies ------------------------------------------------------------------


def test_implies_contradictory_units():
    assert implies([Clause([1]), Clause([-1])], [EMPTY_DNF])


def test_implies_or_does_not_give_xor():
    xor = KDnfFormula([Term([1, -2]), Term([-1, 2])], k=2)
    cx = implication_counterexample([Clause([1, 2])], [xor])
    assert cx is not None
    # the oracle witness: both variables true
    assert cx == Restriction([1, 2])


def test_implies_eq21_clause_set():
    eq21 = [
        Clause([1, 2, 3, -4]),
        Clause([1, 2, -3, 4]),
        Clause([-1, -2, 3, -4]),
        Clause([-1, -2, -3, 4]),
    ]
    target = KDnfFormula(
        [Term([1, -2]), Term([-1, 2]), Term([3, 4]), Term([-3, -4])], k=2
    )
    assert implies(eq21, [target])


def test_implies_cap():
    big = [Clause([v]) for v in range(1, 30)]
    with pytest.raises(TooManyVariablesError):
        implies(big, [EMPTY_DNF])
    assert implies(big, [Clause([1])], cap=30)


# --- negating_restriction -----------------------------------------------------


def test_negating_restriction_literalwise():
    assert negating_restriction(Clause([1, -2])) == Restriction([-1, 2])


def test_negating_restriction_unit():
    assert negating_restriction(Clause([1])) == Restriction([-1])


def test_negating_restriction_falsifies():
    c = Clause([1, 2, 3])
    rho = negating_restriction(c)
    assert rho == Restriction([-1, -2, -3])
    assert restrict(c, rho) is False
    assert len(rho) == c.width


def test_negating_restriction_trivial_clause():
    with pytest.raises(TrivialClauseError):
        negating_restriction(Clause([1, -1]))


# --- invariants ---------------------------------------------------------------


def test_restriction_extension_monotonicity():
    rng = random.Random(7)
    entities = [
        Clause([1, -2, 3]),
        Term([1, 2]),
        CnfFormula([[1, 2], [-2, 3]]),
        KDnfFormula([Term([1, -3]), Term([2])], k=2),
    ]
    for e in entities:
        for _ in range(200):
            vs = sorted(e.variables())
            fixed = rng.sample(vs, rng.randint(0, len(vs)))
            rho = Restriction([v * rng.choice((1, -1)) for v in fixed])
            extra = [v * rng.choice((1, -1)) for v in vs if v not in fixed]
            rho2 = rho.extend(rng.sample(extra, rng.randint(0, len(extra))))
            r1 = restrict(e, rho)
            if r1 is True or r1 is False:
                assert restrict(e, rho2) is r1


def test_term_clause_duality():
    # evaluate(T, a) == not evaluate(clause of negated literals, a)
    for lits in itertools.chain.from_iterable(
        itertools.combinations([1, -2, 3], w) for w in range(0, 4)
    ):
        t = Term(lits)
        c = Clause([-l for l in lits])
        for alpha in all_assignments([1, 2, 3]):
            assert evaluate(t, alpha) == (not evaluate(c, alpha))


def test_implies_reflexive_transitive_small():
    universe = all_clauses_over([1, 2])
    for c in universe:
        assert implies([c], [c])
    for a, b, c in itertools.product(universe, repeat=3):
        if implies([a], [b]) and implies([b], [c]):
            assert implies([a], [c])


def test_canonicalization_idempotent():
    from resspace.formats import clause_to_text, dnf_to_text

    c1 = Clause([3, -1, 2])
    c2 = Clause(c1.lits)
    assert c1 == c2 and clause_to_text(c1) == clause_to_text(c2)
    d1 = KDnfFormula([Term([2, 1]), Term([-3])], k=2)
    d2 = KDnfFormula(d1.terms, k=2)
    assert d1 == d2 and dnf_to_text(d1) == dnf_to_text(d2)


def test_accel_paths_agree():
    # the vectorized sweep returns the first assignment, in bit order, that
    # satisfies the premises and falsifies a conclusion
    from resspace import accel
    from resspace.logic import _as_rows

    rng = random.Random(3)
    found = 0
    for _ in range(60):
        nv = rng.randint(1, 6)
        var_bit = {v: v - 1 for v in range(1, nv + 1)}

        def lits():
            return [
                v * rng.choice((1, -1))
                for v in rng.sample(range(1, nv + 1), rng.randint(1, nv))
            ]

        prem = [Clause(lits()) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            prem.append(KDnfFormula([Term(lits()) for _ in range(2)], k=nv))
        conc = [Clause([rng.randint(1, nv) * rng.choice((1, -1))])]
        if rng.random() < 0.5:
            conc.append(Term(lits()))
        want = next(
            (
                bits
                for bits, alpha in enumerate(all_assignments(range(1, nv + 1)))
                if all(evaluate(e, alpha) for e in prem)
                and not all(evaluate(e, alpha) for e in conc)
            ),
            None,
        )
        got = accel.find_counterexample(
            nv,
            [_as_rows(e, var_bit) for e in prem],
            [_as_rows(e, var_bit) for e in conc],
        )
        assert got == want
        found += want is not None
    assert 0 < found < 60

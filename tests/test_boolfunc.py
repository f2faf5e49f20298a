import itertools

import pytest

from resspace.boolfunc import (
    BooleanFunction,
    SubstitutionVarMap,
    and_function,
    canonical_clauses,
    clause_set_disjunction,
    identity_function,
    is_k_non_authoritarian,
    literal_substitution,
    majority_function,
    or_function,
    substitute_clause,
    substitute_formula,
    threshold_function,
    threshold_of,
    xor_function,
)
from resspace.errors import InvalidParamError
from resspace.logic import (
    Clause,
    CnfFormula,
    KDnfFormula,
    Restriction,
    Term,
    evaluate,
    is_satisfiable,
    restrict,
)
from reference import custom_function, minterm_dnf


def test_constant_functions_rejected():
    with pytest.raises(InvalidParamError):
        BooleanFunction("const", 2, [True] * 4)
    with pytest.raises(InvalidParamError):
        custom_function([False, False])


def test_or2_golden():
    assert canonical_clauses(or_function(2), positive=True) == CnfFormula([[1, 2]])
    assert canonical_clauses(or_function(2), positive=False) == CnfFormula([[-1], [-2]])


def test_xor2_golden():
    assert canonical_clauses(xor_function(2), positive=True) == CnfFormula(
        [[1, 2], [-1, -2]]
    )
    assert canonical_clauses(xor_function(2), positive=False) == CnfFormula(
        [[1, -2], [-1, 2]]
    )


@pytest.mark.parametrize("d", range(1, 9))
def test_xor_clauses_are_parity_filtered_full_clauses(d):
    # xor (positive) is falsified exactly at even-weight inputs, whose
    # excluding clauses have d - weight positive literals: d's parity; the
    # negation's clauses have the other parity
    for positive in (True, False):
        want_parity = d % 2 if positive else (d + 1) % 2
        clauses = [
            Clause([(i + 1) if s else -(i + 1) for i, s in enumerate(signs)])
            for signs in itertools.product((1, 0), repeat=d)
            if sum(signs) % 2 == want_parity
        ]
        assert canonical_clauses(xor_function(d), positive) == CnfFormula(clauses)


def test_thr42_golden():
    pos = canonical_clauses(threshold_function(4, 2), positive=True)
    assert pos == CnfFormula([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    neg = canonical_clauses(threshold_function(4, 2), positive=False)
    assert neg == CnfFormula(
        [[-1, -2], [-1, -3], [-1, -4], [-2, -3], [-2, -4], [-3, -4]]
    )


def test_and2_default_representation():
    # the natural unit-clause form, not the three-clause fallback
    assert canonical_clauses(and_function(2), positive=True) == CnfFormula([[1], [2]])
    assert canonical_clauses(and_function(2), positive=False) == CnfFormula([[-1, -2]])


@pytest.mark.parametrize(
    "f, k",
    [
        (or_function(3), 1),
        (and_function(3), 3),
        (threshold_function(4, 2), 2),
        (majority_function(5), 3),
        (xor_function(2), None),
        (identity_function(), None),
        (custom_function([0, 1, 1, 1]), None),  # or's table, but no name
    ],
)
def test_threshold_of(f, k):
    assert threshold_of(f) == k


def _alpha(f, bits):
    return Restriction(
        [(i + 1) if (bits >> i) & 1 else -(i + 1) for i in range(f.d)]
    )


@pytest.mark.parametrize(
    "f",
    [
        or_function(2),
        or_function(3),
        or_function(4),
        and_function(2),
        and_function(3),
        xor_function(2),
        xor_function(3),
        xor_function(4),
        xor_function(5),
        threshold_function(4, 2),
        threshold_function(5, 3),
        threshold_function(3, 2),
        identity_function(),
        custom_function([0, 1, 1, 0, 0, 0, 1, 1]),
    ],
)
def test_representation_soundness(f):
    # Cl[f] evaluates exactly like f, Cl[not f] like its negation; the
    # representation never needs 2^d clauses
    pos = canonical_clauses(f, positive=True)
    neg = canonical_clauses(f, positive=False)
    assert len(pos) < (1 << f.d)
    assert len(neg) < (1 << f.d)
    for bits in range(1 << f.d):
        alpha = _alpha(f, bits)
        assert evaluate(pos, alpha) == f.value(bits)
        assert evaluate(neg, alpha) == (not f.value(bits))


@pytest.mark.parametrize(
    "f", [or_function(2), xor_function(2), xor_function(3), threshold_function(4, 2)]
)
def test_falsified_positive_clause_satisfies_all_negative(f):
    # minimal falsifying restriction of any clause of Cl[f] fixes every
    # clause of Cl[not f] to true
    pos = canonical_clauses(f, positive=True)
    neg = canonical_clauses(f, positive=False)
    for c in pos:
        rho = Restriction([-l for l in c])
        for d_ in neg:
            assert restrict(d_, rho) is True


def test_substitute_clause_eq21_golden():
    got = substitute_clause(Clause([1, -2]), xor_function(2))
    want = CnfFormula(
        [[1, 2, 3, -4], [1, 2, -3, 4], [-1, -2, 3, -4], [-1, -2, -3, 4]]
    )
    assert got == want


def test_substitute_unit_clause_or():
    assert substitute_clause(Clause([1]), or_function(2)) == CnfFormula([[1, 2]])


def test_substitute_two_positive_or():
    assert substitute_clause(Clause([1, 2]), or_function(2)) == CnfFormula(
        [[1, 2, 3, 4]]
    )


def test_substitute_formula_xor_contradiction():
    f = CnfFormula([[1], [-1]])
    got = substitute_formula(f, xor_function(2))
    assert got == CnfFormula([[1, 2], [-1, -2], [1, -2], [-1, 2]])
    assert not is_satisfiable([got])


def test_substitute_empty_clause():
    assert substitute_clause(Clause(), xor_function(2)) == CnfFormula([Clause()])


def test_substitution_variable_count():
    f = CnfFormula([[1, -2], [2, 3]])
    sub = substitute_formula(f, xor_function(2))
    assert sub.variables() == frozenset(range(1, 7))


def test_substitution_size_bound():
    f = CnfFormula([[1, -2], [2, 3], [-1, -3]])
    for fn in (xor_function(2), or_function(3), threshold_function(3, 2)):
        sub = substitute_formula(f, fn)
        assert len(sub) < len(f) * (1 << (fn.d * f.width()))


def test_obs315_satisfiability_preserved_exhaustive():
    # all CNFs over 2 variables with at most 2 clauses
    from resspace.logic import all_clauses_over

    universe = all_clauses_over([1, 2])
    fn = xor_function(2)
    seen = set()
    for m in range(1, 3):
        for combo in itertools.combinations(universe, m):
            f = CnfFormula(combo)
            if f in seen:
                continue
            seen.add(f)
            assert is_satisfiable([f]) == is_satisfiable([substitute_formula(f, fn)])


def test_varmap_blocks():
    vm = SubstitutionVarMap(3)
    assert vm.block(1) == (1, 2, 3)
    assert vm.block(4) == (10, 11, 12)
    assert vm.fresh(2, 1) == 4
    for v in range(1, 13):
        assert v in vm.block(vm.original(v))
    assert vm.shadow([4, 5, 10]) == frozenset({2, 4})


def test_clause_set_disjunction():
    assert clause_set_disjunction([Clause([1])], [Clause([2])]) == (Clause([1, 2]),)
    got = clause_set_disjunction([Clause([1]), Clause([2])], [Clause([-3])])
    assert got == (Clause([-3, 1]), Clause([-3, 2]))
    # x[xor2] v (~y)[xor2] gives exactly the Eq 2.1 clause set
    fn = xor_function(2)
    got = clause_set_disjunction(
        literal_substitution(1, fn), literal_substitution(-2, fn)
    )
    assert CnfFormula(got) == substitute_clause(Clause([1, -2]), fn)


def test_clause_set_disjunction_drops_trivial():
    got = clause_set_disjunction([Clause([1])], [Clause([-1])])
    assert got == ()


def test_non_authoritarian_table():
    # xor on d+1 variables is d-non-authoritarian
    for k in range(1, 4):
        assert is_k_non_authoritarian(xor_function(k + 1), k)
        assert not is_k_non_authoritarian(xor_function(k + 1), k + 1)
    # plain or is always authoritarian
    for d in range(2, 5):
        assert not is_k_non_authoritarian(or_function(d), 1)
    # majority of 2d+1 variables is d-non-authoritarian
    for d in (1, 2):
        assert is_k_non_authoritarian(majority_function(2 * d + 1), d)
    assert not is_k_non_authoritarian(identity_function(), 1)
    assert is_k_non_authoritarian(xor_function(2), 0)


def test_minterm_dnf():
    fn = xor_function(2)
    assert minterm_dnf(fn, 1) == KDnfFormula([Term([1, -2]), Term([-1, 2])], k=2)
    assert minterm_dnf(fn, 2, positive=False) == KDnfFormula(
        [Term([3, 4]), Term([-3, -4])], k=2
    )
    for bits in range(4):
        alpha = _alpha(fn, bits)
        assert evaluate(minterm_dnf(fn, 1), alpha) == fn.value(bits)


def test_identity_substitution_is_identity():
    f = CnfFormula([[1, -2], [2, 3]])
    assert substitute_formula(f, identity_function()) == f

import gc
import itertools
import random
import re

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
    all_clauses_over,
    canonical_literals,
    evaluate,
    implication_counterexample,
    implies,
    negating_restriction,
    restrict,
)
from reference import all_assignments


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


def test_clause_and_term_never_compare_equal_or_ordered():
    # one shared base, yet a clause and a term over the same literals stay
    # distinct and unordered against each other
    c, t = Clause([1, -2]), Term([1, -2])
    assert c.lits == t.lits
    assert c != t and t != c
    assert len({c, t}) == 2
    with pytest.raises(TypeError):
        c < t
    with pytest.raises(TypeError):
        sorted([c, t])
    assert repr(c) == "Clause(lits=(1, -2))" and repr(t) == "Term(lits=(1, -2))"
    assert type(c.union(Clause([3]))) is Clause
    assert type(t.without(1)) is Term


def test_term_trivial():
    assert Term([1, -1, 2]).is_trivial()
    assert not Term([1, 2]).is_trivial()


def test_cnf_drops_trivial_by_default():
    f = CnfFormula([Clause([1, -1]), Clause([2])])
    assert f.clauses == (Clause([2]),)
    g = CnfFormula([Clause([1, -1]), Clause([2])], keep_trivial=True)
    assert len(g) == 2


def test_cnf_membership():
    f = CnfFormula([[1, 2], [-1], [2, 3, -4]])
    assert Clause([2, 1]) in f
    assert Clause([-1]) in f
    assert Clause([1]) not in f
    assert Clause([1, 2, 3]) not in f
    assert EMPTY_CLAUSE not in f
    trivial = Clause([1, -1])
    assert trivial not in CnfFormula([trivial, [2]])
    kept = CnfFormula([trivial, [2]], keep_trivial=True)
    assert trivial in kept and Clause([2]) in kept
    assert Clause([1]) not in kept


def test_cnf_membership_leaves_equality_hash_and_order():
    import dataclasses

    f, twin = CnfFormula([[1, 2], [-1]]), CnfFormula([[-1], [2, 1]])
    smaller = CnfFormula([[-2]])
    before = (hash(f), f == twin, f < smaller, smaller < f)
    assert Clause([-1]) in f and Clause([1]) not in smaller
    assert (hash(f), f == twin, f < smaller, smaller < f) == before
    assert hash(f) == hash(twin) and f == twin
    assert [fd.name for fd in dataclasses.fields(CnfFormula)] == ["clauses"]
    assert repr(f) == repr(twin)


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


def test_implies_cap(monkeypatch):
    big = [Clause([v]) for v in range(1, 30)]
    with pytest.raises(TooManyVariablesError):
        implies(big, [EMPTY_DNF])
    monkeypatch.setenv("RESSPACE_UNSAFE_IMPLIES_VARS", "30")
    assert implies(big, [Clause([1])])


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


def test_canonical_form_matches_reference_definitions():
    # the reference forms: literals sorted by (variable, sign) with a Python
    # key, a pair of complementary literals, and terms in dataclass order
    def lit_key(lit):
        return (abs(lit), lit > 0)

    rng = random.Random(11)
    lit_lists = [
        [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 6))]
        for _ in range(500)
    ]
    for lits in lit_lists:
        assert canonical_literals(lits) == tuple(sorted(set(lits), key=lit_key))
        for cls in (Clause, Term):
            e = cls(lits)
            assert e.lits == canonical_literals(lits)
            assert e.is_trivial() == any(-l in set(lits) for l in lits)
    trivial = sum(Term(lits).is_trivial() for lits in lit_lists)
    assert 0 < trivial < len(lit_lists)
    for _ in range(300):
        terms = [Term(rng.choice(lit_lists)) for _ in range(rng.randint(0, 6))]
        want = tuple(sorted({t for t in terms if not t.is_trivial()}))
        k = max((len(t) for t in want), default=0)
        assert KDnfFormula(terms, k=k).terms == want
        assert KDnfFormula([t.lits for t in terms], k=k + 1).terms == want


@pytest.mark.parametrize(
    "lits, bad", [([0], "0"), ([1, 0], "0"), (["x"], "'x'"), ([2, 1.0], "1.0"), ([None], "None")]
)
def test_bad_literals_still_raise(lits, bad):
    for make in (Clause, Term, Restriction, lambda ls: KDnfFormula([ls], k=3)):
        with pytest.raises(ValueError, match=f"^bad literal {re.escape(bad)}$"):
            make(lits)


def test_term_wider_than_k_still_raises():
    with pytest.raises(ValueError, match=r"^term \(1, 2, 3\) wider than k=2$"):
        KDnfFormula([Term([3, 1, 2])], k=2)
    with pytest.raises(ValueError, match=r"^term \(-1, 2\) wider than k=1$"):
        KDnfFormula([[2, -1]], k=1)


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


# --- interning: one object per distinct value ---------------------------------


def _intern_counts():
    return tuple(len(cls._table) for cls in (Clause, Term, KDnfFormula))


def test_equal_values_built_by_different_paths_are_one_object():
    from resspace.boolfunc import xor_function
    from resspace.compilers import compile_pebbling_rk
    from resspace.formats import derivation_from_text, derivation_to_text, dnf_from_text
    from resspace.graphs import pyramid_graph
    from resspace.pebbling import trivial_black_pebbling
    from resspace.proofs import AxiomDownload, Inference

    # public constructors, in any literal and term order
    assert Term([2, 1]) is Term((1, 2)) is Term([1, 2, 1])
    assert Clause([-3, 1]) is Clause((1, -3))
    d = KDnfFormula([[2, 1], [-3]], k=2)
    assert d is KDnfFormula([Term([-3]), Term([1, 2]), [1, 2]], k=2)
    assert d.terms[1] is Term([1, 2])
    # the parser, from_clause, with_k and as_clause
    assert dnf_from_text("-3|1^2", k=2) is d
    assert KDnfFormula.from_clause(Clause([2, -1]), k=2) is KDnfFormula([[-1], [2]], k=2)
    assert d.with_k(3) is KDnfFormula([[1, 2], [-3]], k=3)
    assert d.with_k(2) is d
    assert KDnfFormula([[2], [-1]]).as_clause() is Clause([-1, 2])
    # a compiled proof and its parsed text share every line
    dag, f = pyramid_graph(2), xor_function(2)
    deriv = compile_pebbling_rk(dag, trivial_black_pebbling(dag), f)
    parsed = derivation_from_text(derivation_to_text(deriv), deriv.formula)
    pairs = list(zip(deriv.steps, parsed.steps))
    assert pairs and len(pairs) == len(deriv.steps)
    for a, b in pairs:
        if isinstance(a, Inference):
            assert b.formula is a.formula
        elif isinstance(a, AxiomDownload):
            assert b.clause is a.clause
    # the hashes are the dataclass values, and equality keeps its pins
    for lits in ([], [1], [3, -1, 2]):
        assert hash(Term(lits)) == hash((Term(lits).lits,))
        assert hash(Clause(lits)) == hash((Clause(lits).lits,))
    for ts, k in (((), 1), ((Term([1, 2]), Term([-3])), 2)):
        g = KDnfFormula(ts, k)
        assert hash(g) == hash((g.terms, k))
    c, t = Clause([1, -2]), Term([1, -2])
    assert c.lits == t.lits and c != t and len({c, t}) == 2
    with pytest.raises(TypeError):
        sorted([c, t])
    assert KDnfFormula([[1]], k=1) != KDnfFormula([[1]], k=2)


@pytest.mark.parametrize(
    "lits, bad", [([0], "0"), ([1, 0], "0"), (["x"], "'x'"), ([2, 1.0], "1.0"), ([None], "None")]
)
def test_validation_survives_interning(lits, bad):
    # equal values are interned first: [2, 1.0] equals and hashes like (1, 2)
    held = (Term([1, 2]), Clause([1, 2]), KDnfFormula([[1, 2]], k=3))
    gc.collect()
    before = _intern_counts()
    test_bad_literals_still_raise(lits, bad)
    test_term_wider_than_k_still_raises()
    gc.collect()
    assert _intern_counts() == before
    assert held == (Term([1, 2]), Clause([1, 2]), KDnfFormula([[1, 2]], k=3))
    with pytest.raises(ValueError, match=r"^term \(1, 2\) wider than k=1$"):
        held[2].with_k(1)
    with pytest.raises(ValueError, match=r"^term \(1,\) wider than k=0$"):
        KDnfFormula.from_clause(Clause([1]), k=0)


def test_int_subclass_literals_are_stored_as_ints():
    assert Term([True, 2]) is Term([1, 2])
    assert type(Clause([True]).lits[0]) is int
    with pytest.raises(ValueError, match="^bad literal False$"):
        Term([False])


@pytest.mark.parametrize(
    "value",
    [Term([1, -2]), Clause([1, -2]), KDnfFormula([[1, -2], [3]], k=2), EMPTY_TERM, EMPTY_CLAUSE, EMPTY_DNF],
    ids=repr,
)
def test_copy_and_pickle_return_the_interned_object(value):
    import copy
    import pickle

    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value, value]) == [value, value]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value
    assert EMPTY_TERM.lits == () and Term() is EMPTY_TERM
    assert EMPTY_CLAUSE.lits == () and Clause() is EMPTY_CLAUSE
    assert (EMPTY_DNF.terms, EMPTY_DNF.k) == ((), 1) and KDnfFormula() is EMPTY_DNF


def test_intern_tables_keep_nothing_alive():
    from resspace.boolfunc import xor_function
    from resspace.compilers import compile_pebbling_rk
    from resspace.formats import derivation_from_text, derivation_to_text
    from resspace.graphs import pyramid_graph
    from resspace.pebbling import trivial_black_pebbling

    dag, f = pyramid_graph(3), xor_function(2)
    moves = trivial_black_pebbling(dag)

    def build():
        deriv = compile_pebbling_rk(dag, moves, f)
        return deriv, derivation_from_text(derivation_to_text(deriv), deriv.formula)

    build()  # fills the caches that outlive one compile
    gc.collect()
    before = _intern_counts()
    proofs = build()
    assert all(n > m for n, m in zip(_intern_counts(), before))
    del proofs
    gc.collect()
    assert _intern_counts() == before

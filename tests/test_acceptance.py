"""The acceptance suite: one test per criterion, each printing a pass line
with its headline numbers.  Tolerances and bounds are pinned here; nothing
is deferred to later calibration.
"""

import itertools
import random
import time

import pytest

from resspace.boolfunc import (
    canonical_clauses,
    identity_function,
    is_k_non_authoritarian,
    majority_function,
    or_function,
    substitute_clause,
    substitute_formula,
    threshold_function,
    xor_function,
)
from resspace.compilers import (
    compile_pebbling,
    compile_pebbling_rk,
    derive_dnf_from_cnf,
    dnf_representation,
    pebbling_formula,
    refute_dnf_pair,
)
from resspace.graphs import bit_reversal_graph, path_graph, pyramid_graph
from resspace.logic import (
    Clause,
    CnfFormula,
    KDnfFormula,
    Restriction,
    Term,
    all_clauses_over,
    evaluate,
    implies,
    is_satisfiable,
)
from resspace.minimal import (
    block_substituted_min_unsat,
    enumerate_min_unsat,
    is_minimally_unsatisfiable,
    scan_min_unsat_cnf,
)
from resspace.pebbling import (
    search_min_space,
    search_min_time_given_space,
    trivial_black_pebbling,
    validate_pebbling,
)
from resspace.projection import extract_pebbling, project_invariant_audit
from resspace.proofs import (
    AxiomDownload,
    Inference,
    check_refutation,
    derive_implied_clause,
    replay,
    walk,
    zero_formula,
)
from resspace.transforms import eliminate_weakening, is_frugal, make_frugal

XOR2 = xor_function(2)


def _passed(criterion, detail=""):
    print(f"PASS criterion {criterion}: {detail}")


def _indegree(g):
    return max(g.indegree(v) for v in range(1, g.n + 1))


# -- fixtures shared by criteria 5-8 -----------------------------------------


def _matrix_graphs():
    return [
        ("path:2", path_graph(2), "trivial"),
        ("path:3", path_graph(3), "trivial"),
        ("path:4", path_graph(4), "trivial"),
        ("pyramid:1", pyramid_graph(1), "trivial"),
        ("pyramid:2", pyramid_graph(2), "optimal"),
        ("bit_reversal:1", bit_reversal_graph(1), "trivial"),
    ]


def _pebbling_for(g, kind):
    if kind == "trivial":
        return trivial_black_pebbling(g)
    return search_min_space(g, "black")[1]


@pytest.fixture(scope="module")
def compiled_matrix():
    out = {}
    for name, g, kind in _matrix_graphs():
        moves = _pebbling_for(g, kind)
        for f in (identity_function(), XOR2):
            fm = pebbling_formula(g, f)
            deriv = compile_pebbling(g, moves, f)
            measures = check_refutation(fm.cnf, deriv)
            out[(name, f.name)] = (g, f, fm, deriv, measures)
    return out


# -- criteria ------------------------------------------------------------------


def test_criterion_1_eq21_golden():
    t0 = time.time()
    got = substitute_clause(Clause([1, -2]), XOR2)
    want = CnfFormula(
        [[1, 2, 3, -4], [1, 2, -3, 4], [-1, -2, 3, -4], [-1, -2, -3, 4]]
    )
    assert got == want
    from resspace.formats import cnf_to_dimacs

    assert cnf_to_dimacs(got) == cnf_to_dimacs(want)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _passed(1, f"xor substitution golden, {elapsed * 1e3:.0f} ms")


def test_criterion_2_canonical_representation_goldens():
    t0 = time.time()
    assert canonical_clauses(or_function(2), True) == CnfFormula([[1, 2]])
    assert canonical_clauses(or_function(2), False) == CnfFormula([[-1], [-2]])
    assert canonical_clauses(XOR2, True) == CnfFormula([[1, 2], [-1, -2]])
    assert canonical_clauses(XOR2, False) == CnfFormula([[1, -2], [-1, 2]])
    thr42 = threshold_function(4, 2)
    assert canonical_clauses(thr42, True) == CnfFormula(
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    )
    assert canonical_clauses(thr42, False) == CnfFormula(
        [[-1, -2], [-1, -3], [-1, -4], [-2, -3], [-2, -4], [-3, -4]]
    )
    # parity and threshold families against truth-table expansion, d <= 4
    checked = 0
    for d in range(2, 5):
        fns = [xor_function(d)] + [threshold_function(d, k) for k in range(1, d + 1)]
        for f in fns:
            for positive in (True, False):
                rep = canonical_clauses(f, positive)
                assert len(rep) < (1 << d)
                for bits in range(1 << d):
                    alpha = Restriction(
                        [(i + 1) if (bits >> i) & 1 else -(i + 1) for i in range(d)]
                    )
                    assert evaluate(rep, alpha) == (f.value(bits) == positive)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _passed(2, f"{checked} representations verified, {elapsed * 1e3:.0f} ms")


def test_criterion_3_substitution_preserves_satisfiability():
    t0 = time.time()
    universe = all_clauses_over([1, 2, 3])
    count = 0
    for m in range(1, 4):
        for combo in itertools.combinations(universe, m):
            f = CnfFormula(combo)
            if len(f) != m:
                continue
            sub = substitute_formula(f, XOR2)
            assert is_satisfiable([f]) == is_satisfiable([sub])
            count += 1
    rng = random.Random(315)
    universe4 = all_clauses_over([1, 2, 3, 4])
    for _ in range(500):
        clauses = [rng.choice(universe4) for _ in range(rng.randint(1, 6))]
        f = CnfFormula(clauses)
        sub = substitute_formula(f, XOR2)
        assert is_satisfiable([f]) == is_satisfiable([sub])
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _passed(3, f"{count} formulas, exhaustive <=3 vars plus 500 seeded, {elapsed:.1f} s")


def test_criterion_4_non_authoritarian_table():
    t0 = time.time()
    for k in (1, 2, 3):
        assert is_k_non_authoritarian(xor_function(k + 1), k)
    for d in (2, 3, 4):
        assert not is_k_non_authoritarian(or_function(d), 1)
    for d in (1, 2):
        assert is_k_non_authoritarian(majority_function(2 * d + 1), d)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _passed(4, f"xor/or/majority table exhaustive, {elapsed * 1e3:.0f} ms")


def test_criterion_5_round_trip_pipeline(compiled_matrix):
    t0 = time.time()
    rows = 0
    for (name, fname), (g, f, fm, deriv, measures) in compiled_matrix.items():
        nonauth = is_k_non_authoritarian(f, 1)
        result = extract_pebbling(deriv, g, f, require_space_bound=nonauth)
        metrics = validate_pebbling(g, result.moves)
        ell = _indegree(g)
        assert metrics.time <= (ell + 1) * measures.axiom_downloads, (name, fname)
        if nonauth:
            assert metrics.space <= measures.formula_space, (name, fname)
        rows += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _passed(5, f"{rows} graph/function round trips, {elapsed:.1f} s")


def test_criterion_6_width_bound(compiled_matrix):
    violations = 0
    for (name, fname), (g, f, fm, deriv, measures) in compiled_matrix.items():
        if fname != "xor":
            continue
        ell = _indegree(g)
        if measures.width > f.d * (ell + 1):
            violations += 1
    assert violations == 0
    _passed(6, "compiled widths within arity*(indegree+1), zero violations")


def test_criterion_7_projection_audit(compiled_matrix):
    audited = 0
    for (name, fname), (g, f, fm, deriv, measures) in compiled_matrix.items():
        if fname != "xor":
            continue
        report = project_invariant_audit(deriv, fm.base, f)
        assert report.ok, (name, report.violations[:3])
        audited += report.audited
    assert audited > 0
    _passed(7, f"{audited} configurations audited, zero violations")


def test_criterion_8_space_against_bw_price(compiled_matrix):
    checked = []
    for name in ("pyramid:1", "pyramid:2", "path:2", "path:3", "path:4"):
        g, f, fm, deriv, measures = compiled_matrix[(name, "xor")]
        bw, _ = search_min_space(g, "black_white")
        assert measures.formula_space >= bw, (name, measures.formula_space, bw)
        checked.append(f"{name}:{measures.formula_space}>={bw}")
    _passed(8, ", ".join(checked))


def test_criterion_9_min_unsat_enumeration():
    t0 = time.time()
    # every minimally unsatisfiable CNF over <= 4 variables: exhaustive scan
    covers, violations, counts, max_vars = scan_min_unsat_cnf(4, 16)
    assert covers == 15097499
    assert violations == 0
    assert counts == [
        0, 0, 4, 48, 974, 22072, 102960, 533256, 1978948, 3852592, 4631036,
        2747376, 1035352, 181464, 11208, 208, 1, 0,
    ]
    assert max(max_vars) == 4
    # the canonical enumerator agrees on a moderate slice
    for s in enumerate_min_unsat(1, 4, 6):
        vs = set().union(*(set(f.variables()) for f in s))
        assert len(vs) < len(s)
    # 2-DNF sets over <= 6 variables found by enumeration
    found = 0
    six_vars = 0
    for caps in [(2, 6, 3, 2), (2, 4, 2, 4)]:
        for s in enumerate_min_unsat(*caps[:3], max_terms=caps[3]):
            m = len(s)
            vs = set().union(*(set(f.variables()) for f in s))
            assert len(vs) <= (2 * m) ** 3
            found += 1
            if len(vs) == 6:
                six_vars += 1
    assert found > 0 and six_vars > 0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _passed(
        9,
        f"{covers} CNF sets scanned with 0 bound violations; "
        f"{found} 2-DNF sets ({six_vars} using 6 variables), {elapsed:.0f} s",
    )


def test_criterion_10_block_construction():
    for k, n in [(2, 1), (2, 2), (3, 1)]:
        s = block_substituted_min_unsat(k, n)
        assert len(s) == n + 1
        vs = set().union(*(set(f.variables()) for f in s))
        assert len(vs) == k * k * n
        assert is_minimally_unsatisfiable(s)
    eq22 = [
        KDnfFormula([Term([1])], k=2),
        KDnfFormula([Term([-1, 2]), Term([-1, 3])], k=2),
    ]
    assert not is_minimally_unsatisfiable(eq22)
    _passed(10, "block construction minimal for (2,1),(2,2),(3,1); naive set rejected")


def test_criterion_11_implied_clause_bounds():
    rng = random.Random(311)
    done = 0
    while done < 100:
        nv = rng.randint(1, 5)
        universe = all_clauses_over(range(1, nv + 1), max_width=min(3, nv))
        premises = [rng.choice(universe) for _ in range(rng.randint(1, 4))]
        target = rng.choice(universe + [Clause()])
        if target.is_trivial() or not implies(premises, [target]):
            continue
        deriv = derive_implied_clause(premises, target)
        log = replay(deriv)
        assert KDnfFormula.from_clause(target) in [b.values() for _, _, b in walk(deriv)][-1]
        n = len(
            set().union(
                *(set(c.variables()) for c in premises), set(target.variables())
            )
        )
        n = max(n, 1)
        assert log.measures.length <= (1 << (n + 1)) - 1
        assert log.measures.total_space <= n * (n + 2)
        done += 1
    _passed(11, "100 seeded instances within length and total-space bounds")


def _random_noisy_refutation(rng, nv=3):
    from resspace.proofs import DerivationBuilder

    universe = all_clauses_over(range(1, nv + 1), max_width=2)
    while True:
        clauses = sorted(set(rng.choice(universe) for _ in range(rng.randint(3, 6))))
        f = CnfFormula(clauses)
        if implies(list(f), [zero_formula(1)]):
            break
    base = derive_implied_clause(list(f), Clause())
    b = DerivationBuilder(f, k=1)
    idmap = {}
    nxt = 1
    live = []
    from resspace.proofs import Erasure

    for step in base.steps:
        if isinstance(step, AxiomDownload):
            idmap[nxt] = b.download(step.clause)
            live.append(nxt)
            nxt += 1
        elif isinstance(step, Inference):
            idmap[nxt] = b.infer(step.rule, [idmap[p] for p in step.premises], step.formula)
            live.append(nxt)
            nxt += 1
        else:
            live.remove(step.target)
            b.erase(idmap[step.target])
        if live and rng.random() < 0.3:
            src = idmap[rng.choice(live)]
            if src in b.live:
                extra = rng.choice([1, -1]) * rng.randint(1, nv)
                b.infer_clause("weak", [src], Clause(b.clause_value(src).lits + (extra,)))
    return b.build()


def test_criterion_12_weakening_elimination_and_frugality():
    rng = random.Random(312)
    fields = ("length", "formula_space", "total_space", "variable_space", "width")
    for _ in range(100):
        noisy = _random_noisy_refutation(rng)
        m_in = check_refutation(noisy.formula, noisy)
        clean = eliminate_weakening(noisy)
        m_clean = check_refutation(clean.formula, clean)
        assert not any(
            isinstance(s, Inference) and s.rule == "weak" for s in clean.steps
        )
        for field in fields:
            assert getattr(m_clean, field) <= getattr(m_in, field), field
        frugal = make_frugal(clean)
        m_frugal = check_refutation(frugal.formula, frugal)
        assert is_frugal(frugal)
        for field in fields:
            assert getattr(m_frugal, field) <= getattr(m_clean, field), field
    _passed(12, "100 seeded refutations: dominated, weakening-free, frugal")


def test_criterion_13_bit_reversal_pebbling():
    for p in (1, 2):
        price, witness = search_min_space(bit_reversal_graph(p), "black")
        assert price == 3
        assert validate_pebbling(bit_reversal_graph(p), witness).space <= 3
    g = bit_reversal_graph(2)
    times = []
    for s in range(3, g.n + 1):
        t, _ = search_min_time_given_space(g, s, "black")
        times.append(t)
    assert times == sorted(times, reverse=True)
    assert times[0] > times[-1]
    _passed(
        13,
        f"price 3 for p in {{1,2}}; min_time curve {times} strictly drops from s=3",
    )


def test_criterion_14_kdnf_checker():
    # conjunction-elimination pair refutations with the exact step count on
    # fixtures where each helper term needs exactly one elimination skip
    fixtures = [
        (KDnfFormula([Term([1, 2])], k=2), KDnfFormula([Term([-1]), Term([-2, 3])], k=2)),
        (
            KDnfFormula([Term([1, 2]), Term([3, 4])], k=2),
            KDnfFormula([Term([-1, -3]), Term([-3, -2]), Term([-4, -1]), Term([-2, -4])], k=2),
        ),
    ]
    for d1, d2 in fixtures:
        deriv = refute_dnf_pair(d1, d2)
        log = replay(deriv)
        assert log.refuted
        assert log.measures.length <= len(d1) * (len(d2) + 1)
    d1, d2 = fixtures[0]
    assert replay(refute_dnf_pair(d1, d2)).measures.length == len(d1) * len(d2)

    # the xor conjunction-introduction walkthrough at k=2
    ladder = derive_dnf_from_cnf(
        canonical_clauses(XOR2, True), dnf_representation(XOR2, 1, True), 2
    )
    assert dnf_representation(XOR2, 1, True) in set().union(
        *(b.values() for _, _, b in walk(ladder))
    )
    assert any(isinstance(s, Inference) and s.rule == "andi" for s in ladder.steps)

    # the k-DNF pebbling compiler at k = d = 2; frozen space constant c = 10
    frozen_c = 10
    for g in (path_graph(2), path_graph(3), pyramid_graph(1)):
        moves = trivial_black_pebbling(g)
        space = validate_pebbling(g, moves).space
        deriv = compile_pebbling_rk(g, moves, XOR2)
        m = check_refutation(pebbling_formula(g, XOR2).cnf, deriv)
        assert deriv.k == 2
        assert m.formula_space <= space + (1 << XOR2.d) + frozen_c
    _passed(14, "pair refutations exact, xor walkthrough accepted, rk compiler in budget")

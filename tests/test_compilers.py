import itertools
import random

import pytest

from resspace.boolfunc import (
    and_function,
    canonical_clauses,
    identity_function,
    majority_function,
    or_function,
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
from resspace.errors import InvalidPebblingError
from resspace.graphs import make_graph, path_graph, pyramid_graph
from resspace.logic import EMPTY_DNF, CnfFormula, KDnfFormula, Term, implies
from resspace.pebbling import Move, trivial_black_pebbling
from resspace.proofs import Inference, check_refutation, replay, walk
from reference import custom_function, minterm_dnf


def test_pebbling_formula_pyramid1():
    fm = pebbling_formula(pyramid_graph(1))
    assert fm.base == CnfFormula([[1], [2], [-1, -2, 3], [-3]])
    assert len(fm.base) == fm.graph.n + 1


def test_pebbling_formula_path2():
    fm = pebbling_formula(path_graph(2))
    assert fm.base == CnfFormula([[1], [-1, 2], [-2]])


def test_pebbling_formula_unsat():
    for family, p in [("path", 3), ("pyramid", 2), ("bit_reversal", 1)]:
        fm = pebbling_formula(make_graph(family, p))
        assert implies(list(fm.base), [EMPTY_DNF])
        fx = pebbling_formula(make_graph(family, p), xor_function(2))
        assert implies(list(fx.cnf), [EMPTY_DNF])


def test_pebbling_formula_width():
    g = pyramid_graph(2)
    fm = pebbling_formula(g)
    assert fm.base.width() == 3  # 1 + indegree


def test_compile_identity_accepted():
    g = pyramid_graph(1)
    d = compile_pebbling(g, trivial_black_pebbling(g))
    m = check_refutation(pebbling_formula(g).cnf, d)
    assert m.width <= 3


def test_compile_xor_accepted_with_width_bound():
    for g in (path_graph(3), pyramid_graph(1)):
        f = xor_function(2)
        d = compile_pebbling(g, trivial_black_pebbling(g), f)
        m = check_refutation(pebbling_formula(g, f).cnf, d)
        ell = max(g.indegree(v) for v in range(1, g.n + 1))
        assert m.width <= f.d * (ell + 1)


def test_compile_rejects_white_moves():
    g = path_graph(2)
    moves = (Move("pw", 2), Move("pb", 1), Move("pb", 2), Move("rw", 2))
    with pytest.raises(InvalidPebblingError):
        compile_pebbling(g, moves)


def test_compile_rejects_incomplete():
    g = path_graph(2)
    with pytest.raises(InvalidPebblingError):
        compile_pebbling(g, (Move("pb", 1),))


def test_compile_total_space_tracks_pebbling_space():
    # TotSp(output) <= c * space(P) with a stable per-function constant
    f = xor_function(2)
    ratios = []
    from resspace.pebbling import validate_pebbling

    for g in (path_graph(2), path_graph(3), path_graph(4)):
        moves = trivial_black_pebbling(g)
        sp = validate_pebbling(g, moves).space
        m = check_refutation(
            pebbling_formula(g, f).cnf, compile_pebbling(g, moves, f)
        )
        ratios.append(m.total_space / sp)
    assert max(ratios) <= 40  # frozen regression constant for (xor2, path)


def test_rk_compile_path2():
    f = xor_function(2)
    g = path_graph(2)
    d = compile_pebbling_rk(g, trivial_black_pebbling(g), f)
    m = check_refutation(pebbling_formula(g, f).cnf, d)
    ell = max(g.indegree(v) for v in range(1, g.n + 1))
    assert m.max_terms <= (ell + 1) * (1 << (f.d - 1))
    assert d.k == f.d


def test_rk_compile_single_line_per_vertex():
    # Each vertex is represented by one DNF line: formula space stays within
    # pebbling space + 2^d + frozen constant
    f = xor_function(2)
    from resspace.pebbling import validate_pebbling

    for g in (path_graph(2), path_graph(3), pyramid_graph(1)):
        moves = trivial_black_pebbling(g)
        sp = validate_pebbling(g, moves).space
        m = check_refutation(
            pebbling_formula(g, f).cnf, compile_pebbling_rk(g, moves, f)
        )
        assert m.formula_space <= sp + (1 << f.d) + 10


def test_rk_compile_threshold():
    f = threshold_function(3, 2)
    g = path_graph(2)
    d = compile_pebbling_rk(g, trivial_black_pebbling(g), f)
    check_refutation(pebbling_formula(g, f).cnf, d)


def test_dnf_representation_semantics():
    from resspace.logic import Restriction, evaluate

    for f in (xor_function(2), xor_function(3), or_function(3), threshold_function(4, 2)):
        rep = dnf_representation(f, 1, positive=True)
        neg = dnf_representation(f, 1, positive=False)
        for bits in range(1 << f.d):
            alpha = Restriction(
                [(i + 1) if (bits >> i) & 1 else -(i + 1) for i in range(f.d)]
            )
            assert evaluate(rep, alpha) == f.value(bits)
            assert evaluate(neg, alpha) == (not f.value(bits))


def _named_up_to_8():
    """Every named function up to arity 8, with its threshold k or None."""
    out = [(identity_function(), None)]
    for d in range(1, 9):
        out += [(or_function(d), 1), (and_function(d), d), (xor_function(d), None)]
        if d % 2:
            out.append((majority_function(d), (d + 1) // 2))
        out += [(threshold_function(d, k), k) for k in range(1, d + 1)]
    return out


def _seeded_tables(count):
    rng = random.Random(20101)
    out = []
    while len(out) < count:
        d = rng.randint(1, 5)
        table = [rng.random() < 0.5 for _ in range(1 << d)]
        if any(table) and not all(table):
            out.append(custom_function(table))
    return out


def _subset_dnf(f, var, k, positive):
    """At least k of the block's inputs true: some k of them are; the
    negation: some d-k+1 of them are false."""
    block = [f.d * (var - 1) + j for j in range(1, f.d + 1)]
    if positive:
        terms = [Term(s) for s in itertools.combinations(block, k)]
    else:
        terms = [
            Term([-v for v in s]) for s in itertools.combinations(block, f.d - k + 1)
        ]
    return KDnfFormula(terms, k=f.d)


@pytest.mark.parametrize(
    "f, k",
    _named_up_to_8() + [(f, None) for f in _seeded_tables(20)],
    ids=lambda x: f"{x.name}:{x.d}" if hasattr(x, "d") else None,
)
def test_dnf_representation_is_subsets_or_minterms(f, k):
    # thresholds get the k-subset DNF, every other function its minterms
    for var, positive in itertools.product((1, 3), (True, False)):
        got = dnf_representation(f, var, positive)
        if k is None:
            assert got == minterm_dnf(f, var, positive=positive, k=f.d)
        else:
            assert got == _subset_dnf(f, var, k, positive)


def test_xor_walkthrough_ladder():
    # derive the xor DNF from the xor clause set using and-introductions
    f = xor_function(2)
    d = derive_dnf_from_cnf(canonical_clauses(f, True), dnf_representation(f, 1, True), 2)
    assert any(
        isinstance(s, Inference) and s.rule == "andi" for s in d.steps
    )
    assert dnf_representation(f, 1, True) in set().union(*(b.values() for _, _, b in walk(d)))


def test_xor3_walkthrough_ladder():
    f = xor_function(3)
    d = derive_dnf_from_cnf(
        canonical_clauses(f, True), dnf_representation(f, 1, True), 3
    )
    assert dnf_representation(f, 1, True).with_k(3) in set().union(
        *(b.values() for _, _, b in walk(d))
    )


def test_refute_dnf_pair_lengths():
    f = xor_function(2)
    d1 = dnf_representation(f, 1, True)
    d2 = dnf_representation(f, 1, False)
    d = refute_dnf_pair(d1, d2)
    log = replay(d)
    assert log.refuted
    assert log.measures.length <= len(d1) * (len(d2) + 1)


def test_refute_dnf_pair_exact_tight_count():
    # a pair where each term of d2 holds exactly one usable unit: the
    # elimination skips it, giving exactly |d1| * |d2| inference steps
    d1 = KDnfFormula([Term([1, 2])], k=2)
    d2 = KDnfFormula([Term([-1]), Term([-2, 3])], k=2)
    d = refute_dnf_pair(d1, d2)
    log = replay(d)
    assert log.refuted
    assert log.measures.length == len(d1) * len(d2)


def test_refute_dnf_pair_rejects_satisfiable():
    from resspace.errors import NotImpliedError

    with pytest.raises(NotImpliedError):
        refute_dnf_pair(
            KDnfFormula([Term([1])], k=1), KDnfFormula([Term([2])], k=1)
        )


def test_rk_compile_arity_three():
    from resspace.boolfunc import majority_function

    g = path_graph(2)
    for f in (xor_function(3), majority_function(3)):
        deriv = compile_pebbling_rk(g, trivial_black_pebbling(g), f)
        m = check_refutation(pebbling_formula(g, f).cnf, deriv)
        assert deriv.k == 3
        assert m.formula_space <= 2 + (1 << 3) + 20


COMPILE_DIGESTS = {
    ("pyramid:14", "xor:2", "1", "trivial"):
        "1cb9e9ff5dc7ef163a4f610f6981310feeebda0cb4c3e2f1d5fb94725f51cf5d",
    ("pyramid:14", "xor:2", "d", "trivial"):
        "83717b9d0eba1cf918489aaffd7b219b25f2a583795d2c530b43fcf4d2785531",
    ("pyramid:8", "xor:3", "1", "trivial"):
        "9ea3d8274a6c9f7b70370820e66de49f85132bad53eca087db19ef72846c5530",
    ("pyramid:10", "maj:3", "d", "trivial"):
        "710f842264d992aadeebfd0fcccbeb325d8413cbdd2ade9d7184724f01e36910",
    ("pyramid:3", "xor:2", "1", "optimal"):
        "98d1f08a5bc4d8f67608e6c8e86f31378f6d659b0322e10fee8882b7c7f31621",
    ("pyramid:3", "xor:2", "d", "optimal"):
        "0c5dd1e8e02acd094821a1e2998940310ebdf88b45ac37b4e7e0099176bfc081",
    ("bit_reversal:2", "maj:3", "1", "optimal"):
        "6c5ad5d57d42e5de714584451105ee10d00ea8311ef7b876f9a1f53ae5189a7f",
    ("bit_reversal:2", "maj:3", "d", "optimal"):
        "ea38c0181cec7bf4847eaf46e1bf0dfc7f81c36bff8a53cdda400d67a0e28144",
}


@pytest.mark.parametrize("case", list(COMPILE_DIGESTS), ids="/".join)
def test_compile_outputs_pinned(case):
    """The proof text both compilers emit, on the benchmark's four long
    proofs and from optimal black pebblings of two small graphs."""
    import hashlib

    from resspace.boolfunc import function_by_name
    from resspace.formats import derivation_to_text
    from resspace.pebbling import search_min_space

    graph, fspec, k, pebbling = case
    family, _, param = graph.partition(":")
    dag = make_graph(family, int(param))
    name, _, d = fspec.partition(":")
    f = function_by_name(name, int(d))
    if pebbling == "trivial":
        moves = trivial_black_pebbling(dag)
    else:
        moves = search_min_space(dag, "black")[1]
    deriv = (compile_pebbling_rk if k == "d" else compile_pebbling)(dag, moves, f)
    digest = hashlib.sha256(derivation_to_text(deriv).encode()).hexdigest()
    assert digest == COMPILE_DIGESTS[case]


def test_compile_checks_each_placement_with_one_implication_sweep(monkeypatch):
    """One sweep checks all the targets of a placement, sources included,
    and one the sink's empty clause."""
    import resspace.proofs as proofs
    from resspace.boolfunc import function_by_name

    calls = []
    real = proofs.implies

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(proofs, "implies", counted)
    dag = make_graph("pyramid", 8)
    compile_pebbling(dag, trivial_black_pebbling(dag), function_by_name("xor", 3))
    # the trivial pebbling places every vertex once
    assert len(calls) == dag.n + 1 == 46

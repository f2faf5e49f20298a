import random

import pytest

from resspace.errors import InvalidInputError
from resspace.logic import (
    Clause,
    CnfFormula,
    all_clauses_over,
    implies,
)
from resspace.proofs import (
    AxiomDownload,
    Derivation,
    DerivationBuilder,
    Inference,
    check_refutation,
    derive_implied_clause,
    replay,
    zero_formula,
)
from resspace.transforms import (
    eliminate_weakening,
    is_frugal,
    make_frugal,
)

MEASURES = ("length", "formula_space", "total_space", "variable_space")


def assert_dominated(out_m, in_m, width=True):
    for field in MEASURES:
        assert getattr(out_m, field) <= getattr(in_m, field), field
    if width:
        assert out_m.width <= in_m.width


def has_weakening(deriv):
    return any(
        isinstance(s, Inference) and s.rule == "weak" for s in deriv.steps
    )


def unit_refutation():
    f = CnfFormula([[1], [-1]])
    b = DerivationBuilder(f, k=1)
    a = b.download(Clause([1]))
    c = b.download(Clause([-1]))
    b.infer_clause("cut", [a, c], Clause())
    return b.build()


def refutation_with_dead_weakening():
    f = CnfFormula([[1], [-1]])
    b = DerivationBuilder(f, k=1)
    a = b.download(Clause([1]))
    w = b.infer_clause("weak", [a], Clause([1, 2]))
    c = b.download(Clause([-1]))
    b.infer_clause("cut", [a, c], Clause())
    b.erase(w)
    return b.build()


def refutation_through_weakened_clause():
    # weakened clause actually used in a cut, so elimination must strengthen
    f = CnfFormula([[1], [-1, 2], [-2]])
    b = DerivationBuilder(f, k=1)
    a = b.download(Clause([1]))
    w = b.infer_clause("weak", [a], Clause([1, 3]))
    c = b.download(Clause([-1, 2]))
    r1 = b.infer_clause("cut", [w, c], Clause([2, 3]))
    d = b.download(Clause([-2]))
    r2 = b.infer_clause("cut", [r1, d], Clause([3]))
    e = b.infer_clause("weak", [r2], Clause([3, -3]))
    return b.build()


def test_eliminate_dead_weakening():
    deriv = refutation_with_dead_weakening()
    out = eliminate_weakening(deriv)
    assert not has_weakening(out)
    m_in = check_refutation(deriv.formula, deriv)
    m_out = check_refutation(out.formula, out)
    assert_dominated(m_out, m_in)


def test_eliminate_weakening_fixpoint():
    deriv = unit_refutation()
    out = eliminate_weakening(deriv)
    assert out.steps == deriv.steps


def test_eliminate_weakening_strengthens_used_clauses():
    deriv = refutation_through_weakened_clause()
    log_in = replay(deriv)
    out = eliminate_weakening(deriv)
    assert not has_weakening(out)
    log_out = replay(out)
    # the strengthened proof never mentions the weakening variable 3
    assert log_out.measures.variable_space <= 2
    assert_dominated(log_out.measures, log_in.measures)


def build_random_refutation(rng, nv=3):
    """A syntactic refutation of a random unsatisfiable CNF, with random
    weakenings injected."""
    universe = all_clauses_over(range(1, nv + 1), max_width=2)
    while True:
        clauses = sorted(set(rng.choice(universe) for _ in range(rng.randint(3, 6))))
        f = CnfFormula(clauses)
        if implies(list(f), [zero_formula(1)]):
            break
    base = derive_implied_clause(list(f), Clause())
    deriv = Derivation(f, 1, "syntactic", base.steps)
    # splice weakenings of random live lines
    b = DerivationBuilder(f, k=1)
    idmap = {}
    frag_next = 1
    live = []
    for step in deriv.steps:
        if isinstance(step, AxiomDownload):
            idmap[frag_next] = b.download(step.clause)
            live.append(frag_next)
            frag_next += 1
        elif isinstance(step, Inference):
            idmap[frag_next] = b.infer(
                step.rule, [idmap[p] for p in step.premises], step.formula
            )
            live.append(frag_next)
            frag_next += 1
        else:
            live.remove(step.target)
            b.erase(idmap[step.target])
        if live and rng.random() < 0.3:
            src = idmap[rng.choice(live)]
            if src in b.live:
                extra = rng.choice([1, -1]) * rng.randint(1, nv)
                cl = b.clause_value(src)
                b.infer_clause("weak", [src], Clause(cl.lits + (extra,)))
    return b.build()


def test_eliminate_weakening_random_matrix():
    rng = random.Random(5)
    for _ in range(40):
        deriv = build_random_refutation(rng)
        m_in = check_refutation(deriv.formula, deriv)
        out = eliminate_weakening(deriv)
        assert not has_weakening(out)
        m_out = check_refutation(out.formula, out)
        assert_dominated(m_out, m_in)
        assert m_out.axiom_downloads <= m_in.axiom_downloads


# --- frugality ------------------------------------------------------------


def test_make_frugal_removes_unused_download():
    f = CnfFormula([[1], [-1], [2]])
    b = DerivationBuilder(f, k=1)
    a = b.download(Clause([1]))
    b.download(Clause([2]))  # never used
    c = b.download(Clause([-1]))
    b.infer_clause("cut", [a, c], Clause())
    deriv = b.build()
    assert not is_frugal(deriv)
    out = make_frugal(deriv)
    assert is_frugal(out)
    assert all(
        not isinstance(s, AxiomDownload) or s.clause != Clause([2]) for s in out.steps
    )
    assert_dominated(
        check_refutation(f, out), check_refutation(f, deriv)
    )


def test_minimal_refutation_is_frugal():
    assert is_frugal(unit_refutation())


def test_download_then_erase_unused_not_frugal():
    f = CnfFormula([[1], [-1], [2]])
    b = DerivationBuilder(f, k=1)
    x = b.download(Clause([2]))
    b.erase(x)
    a = b.download(Clause([1]))
    c = b.download(Clause([-1]))
    b.infer_clause("cut", [a, c], Clause())
    assert not is_frugal(b.build())


def test_make_frugal_idempotent_on_frugal():
    deriv = unit_refutation()
    out = make_frugal(deriv)
    assert is_frugal(out)
    again = make_frugal(out)
    assert again.steps == out.steps


def test_make_frugal_random_matrix():
    rng = random.Random(13)
    for _ in range(40):
        noisy = build_random_refutation(rng)
        deriv = eliminate_weakening(noisy)
        m_in = check_refutation(deriv.formula, deriv)
        out = make_frugal(deriv)
        m_out = check_refutation(out.formula, out)
        assert is_frugal(out)
        assert_dominated(m_out, m_in)
        # downloads and inferences are a sub-multiset of the input's
        def bag(d, cls):
            out_ = {}
            for s in d.steps:
                if isinstance(s, cls):
                    key = s.clause if cls is AxiomDownload else s.formula
                    out_[key] = out_.get(key, 0) + 1
            return out_

        in_dl, out_dl = bag(deriv, AxiomDownload), bag(out, AxiomDownload)
        assert all(out_dl[k] <= in_dl.get(k, 0) for k in out_dl)
        in_inf, out_inf = bag(deriv, Inference), bag(out, Inference)
        assert all(out_inf[k] <= in_inf.get(k, 0) for k in out_inf)


def test_make_frugal_rejects_weakening():
    with pytest.raises(InvalidInputError):
        make_frugal(refutation_with_dead_weakening())


def test_transforms_reject_empty_term_lines():
    from resspace.logic import KDnfFormula, Term

    f = CnfFormula([[1], [-1]])
    b = DerivationBuilder(f, k=1)
    a = b.download(Clause([1]))
    b.infer("weak", [a], KDnfFormula([Term([1]), Term()], k=1))
    with pytest.raises(InvalidInputError):
        eliminate_weakening(b.build())


@pytest.mark.parametrize("transform", [eliminate_weakening, make_frugal, is_frugal])
def test_transforms_reject_seeded_derivations(transform):
    # a board seeded with x1 refutes ~x1 in one cut; no download grounds x1
    from resspace.logic import KDnfFormula

    seeded = Derivation(
        CnfFormula([[-1]]),
        1,
        "syntactic",
        (AxiomDownload(Clause([-1])), Inference(zero_formula(1), "cut", (1, 2))),
        assumptions=(KDnfFormula.from_clause(Clause([1])),),
    )
    assert check_refutation(seeded.formula, seeded).length == 2
    with pytest.raises(InvalidInputError, match="without assumptions"):
        transform(seeded)


@pytest.mark.parametrize(
    "graph, fspec, weak_digest, frugal_digest",
    [
        ("pyramid:3", "xor:2",
         "5bdada364fe4e4bf39fb56612a99712082b76d958084200bca3f3a6ef9f32826",
         "5fb86213fc758453b5ddaafd7bc5fb2d1746727fd20b1eeaf985b681de93b0e9"),
        ("bit_reversal:1", "maj:3",
         "b63681f774eea49294d6fb17e988e825a85405eb772a82cbdc3a714816779e76",
         "3a6f071816e20745e938ccb5e46cf172be2c2ef2484ed402636a05728ffcc311"),
    ],
)
def test_transform_outputs_pinned_on_translated_refutations(
    graph, fspec, weak_digest, frugal_digest
):
    """The proof text of both transforms, applied in turn to the translation
    of a compiled refutation, whose weakenings come from the translation."""
    import hashlib

    from resspace.boolfunc import function_by_name
    from resspace.compilers import compile_pebbling, pebbling_formula
    from resspace.formats import derivation_to_text
    from resspace.graphs import make_graph
    from resspace.pebbling import trivial_black_pebbling
    from resspace.projection import translate_refutation

    family, _, param = graph.partition(":")
    dag = make_graph(family, int(param))
    name, _, d = fspec.partition(":")
    f = function_by_name(name, int(d))
    deriv = compile_pebbling(dag, trivial_black_pebbling(dag), f)
    translated = translate_refutation(deriv, pebbling_formula(dag, f).base, f).derivation
    assert has_weakening(translated)
    weak = eliminate_weakening(translated)
    frugal = make_frugal(weak)

    def digest(deriv):
        return hashlib.sha256(derivation_to_text(deriv).encode()).hexdigest()

    assert (digest(weak), digest(frugal)) == (weak_digest, frugal_digest)


def test_make_frugal_memory_follows_the_board_not_the_length():
    """The backward pass records, per kept inference, only the premises
    whose last use it is, not a snapshot of the needed clauses."""
    import tracemalloc

    from resspace.boolfunc import function_by_name
    from resspace.compilers import compile_pebbling
    from resspace.graphs import make_graph
    from resspace.pebbling import trivial_black_pebbling

    dag = make_graph("pyramid", 14)
    compiled = compile_pebbling(dag, trivial_black_pebbling(dag), function_by_name("xor", 2))
    deriv = eliminate_weakening(compiled)
    assert len(deriv.steps) == 5529
    tracemalloc.start()
    try:
        out = make_frugal(deriv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.steps) == 5529
    assert peak < 3.5e6

"""Every reader of a proof walks it once: ``proofs.walk`` checks and applies
each step a single time, and a reader raises the walk's error at an illegal
step after it has read the boards before it."""

import collections

import pytest

from resspace import proofs
from resspace.boolfunc import xor_function
from resspace.cli import main
from resspace.compilers import compile_pebbling, pebbling_formula
from resspace.errors import (
    BadPremisesError,
    InvalidInputError,
    NotARefutationError,
    ResspaceError,
)
from resspace.formats import cnf_to_dimacs, derivation_to_text
from resspace.graphs import pyramid_graph
from resspace.logic import KDnfFormula, Term
from resspace.pebbling import trivial_black_pebbling
from resspace.projection import (
    extract_pebbling,
    project_invariant_audit,
    translate_refutation,
)
from resspace.proofs import Derivation, Erasure, Inference, replay, walk
from resspace.transforms import eliminate_weakening, is_frugal, make_frugal

XOR2 = xor_function(2)


@pytest.fixture(scope="module")
def pipeline():
    """The pyramid:1 / xor:2 refutation and the derivations the pipeline
    makes from it, in order."""
    g = pyramid_graph(1)
    fm = pebbling_formula(g, XOR2)
    deriv = compile_pebbling(g, trivial_black_pebbling(g), XOR2)
    translated = translate_refutation(deriv, fm.base, XOR2).derivation
    clean = eliminate_weakening(translated)
    return g, fm, deriv, translated, clean, make_frugal(clean)


def _project(tmp_path, fm, deriv):
    base, proof = tmp_path / "base.cnf", tmp_path / "p.proof"
    base.write_text(cnf_to_dimacs(fm.base))
    proof.write_text(derivation_to_text(deriv))
    return main(["project", "--base", str(base), "--f", "xor:2", "--proof", str(proof)])


def _readers(pipeline, tmp_path):
    """(name, the reader on a derivation, the input it reads) per reader."""
    g, fm, deriv, translated, clean, frugal = pipeline
    return [
        ("eliminate_weakening", eliminate_weakening, translated),
        ("make_frugal", make_frugal, clean),
        ("is_frugal", is_frugal, frugal),
        ("translate_refutation", lambda d: translate_refutation(d, fm.base, XOR2), deriv),
        ("extract_pebbling", lambda d: extract_pebbling(d, g, XOR2), deriv),
        ("project_invariant_audit", lambda d: project_invariant_audit(d, fm.base, XOR2), deriv),
        ("resspace project", lambda d: _project(tmp_path, fm, d), deriv),
    ]


def test_each_reader_applies_each_step_once(pipeline, monkeypatch, tmp_path):
    _, _, deriv, translated, clean, frugal = pipeline
    # extraction reads the input, its translation, the weakening-free proof
    # and the frugal one, each once
    reads = {"extract_pebbling": [deriv, translated, clean, frugal]}
    applied = []  # the steps themselves, so that no id is reused
    real = proofs._apply

    def counted(config, step, k):
        applied.append(step)
        return real(config, step, k)

    monkeypatch.setattr(proofs, "_apply", counted)
    for name, reader, d in _readers(pipeline, tmp_path):
        applied.clear()
        reader(d)
        steps = sum(len(x.steps) for x in reads.get(name, [d]))
        assert len(applied) == steps, name
        assert max(collections.Counter(map(id, applied)).values()) == 1, name


def _corrupted(deriv, kind):
    """The derivation with one step, halfway through, made illegal: an
    erasure of an id never issued, or a cut whose consequence gains a
    fresh literal.  Returns it and the corrupted step's index."""
    half = len(deriv.steps) // 2
    if kind == "erasure":
        i, bad = half, Erasure(10**6)
    else:
        i = next(
            j for j in range(half, len(deriv.steps))
            if isinstance(deriv.steps[j], Inference) and deriv.steps[j].rule == "cut"
        )
        step = deriv.steps[i]
        fresh = max(deriv.formula.variables()) + 1
        formula = KDnfFormula(step.formula.terms + (Term([fresh]),), k=step.formula.k)
        bad = Inference(formula, step.rule, step.premises)
    steps = deriv.steps[:i] + (bad,) + deriv.steps[i + 1 :]
    return Derivation(deriv.formula, deriv.k, deriv.mode, steps), i


def _raised(call):
    with pytest.raises(ResspaceError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind", ["erasure", "inference"])
def test_a_corrupted_step_raises_in_every_reader(pipeline, kind, tmp_path, capsys):
    for name, reader, d in _readers(pipeline, tmp_path):
        bad, i = _corrupted(d, kind)
        want = _raised(lambda: replay(bad))
        seen = []
        assert _raised(lambda: seen.extend(t for t, _, _ in walk(bad))) == want
        assert seen == list(range(i + 1)), name  # the boards before the step
        if name == "resspace project":
            capsys.readouterr()
            assert reader(bad) != 0
            out, err = capsys.readouterr()
            assert [line.split()[0] for line in out.splitlines()] == [
                f"t={t}" for t in range(i + 1)
            ]
            assert want[1] in err
        else:
            assert _raised(lambda: reader(bad)) == want, name


def test_a_corrupted_step_after_the_empty_clause_still_raises(pipeline):
    """Translation stops projecting at the first projected empty clause and
    frugality stops keeping events at the first zero; both still check the
    steps that follow."""
    _, fm, deriv, _, clean, _ = pipeline
    for d, reader in [
        (deriv, lambda d: translate_refutation(d, fm.base, XOR2)),
        (clean, make_frugal),
    ]:
        assert replay(d).refuted
        late = Derivation(d.formula, d.k, d.mode, d.steps + (Erasure(10**6),))
        with pytest.raises(BadPremisesError, match="erasing missing id"):
            reader(late)


def test_a_proof_cut_before_the_empty_clause_is_not_a_refutation(pipeline):
    """The readers that need a refutation raise at the end of the walk when
    the empty clause never came."""
    _, fm, deriv, _, clean, frugal = pipeline
    for d, reader, error in [
        (deriv, lambda d: translate_refutation(d, fm.base, XOR2), InvalidInputError),
        (clean, make_frugal, NotARefutationError),
        (frugal, is_frugal, NotARefutationError),
    ]:
        cut = Derivation(d.formula, d.k, d.mode, d.steps[: replay(d).first_zero - 1])
        assert not replay(cut).refuted
        with pytest.raises(error):
            reader(cut)

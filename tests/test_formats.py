import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resspace import graphs
from resspace.errors import (
    CycleError,
    FormatError,
    IndegreeExceededError,
    InvalidParamError,
    MultipleSinksError,
)
from resspace.formats import (
    RULE_NAMES,
    clause_from_text,
    clause_to_text,
    cnf_from_dimacs,
    cnf_to_dimacs,
    derivation_from_text,
    derivation_to_text,
    dnf_from_text,
    dnf_to_text,
    graph_from_text,
    graph_to_text,
    kdnf_set_from_text,
    kdnf_set_to_text,
    parse_substitution_comment,
    pebbling_from_text,
    pebbling_to_text,
    substitution_comment,
)
from resspace.graphs import (
    make_graph,
    path_graph,
    pyramid_graph,
    topological_order,
    validate_dag,
)
from resspace.logic import Clause, CnfFormula, KDnfFormula, Term
from resspace.pebbling import MOVE_KINDS, Move
from resspace.proofs import SEMANTIC, SYNTACTIC, AxiomDownload, Derivation, Erasure, Inference


def test_dnf_text_round_trip():
    d = KDnfFormula([Term([1, 2]), Term([-3])], k=2)
    text = dnf_to_text(d)
    assert text == "-3|1^2"
    assert dnf_from_text(text, k=2) == d


def test_empty_dnf_token():
    assert dnf_to_text(KDnfFormula((), k=2)) == "F"
    assert dnf_from_text("F", k=3).is_empty()


def test_lone_integer_is_unit():
    assert dnf_from_text("-7", k=1) == KDnfFormula([Term([-7])], k=1)


def test_clause_text():
    c = Clause([2, -1])
    assert clause_to_text(c) == "-1|2"
    assert clause_from_text("-1|2") == c


def test_a_file_parses_each_term_text_once_and_keeps_its_errors():
    # tokens are read before literals are checked, as before
    with pytest.raises(FormatError, match="^bad literal token 'x'$"):
        dnf_from_text("0|x", k=1)
    text = PROOF_HEAD + "a 1\na -1\ni weak 1 : 1|2^3\ni weak 1 : 2^3|1\n"
    k2 = text.replace("k=1", "k=2")
    deriv = _proof_from_text(k2)
    assert deriv.steps[2].formula is deriv.steps[3].formula
    with pytest.raises(FormatError, match=r"^line 6: bad literal 0 in 'i weak 1 : 2\^3\|0'$"):
        _proof_from_text(k2 + "i weak 1 : 2^3|0\n")
    with pytest.raises(FormatError, match=r"^line 4: term \(2, 3\) wider than k=1 in "):
        _proof_from_text(text)
    with pytest.raises(FormatError, match=r"^line 3: term \(1, 2\) wider than k=1 in "):
        kdnf_set_from_text("p kdnf k=1 m=2\n1|2\n1^2\n")


def test_dnf_text_rejects_bad_tokens():
    with pytest.raises(FormatError, match="^bad literal token 'x'$"):
        dnf_from_text("1^x", k=2)
    with pytest.raises(FormatError, match="^bad literal token ''$"):
        dnf_from_text("1|", k=2)
    with pytest.raises(FormatError, match="^bad literal 0$"):
        dnf_from_text("0", k=1)
    with pytest.raises(FormatError, match="^bad literal 0$"):
        dnf_from_text("2|1^0", k=2)
    with pytest.raises(FormatError):
        dnf_from_text("1^2", k=1)  # term wider than k


def test_dimacs_round_trip():
    f = CnfFormula([[1, -2], [2, 3]])
    text = cnf_to_dimacs(f, comments=[substitution_comment("xor", 2, 3)])
    back, nvars, comments = cnf_from_dimacs(text)
    assert back == f
    assert nvars == 3
    assert parse_substitution_comment(comments) == ("xor", 2, 3)


def test_dimacs_deterministic():
    f = CnfFormula([[3, 1], [-2]])
    assert cnf_to_dimacs(f) == cnf_to_dimacs(CnfFormula([[-2], [1, 3]]))


def test_dimacs_errors():
    with pytest.raises(FormatError):
        cnf_from_dimacs("1 2 0\n")  # missing problem line
    with pytest.raises(FormatError):
        cnf_from_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause


def test_pebbling_trace_round_trip():
    moves = (Move("pb", 1), Move("pw", 3), Move("rw", 3), Move("rb", 1))
    text = pebbling_to_text(moves)
    assert text.splitlines() == ["pb 1", "pw 3", "rw 3", "rb 1"]
    assert pebbling_from_text("c comment\n" + text) == moves


def test_graph_round_trip():
    for g in (pyramid_graph(2), path_graph(1)):
        back = graph_from_text(graph_to_text(g))
        assert back.n == g.n
        assert sorted(back.edges) == sorted(g.edges)
        validate_dag(back)


def test_graph_vertex_count_comes_from_the_n_line():
    assert graph_from_text("c n=3 sink=3\ne 1 3\ne 2 3\n").n == 3
    with pytest.raises(FormatError, match="^line 1: "):
        graph_from_text("c n=x sink=3\ne 1 2\n")
    with pytest.raises(InvalidParamError, match="out of range"):
        graph_from_text("c n=2 sink=2\ne 1 2\ne 2 3\n")


def test_kdnf_set_round_trip():
    formulas = [
        KDnfFormula([Term([1, 2]), Term([3, 4])], k=2),
        KDnfFormula([Term([-1, -3])], k=2),
    ]
    text = kdnf_set_to_text(formulas, k=2)
    back, k = kdnf_set_from_text(text)
    assert k == 2
    assert back == formulas


@pytest.mark.parametrize("m", [0, 1, 3])
def test_kdnf_set_formula_count_must_match_header(m):
    with pytest.raises(FormatError, match=f"^declared {m} formulas, found 2$"):
        kdnf_set_from_text(f"p kdnf k=1 m={m}\n1\n-1\n")


def test_proof_trace_golden_bytes():
    from resspace.formats import derivation_to_text
    from resspace.logic import CnfFormula
    from resspace.proofs import DerivationBuilder

    f = CnfFormula([[1], [-1]])
    b = DerivationBuilder(f, k=1)
    x = b.download(Clause([1]))
    y = b.download(Clause([-1]))
    b.infer_clause("cut", [x, y], Clause())
    b.erase(x)
    text = derivation_to_text(b.build())
    assert text == "p proof k=1 mode=syntactic\na 1\na -1\ni cut 1 2 : F\ne 1\n"


def _proof_from_text(text):
    return derivation_from_text(text, CnfFormula([[1]]))


PROOF_HEAD = "p proof k=1 mode=syntactic\n"


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (cnf_from_dimacs, "p cnf 2 1\n1 x 0\n", 2),
        (cnf_from_dimacs, "c note\np cnf two 1\n1 0\n", 2),
        (pebbling_from_text, "pb 1\npb v\n", 2),
        (graph_from_text, "e 1 2\ne 2 y\n", 2),
        (kdnf_set_from_text, "p kdnf k=x m=1\n1\n", 1),
        (kdnf_set_from_text, "p kdnf m=1 n=2\n1\n", 1),
        (kdnf_set_from_text, "p kdnf k=1 n=1\n1\n", 1),
        (kdnf_set_from_text, "p kdnf k=0 m=1\n1\n", 1),
        (kdnf_set_from_text, "p kdnf k=-2 m=1\n1\n", 1),
        (kdnf_set_from_text, "p kdnf k=1 m=1\n1\np kdnf k=2 m=1\n", 3),
        (_proof_from_text, PROOF_HEAD + "a 1\ne abc\n", 3),
        (_proof_from_text, PROOF_HEAD + "i cut 1 z : F\n", 2),
        (_proof_from_text, PROOF_HEAD + "a 1^2\n", 2),
        (_proof_from_text, "p proof mode=syntactic x=1\n", 1),
        (_proof_from_text, "p proof k=1 modesyntactic\n", 1),
        (_proof_from_text, "p proof k=1 mode=bogus\na 1\n", 1),
        (_proof_from_text, "p proof k=0 mode=syntactic\na 1\n", 1),
        (_proof_from_text, PROOF_HEAD + "a 1\np proof k=2 mode=semantic\n", 3),
    ],
)
def test_malformed_lines_are_format_errors_with_line_numbers(parse, text, line):
    with pytest.raises(FormatError, match=f"^line {line}: "):
        parse(text)


def test_bad_substitution_comment_is_a_format_error():
    with pytest.raises(FormatError):
        parse_substitution_comment(["substitution f=xor d=two base_vars=3"])
    with pytest.raises(FormatError):
        parse_substitution_comment(["substitution f=xor base_vars=3"])


def test_graph_file_is_validated():
    with pytest.raises(CycleError, match="self-loop"):
        graph_from_text("e 1 1\n")
    with pytest.raises(CycleError, match="cycle"):
        graph_from_text("e 1 2\ne 2 3\ne 3 2\ne 3 4\n")


def test_graph_with_a_huge_declared_n_fails_fast(monkeypatch):
    # every vertex past the last edge endpoint is an isolated sink, so the
    # reader checks only the graph the edges span
    checked = []

    def spy(dag):
        checked.append(dag.n)
        return topological_order(dag)

    monkeypatch.setattr(graphs, "topological_order", spy)
    with pytest.raises(MultipleSinksError) as info:
        graph_from_text("c n=1000000\ne 1 2\n")
    assert checked == [2]
    assert str(info.value) == (
        "expected one sink, found 999999: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...]"
    )
    with pytest.raises(MultipleSinksError, match=r"found 3: \[2, 3, 4\]$"):
        graph_from_text("c n=4\ne 1 2\n")
    # the graph the edges span is checked first, as for a small n
    with pytest.raises(CycleError, match="self-loop"):
        graph_from_text("c n=1000000\ne 1 2\ne 3 3\n")
    with pytest.raises(IndegreeExceededError, match="vertex 3"):
        graph_from_text("c n=1000000\ne 1 3\ne 2 3\ne 4 3\n")
    with pytest.raises(CycleError, match="cycle"):
        graph_from_text("c n=1000000\ne 1 2\ne 2 1\n")


# --- round trips of every documented format on drawn values -----------------

ROUND_TRIP = settings(deadline=None, derandomize=True, database=None)
LITERALS = st.integers(1, 9).flatmap(lambda v: st.sampled_from((v, -v)))
IDS = st.integers(min_value=0)


def clauses():
    return st.lists(LITERALS, max_size=5).map(Clause)


@st.composite
def kdnfs(draw, k):
    """k-DNFs whose terms are non-empty (an empty term has no text form)."""
    terms = draw(st.lists(st.lists(LITERALS, min_size=1, max_size=k), max_size=4))
    return KDnfFormula(terms, k=k)


@ROUND_TRIP
@given(
    st.lists(clauses(), max_size=6),
    st.booleans(),
    st.integers(0, 3),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
def test_dimacs_round_trips_with_its_substitution_comment(
    cs, keep_trivial, extra_vars, name, d, base_vars
):
    formula = CnfFormula(cs, keep_trivial=keep_trivial)
    nvars = max(formula.variables(), default=0) + extra_vars
    comments = [substitution_comment(name, d, base_vars)]
    back, back_nvars, back_comments = cnf_from_dimacs(
        cnf_to_dimacs(formula, comments=comments, nvars=nvars)
    )
    assert (back, back_nvars, back_comments) == (formula, nvars, comments)
    assert parse_substitution_comment(back_comments) == (name, d, base_vars)


@st.composite
def derivations(draw):
    k = draw(st.integers(1, 3))
    step = st.one_of(
        clauses().map(AxiomDownload),
        st.builds(
            Inference,
            kdnfs(k),
            st.sampled_from(RULE_NAMES),
            st.lists(IDS, max_size=3).map(tuple),
        ),
        IDS.map(Erasure),
    )
    formula = CnfFormula(draw(st.lists(clauses(), max_size=3)))
    steps = tuple(draw(st.lists(step, max_size=8)))
    return Derivation(formula, k, draw(st.sampled_from((SYNTACTIC, SEMANTIC))), steps)


@ROUND_TRIP
@given(clauses())
def test_clause_text_is_the_text_of_its_1dnf(clause):
    assert clause_to_text(clause) == dnf_to_text(KDnfFormula.from_clause(clause))


@ROUND_TRIP
@given(derivations())
def test_proof_trace_round_trips(deriv):
    assert derivation_from_text(derivation_to_text(deriv), deriv.formula) == deriv


@ROUND_TRIP
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.lists(kdnfs(k), max_size=5))))
def test_kdnf_set_round_trips(drawn):
    k, formulas = drawn
    assert kdnf_set_from_text(kdnf_set_to_text(formulas, k=k)) == (formulas, k)


@ROUND_TRIP
@given(st.lists(st.builds(Move, st.sampled_from(MOVE_KINDS), st.integers(min_value=1)), max_size=8))
def test_pebbling_trace_round_trips(moves):
    assert pebbling_from_text(pebbling_to_text(moves)) == tuple(moves)


@ROUND_TRIP
@given(
    st.one_of(
        st.tuples(st.just("path"), st.integers(1, 12)),
        st.tuples(st.just("pyramid"), st.integers(1, 6)),
        st.tuples(st.just("binary_tree"), st.integers(1, 4)),
        st.tuples(st.just("bit_reversal"), st.integers(1, 4)),
    )
)
@example(("path", 1))
def test_graph_round_trips(spec):
    g = make_graph(*spec)
    back = graph_from_text(graph_to_text(g))
    # the format carries the vertex count and the edges, not the family
    # name or its indegree bound
    assert (back.n, back.edges) == (g.n, g.edges)


# --- arbitrary text either parses or raises a documented error -------------

_TOKENS = st.one_of(
    st.sampled_from(
        "p c cnf kdnf proof k=1 k=2 m=1 m=2 mode=syntactic mode=semantic a i e "
        "cut andi ande weak sem : F pb rb pw rw n=3 sink=3 0 substitution f=xor "
        "d=2 base_vars=3 ^ | 1^2 -1|2 =".split()
    ),
    st.integers(-4, 4).map(str),
    st.text(max_size=3),
)
_TEXTS = st.one_of(
    st.text(),
    st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=6).map("\n".join),
)


@pytest.mark.parametrize(
    "parse",
    [
        lambda text: dnf_from_text(text, 2),
        clause_from_text,
        cnf_from_dimacs,
        lambda text: parse_substitution_comment(text.splitlines()),
        _proof_from_text,
        pebbling_from_text,
        graph_from_text,
        kdnf_set_from_text,
    ],
    ids=["dnf", "clause", "dimacs", "substitution", "proof", "pebbling", "graph", "kdnf_set"],
)
def test_arbitrary_text_parses_or_raises_a_format_error(parse):
    # graph_from_text also validates the graph it read
    allowed = (FormatError,)
    if parse is graph_from_text:
        allowed += (InvalidParamError, MultipleSinksError, CycleError, IndegreeExceededError)

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(_TEXTS)
    def check(text):
        try:
            parse(text)
        except allowed:
            pass

    check()

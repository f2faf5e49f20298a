import collections
import random

import pytest

from resspace.errors import (
    BadPremisesError,
    NotAnAxiomError,
    NotARefutationError,
    NotImpliedError,
    RuleMismatchError,
    WidthExceededError,
)
from resspace.logic import (
    Clause,
    CnfFormula,
    KDnfFormula,
    Term,
    all_clauses_over,
    implies,
)
from resspace.proofs import (
    AxiomDownload,
    Configuration,
    Derivation,
    DerivationBuilder,
    Erasure,
    Inference,
    MeasureReport,
    check_refutation,
    derive_implied_clause,
    derive_implied_clauses,
    match_ande,
    match_andi,
    match_cut,
    replay,
    walk,
    zero_formula,
)
from reference import derive_implied_clauses as reference_derive_implied_clauses, inline


def dnf(terms, k=1):
    return KDnfFormula([Term(t) for t in terms], k=k)


def _boards(deriv):
    return [board.values() for _, _, board in walk(deriv)]


def _assert_inferences_implied(deriv):
    """Walk the derivation: every inference it accepts is implied by the
    board before it."""
    before = None
    for _, ev, board in walk(deriv):
        if ev is not None and ev.kind == "infer":
            assert implies(list(before), [ev.formula])
        before = board.values()


def test_resolution_cut_accepted():
    f = CnfFormula([[1, 2], [-1, 3]])
    b = DerivationBuilder(f, k=1)
    a = b.download(Clause([1, 2]))
    c = b.download(Clause([-1, 3]))
    b.infer_clause("cut", [a, c], Clause([2, 3]))
    log = replay(b.build())
    assert log.measures.length == 3


def test_cut_rejects_wrong_consequence():
    f = CnfFormula([[1, 2], [-1, 3]])
    b = DerivationBuilder(f, k=1)
    a = b.download(Clause([1, 2]))
    c = b.download(Clause([-1, 3]))
    b.steps.append(Inference(dnf([[2]]), "cut", (a, c)))
    with pytest.raises(RuleMismatchError):
        replay(b.build())


def test_kcut_multiliteral():
    # (x^y) v z  and  ~x v ~y v w  cut to  z v w
    d1 = dnf([[1, 2], [3]], k=2)
    d2 = dnf([[-1], [-2], [4]], k=2)
    cons = dnf([[3], [4]], k=2)
    deriv = Derivation(
        CnfFormula([]),
        2,
        "syntactic",
        (Inference(cons, "cut", (1, 2)),),
        assumptions=(d1, d2),
    )
    assert cons in _boards(deriv)[-1]


def test_kcut_needs_all_negated_literals():
    d1 = dnf([[1, 2], [3]], k=2)
    d2 = dnf([[-1], [4]], k=2)  # ~y missing
    deriv = Derivation(
        CnfFormula([]),
        2,
        "syntactic",
        (Inference(dnf([[3], [4]], k=2), "cut", (1, 2)),),
        assumptions=(d1, d2),
    )
    with pytest.raises(RuleMismatchError):
        replay(deriv)


def test_syntactic_steps_also_semantically_sound():
    # every accepted syntactic inference is implied by its configuration
    d = derive_implied_clause(
        [Clause([1, 2]), Clause([-1, 2]), Clause([-2])], Clause()
    )
    _assert_inferences_implied(d)


def test_and_introduction():
    f = CnfFormula([[1], [2]])
    a_t = dnf([[3], [1]], k=2)  # A v T with A = z, T = x
    a_t2 = dnf([[3], [2]], k=2)
    cons = dnf([[3], [1, 2]], k=2)
    deriv = Derivation(
        f,
        2,
        "syntactic",
        (
            AxiomDownload(Clause([1])),
            Inference(a_t, "weak", (1,)),
            AxiomDownload(Clause([2])),
            Inference(a_t2, "weak", (3,)),
            Inference(cons, "andi", (2, 4)),
        ),
    )
    assert cons in _boards(deriv)[-1]


def test_and_introduction_width_cap():
    f = CnfFormula([[1], [2]])
    deriv = Derivation(
        f,
        2,
        "syntactic",
        (
            AxiomDownload(Clause([1])),
            Inference(dnf([[1, 2]], k=2), "weak", (1,)),
        ),
    )
    with pytest.raises(RuleMismatchError):
        replay(deriv)  # weakening cannot drop the original unit term


def test_and_elimination():
    f = CnfFormula([[1], [2]])
    deriv = Derivation(
        f,
        2,
        "syntactic",
        (
            AxiomDownload(Clause([1])),
            AxiomDownload(Clause([2])),
            Inference(dnf([[1, 2]], k=2), "andi", (1, 2)),
            Inference(dnf([[1]], k=2), "ande", (3,)),
        ),
    )
    assert dnf([[1]], k=2) in _boards(deriv)[-1]


def test_semantic_step_zero_from_contradiction():
    f = CnfFormula([[1], [-1]])
    deriv = Derivation(
        f,
        1,
        "semantic",
        (
            AxiomDownload(Clause([1])),
            AxiomDownload(Clause([-1])),
            Inference(zero_formula(1), "sem", ()),
        ),
    )
    m = check_refutation(f, deriv)
    assert m.length == 3


def test_semantic_step_not_implied():
    f = CnfFormula([[1], [-1]])
    deriv = Derivation(
        f,
        1,
        "semantic",
        (AxiomDownload(Clause([1])), Inference(zero_formula(1), "sem", ())),
    )
    with pytest.raises(NotImpliedError):
        replay(deriv)


def test_semantic_list_all_clauses_refutation():
    # any unsatisfiable F with m clauses: list all clauses, derive 0
    for clauses in ([[1], [-1]], [[1, 2], [-1], [-2]], [[1, 2], [1, -2], [-1]]):
        f = CnfFormula(clauses)
        if not implies(list(f), [zero_formula(1)]):
            continue
        steps = [AxiomDownload(c) for c in f] + [Inference(zero_formula(1), "sem", ())]
        m = check_refutation(f, Derivation(f, 1, "semantic", tuple(steps)))
        assert m.length == len(f) + 1
        assert m.formula_space == len(f) + 1


def test_measures_hand_refutation():
    f = CnfFormula([[1], [-1]])
    deriv = Derivation(
        f,
        1,
        "syntactic",
        (
            AxiomDownload(Clause([1])),
            AxiomDownload(Clause([-1])),
            Inference(zero_formula(1), "cut", (1, 2)),
        ),
    )
    m = check_refutation(f, deriv)
    assert m.length == 3
    assert m.axiom_downloads == 2
    assert m.width == 1
    assert m.formula_space == 3
    assert m.total_space == 2
    assert m.variable_space == 1


def test_variable_space_at_most_total_space():
    rng = random.Random(11)
    for _ in range(30):
        clauses = [
            Clause(
                rng.sample([1, -1, 2, -2, 3, -3], rng.randint(1, 3))
            )
            for _ in range(3)
        ]
        f = CnfFormula(c for c in clauses if not c.is_trivial())
        if not len(f) or not implies(list(f), [zero_formula(1)]):
            continue
        steps = [AxiomDownload(c) for c in f] + [Inference(zero_formula(1), "sem", ())]
        m = check_refutation(f, Derivation(f, 1, "semantic", tuple(steps)))
        assert m.variable_space <= m.total_space


def test_not_an_axiom():
    f = CnfFormula([[1]])
    with pytest.raises(NotAnAxiomError):
        replay(Derivation(f, 1, "syntactic", (AxiomDownload(Clause([2])),)))


def test_bad_premises():
    f = CnfFormula([[1], [-1]])
    deriv = Derivation(
        f,
        1,
        "syntactic",
        (AxiomDownload(Clause([1])), Inference(zero_formula(1), "cut", (1, 7))),
    )
    with pytest.raises(BadPremisesError):
        replay(deriv)


def test_width_exceeded():
    f = CnfFormula([[1]])
    wide = KDnfFormula([Term([1, 2, 3])], k=3)
    deriv = Derivation(
        f, 2, "syntactic", (AxiomDownload(Clause([1])), Inference(wide, "weak", (1,)))
    )
    with pytest.raises(WidthExceededError):
        replay(deriv)


def test_erasure_and_refutation_flag():
    f = CnfFormula([[1], [-1]])
    deriv = Derivation(
        f,
        1,
        "syntactic",
        (AxiomDownload(Clause([1])), Erasure(1), AxiomDownload(Clause([-1]))),
    )
    log = replay(deriv)
    assert not log.refuted
    with pytest.raises(NotARefutationError):
        check_refutation(f, deriv)


# --- derive_implied_clause ------------------------------------------------


def test_derive_empty_from_unit_contradiction():
    d = derive_implied_clause([Clause([1]), Clause([-1])], Clause())
    m = check_refutation(d.formula, d)
    assert m.length == 3


def test_derive_present_clause():
    d = derive_implied_clause([Clause([1, 2])], Clause([1, 2]))
    log = replay(d)
    assert log.measures.length <= 3
    assert KDnfFormula.from_clause(Clause([1, 2])) in _boards(d)[-1]


def test_derive_not_implied():
    with pytest.raises(NotImpliedError):
        derive_implied_clause([Clause([1, 2])], Clause([1]))


def test_derive_eq21_partial():
    # the substituted clause set plus clauses fixing the x-block to false
    # under xor implies both clauses of the negated-y representation
    premises = [
        Clause([1, 2, 3, -4]),
        Clause([1, 2, -3, 4]),
        Clause([-1, -2, 3, -4]),
        Clause([-1, -2, -3, 4]),
        Clause([1, -2]),
        Clause([-1, 2]),
    ]
    target = Clause([3, -4])
    d = derive_implied_clause(premises, target)
    log = replay(d)
    assert KDnfFormula.from_clause(target) in _boards(d)[-1]
    n = 4
    assert log.measures.length <= (1 << (n + 1)) - 1
    assert log.measures.total_space <= n * (n + 2)


def test_derive_bounds_seeded():
    rng = random.Random(101)
    done = 0
    while done < 100:
        nv = rng.randint(1, 5)
        universe = all_clauses_over(range(1, nv + 1), max_width=min(3, nv))
        premises = [rng.choice(universe) for _ in range(rng.randint(1, 4))]
        target = rng.choice(universe + [Clause()])
        if target.is_trivial() or not implies(premises, [target]):
            continue
        d = derive_implied_clause(premises, target)
        log = replay(d)
        assert KDnfFormula.from_clause(target) in _boards(d)[-1]
        n = len(
            set().union(*(set(c.variables()) for c in premises), set(target.variables()))
        )
        n = max(n, 1)
        assert log.measures.length <= (1 << (n + 1)) - 1
        assert log.measures.total_space <= n * (n + 2)
        done += 1


def _in_place_against_spliced(premises, targets, bound_clauses):
    """Derive the targets in three ways onto boards that already hold the
    bound premises: in place; as one ``derive_implied_clause`` fragment per
    target spliced by ``reference.inline``; and by the reference walk,
    ``reference.derive_implied_clauses``, in place.  All three must append
    the same steps, return the same ids and leave the same board.  Returns
    the fragments and the bound ids."""
    formula = CnfFormula(premises)
    sides = []
    for _ in range(3):
        b = DerivationBuilder(formula, k=1)
        b.erase(b.download(premises[0]))  # bound ids need not start at 1
        sides.append((b, {c: b.download(c) for c in bound_clauses}))
    (b1, bound), (b2, _), (b3, _) = sides
    ids = derive_implied_clauses(b1, formula, targets, bound)
    frags = [derive_implied_clause(premises, t) for t in targets]
    spliced = []
    for frag in frags:
        idmap = inline(b2, frag, bound)
        spliced.append(idmap[max(idmap)])
    walked = reference_derive_implied_clauses(b3, formula, targets, bound)
    assert b1.steps == b2.steps == b3.steps
    assert ids == spliced == walked
    assert b1.live == b2.live == b3.live
    assert all(i in b1.live for i in bound.values())
    return frags, bound


def _skipped_erasures(frags, bound) -> int:
    """Erasures, in the fragments, of downloads of bound premises: the ones
    the in-place derivation leaves out."""
    count = 0
    for frag in frags:
        lines = [s for s in frag.steps if not isinstance(s, Erasure)]
        bound_ids = {
            i for i, s in enumerate(lines, 1)
            if isinstance(s, AxiomDownload) and s.clause in bound
        }
        count += sum(isinstance(s, Erasure) and s.target in bound_ids for s in frag.steps)
    return count


@pytest.mark.parametrize(
    "premises, targets, bound_clauses, skipped",
    [
        # a bound premise weakened into its lifted form: the fragment erases
        # its download after the weakening, the in-place derivation does not
        ([Clause([1, 2]), Clause([-1])], [Clause([2, 3]), Clause([1, 2, 3])],
         [Clause([1, 2])], 2),
        # a bound premise equal to its lifted form is cut as it stands
        ([Clause([1, 2]), Clause([-1, 2])], [Clause([2])], [Clause([1, 2])], 1),
        # the empty target, as in the compiler's last derivation
        ([Clause([1]), Clause([-1, 2]), Clause([-2])], [Clause()],
         [Clause([1]), Clause([-2])], 2),
        # repeated premises
        ([Clause([1, 2]), Clause([-1, 2]), Clause([1, 2]), Clause([-1, 2])],
         [Clause([2]), Clause([2, -3])], [Clause([-1, 2])], 2),
        # targets equal to unbound premises, as in a source's placement: each
        # is a single download
        ([Clause([1, 2]), Clause([-1, -2])], [Clause([1, 2]), Clause([-1, -2])], [], 0),
    ],
    ids=["lifted-bound", "bound-as-lifted", "empty-target", "repeated-premises",
         "unbound-premise-target"],
)
def test_in_place_derivation_matches_spliced_fragments(
    premises, targets, bound_clauses, skipped
):
    frags, bound = _in_place_against_spliced(premises, targets, bound_clauses)
    assert _skipped_erasures(frags, bound) == skipped


def test_in_place_derivation_matches_spliced_fragments_on_drawn_instances():
    """Premises over up to 5 variables, several implied targets (weakenings
    of premises, drawn clauses the premises imply, the empty clause when
    they are unsatisfiable) and a bound subset of the premises."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    seen = collections.Counter()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        nv = data.draw(st.integers(1, 5))
        universe = all_clauses_over(range(1, nv + 1), max_width=min(3, nv))
        premises = data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=6))
        premises += [Clause([1]), Clause([-1])] * data.draw(st.booleans())
        candidates = data.draw(st.lists(st.sampled_from(universe + [Clause()]), max_size=4))
        for c in data.draw(st.lists(st.sampled_from(premises), min_size=1, max_size=3)):
            extra = data.draw(st.lists(st.sampled_from(range(-nv - 1, nv + 2)), max_size=2))
            candidates.append(Clause(c.lits + tuple(l for l in extra if l)))
        targets = [
            t for t in dict.fromkeys(candidates)
            if not t.is_trivial() and implies(premises, [t])
        ]
        bound_clauses = data.draw(st.lists(st.sampled_from(premises), unique=True))
        frags, bound = _in_place_against_spliced(premises, targets, bound_clauses)
        seen["skipped erasure"] += _skipped_erasures(frags, bound) > 0
        seen["empty target"] += Clause() in targets
        seen["several targets"] += len(targets) > 1
        seen["repeated premises"] += len(set(premises)) < len(premises)
        seen["unbound premise target"] += any(
            t in premises and t not in bound for t in targets
        )

    check()
    assert all(seen[key] for key in (
        "skipped erasure", "empty target", "several targets", "repeated premises",
        "unbound premise target",
    )), seen


def test_trace_round_trip():
    from resspace.formats import derivation_from_text, derivation_to_text

    f = CnfFormula([[1], [-1]])
    d = derive_implied_clause([Clause([1]), Clause([-1])], Clause())
    d = Derivation(f, d.k, d.mode, d.steps)
    text = derivation_to_text(d)
    back = derivation_from_text(text, f)
    assert back == d
    assert derivation_to_text(back) == text


def test_checker_rejects_targeted_corruptions():
    from resspace.boolfunc import xor_function
    from resspace.compilers import compile_pebbling, pebbling_formula
    from resspace.graphs import path_graph
    from resspace.pebbling import trivial_black_pebbling
    from resspace.errors import ResspaceError

    g = path_graph(2)
    f = xor_function(2)
    fm = pebbling_formula(g, f)
    deriv = compile_pebbling(g, trivial_black_pebbling(g), f)

    # a download outside the formula
    bad = Derivation(
        fm.cnf, 1, "syntactic", (AxiomDownload(Clause([9])),) + deriv.steps
    )
    with pytest.raises(NotAnAxiomError):
        replay(bad)

    # erasing an id that is not live
    bad = Derivation(fm.cnf, 1, "syntactic", (Erasure(5),) + deriv.steps)
    with pytest.raises(BadPremisesError):
        replay(bad)

    # truncating before the empty clause appears
    log = replay(deriv)
    cut_at = log.first_zero - 1
    truncated = Derivation(fm.cnf, 1, "syntactic", deriv.steps[:cut_at])
    with pytest.raises(NotARefutationError):
        check_refutation(fm.cnf, truncated)


def test_checker_mutation_soundness():
    """Flipping literals in inference consequences either gets rejected or
    leaves a semantically sound step; seeded sweep over a compiled proof."""
    import random

    from resspace.boolfunc import xor_function
    from resspace.compilers import compile_pebbling, pebbling_formula
    from resspace.graphs import path_graph
    from resspace.pebbling import trivial_black_pebbling
    from resspace.errors import ResspaceError

    g = path_graph(2)
    f = xor_function(2)
    fm = pebbling_formula(g, f)
    deriv = compile_pebbling(g, trivial_black_pebbling(g), f)
    rng = random.Random(99)
    rejected = accepted = 0
    infer_positions = [
        i for i, s in enumerate(deriv.steps) if isinstance(s, Inference) and s.formula.terms
    ]
    for _ in range(60):
        pos = rng.choice(infer_positions)
        step = deriv.steps[pos]
        terms = [list(t.lits) for t in step.formula.terms]
        ti = rng.randrange(len(terms))
        li = rng.randrange(len(terms[ti]))
        terms[ti][li] = rng.choice([1, -1]) * rng.randint(1, 4)
        try:
            mutated_formula = KDnfFormula([Term(t) for t in terms], k=1)
        except ValueError:
            continue
        if mutated_formula == step.formula:
            continue
        steps = list(deriv.steps)
        steps[pos] = Inference(mutated_formula, step.rule, step.premises)
        mutant = Derivation(fm.cnf, 1, "syntactic", tuple(steps))
        try:
            _assert_inferences_implied(mutant)  # accepted mutants stay sound
        except ResspaceError:
            rejected += 1
            continue
        accepted += 1
    assert rejected > accepted


# --- incremental accounting against a from-scratch recount ------------------


def _from_scratch(deriv):
    """Configurations, step events, measures and first zero of a derivation
    that replay accepts, recomputed over the whole board after every step.
    An event is (kind, new_id, formula, premises, premise_values); an
    erasure's id and formula are those of the line it removes."""
    lines = {i: a.with_k(deriv.k) for i, a in enumerate(deriv.assumptions, 1)}
    next_id = len(lines) + 1
    configs = [frozenset(lines.values())]
    events = []
    length = downloads = 0
    for step in deriv.steps:
        if isinstance(step, Erasure):
            events.append(("erase", step.target, lines.pop(step.target), (), ()))
        else:
            length += 1
            if isinstance(step, AxiomDownload):
                downloads += 1
                lines[next_id] = KDnfFormula.from_clause(step.clause, k=deriv.k)
                events.append(("axiom", next_id, lines[next_id], (), ()))
            else:
                values = tuple(lines[p] for p in step.premises)
                lines[next_id] = step.formula.with_k(deriv.k)
                events.append(("infer", next_id, lines[next_id], step.premises, values))
            next_id += 1
        configs.append(frozenset(lines.values()))
    entered = set().union(*configs)
    max_terms = max((len(v.terms) for v in entered), default=0)
    max_size = max((v.size() for v in entered), default=0)
    k1 = deriv.k == 1
    measures = MeasureReport(
        length=length,
        axiom_downloads=downloads,
        formula_space=max(len(c) for c in configs),
        total_space=max(sum(v.size() for v in c) for c in configs),
        variable_space=max(
            len(frozenset().union(*(v.variables() for v in c))) for c in configs
        ),
        width=max_terms if k1 else None,
        max_terms=None if k1 else max_terms,
        max_formula_size=None if k1 else max_size,
    )
    zero = zero_formula(deriv.k)
    first_zero = next((t for t, c in enumerate(configs) if zero in c), None)
    return configs, events, measures, first_zero


def _assert_matches_scratch(deriv):
    """The replay's measures and the walk's boards and events against the
    recount; returns the log and the boards."""
    log = replay(deriv)
    configs, events, measures, first_zero = _from_scratch(deriv)
    assert log.measures == measures
    assert log.first_zero == first_zero
    walked = [(t, ev, board.values()) for t, ev, board in walk(deriv)]
    assert [t for t, _, _ in walked] == list(range(len(configs)))
    assert [board for _, _, board in walked] == configs
    assert walked[0][1] is None
    assert [
        (ev.kind, ev.new_id, ev.formula, ev.premises, ev.premise_values)
        for _, ev, _ in walked[1:]
    ] == events
    return log, [board for _, _, board in walked]


@pytest.mark.parametrize(
    "graph, fspec, k",
    [
        ("path:3", "xor:2", "1"),
        ("path:3", "xor:2", "d"),
        ("pyramid:3", "xor:2", "1"),
        ("pyramid:2", "maj:3", "d"),
        ("binary_tree:2", "xor:2", "d"),
        ("bit_reversal:1", "maj:3", "1"),
        ("path:2", "xor:3", "d"),
    ],
)
def test_measures_match_scratch_on_compiled_refutations(graph, fspec, k):
    from resspace.boolfunc import function_by_name
    from resspace.compilers import compile_pebbling, compile_pebbling_rk
    from resspace.graphs import make_graph
    from resspace.pebbling import trivial_black_pebbling

    family, _, param = graph.partition(":")
    dag = make_graph(family, int(param))
    name, _, d = fspec.partition(":")
    f = function_by_name(name, int(d))
    compile_fn = compile_pebbling_rk if k == "d" else compile_pebbling
    log, _ = _assert_matches_scratch(compile_fn(dag, trivial_black_pebbling(dag), f))
    assert log.refuted


def test_measures_match_scratch_on_seeded_derivations():
    d1 = dnf([[1, 2], [3]], k=2)
    d2 = dnf([[-1], [-2], [4]], k=2)
    cut = dnf([[3], [4]], k=2)
    steps = (
        Inference(cut, "cut", (1, 2)),
        Erasure(1),
        Inference(dnf([[3], [4], [5, 6]], k=2), "weak", (3,)),
        Erasure(2),
        Erasure(3),
    )
    log, boards = _assert_matches_scratch(
        Derivation(CnfFormula([]), 2, "syntactic", steps, assumptions=(d1, d2))
    )
    assert log.measures.formula_space == 3 and log.first_zero is None
    # a consequence written at a smaller k joins the board at the derivation's k
    log, boards = _assert_matches_scratch(
        Derivation(
            CnfFormula([]), 2, "syntactic", (Inference(dnf([[3], [4]]), "cut", (1, 2)),),
            assumptions=(d1, d2),
        )
    )
    assert cut in boards[1]
    # the seeded board is the peak when the steps only erase
    log, boards = _assert_matches_scratch(
        Derivation(CnfFormula([]), 2, "syntactic", (Erasure(2), Erasure(1)), assumptions=(d1, d2))
    )
    assert (log.measures.formula_space, log.measures.total_space) == (2, 6)
    assert (log.measures.variable_space, log.measures.max_terms) == (4, 3)
    # seeded duplicates: one value, two ids
    unit = dnf([[1]])
    log, boards = _assert_matches_scratch(
        Derivation(
            CnfFormula([[-1]]),
            1,
            "syntactic",
            (Erasure(1), AxiomDownload(Clause([-1])), Inference(zero_formula(1), "cut", (2, 3))),
            assumptions=(unit, unit),
        )
    )
    assert unit in boards[1] and log.first_zero == 3
    # a seeded zero is on the board before the first step
    log, boards = _assert_matches_scratch(
        Derivation(
            CnfFormula([[1]]),
            1,
            "syntactic",
            (Erasure(1), AxiomDownload(Clause([1]))),
            assumptions=(zero_formula(1),),
        )
    )
    assert log.first_zero == 0 and log.refuted
    assert zero_formula(1) not in boards[1]


def test_measures_match_scratch_when_an_erased_value_has_a_twin():
    f = CnfFormula([[1, 2], [-1], [-2]])
    pair = KDnfFormula.from_clause(Clause([1, 2]))
    steps = (
        AxiomDownload(Clause([1, 2])),  # 1
        AxiomDownload(Clause([1, 2])),  # 2: the same value again
        AxiomDownload(Clause([-1])),  # 3
        Erasure(1),  # the value stays through id 2
        Inference(dnf([[2]]), "cut", (2, 3)),  # 4
        Inference(dnf([[2]]), "weak", (4,)),  # 5: a twin made by inference
        Erasure(2),  # now the value leaves
        Erasure(4),
        AxiomDownload(Clause([-2])),  # 6
        Inference(zero_formula(1), "cut", (5, 6)),
    )
    log, boards = _assert_matches_scratch(Derivation(f, 1, "syntactic", steps))
    assert pair in boards[4] and pair not in boards[7]
    assert dnf([[2]]) in boards[8]
    assert boards[6] == {pair, dnf([[-1]]), dnf([[2]])}  # four live ids
    assert log.measures.formula_space == 4  # {~1, 2, ~2, 0} at the end
    assert log.measures.total_space == 4  # 1 v 2, ~1 and 2 count once each
    assert log.measures.variable_space == 2
    assert log.first_zero == len(steps)


def test_measures_match_scratch_on_random_semantic_derivations():
    rng = random.Random(2024)
    universe = all_clauses_over(range(1, 5), max_width=2)
    for trial in range(40):
        k = 1 + trial % 2
        f = CnfFormula(rng.sample(universe, 6))
        config = Configuration()
        steps = []
        while len(steps) < 14:
            roll = rng.random()
            if roll < 0.35:
                step = AxiomDownload(rng.choice(f.clauses))
            elif roll < 0.6 and config.lines:
                step = Erasure(rng.choice(sorted(config.lines)))
            else:
                width = rng.randint(0, 3)
                terms = [
                    [rng.choice([1, -1]) * v for v in rng.sample(range(1, 5), rng.randint(1, k))]
                    for _ in range(width)
                ]
                step = Inference(dnf(terms, k=k), "sem", ())
                if not implies(list(config.values()), [step.formula]):
                    continue
                if not step.formula.variables() <= f.variables() | frozenset().union(
                    *(v.variables() for v in config.values())
                ):
                    continue
            if isinstance(step, Erasure):
                config.pop(step.target)
            else:
                config.add(
                    step.formula
                    if isinstance(step, Inference)
                    else KDnfFormula.from_clause(step.clause, k=k)
                )
            steps.append(step)
        _assert_matches_scratch(Derivation(f, k, "semantic", tuple(steps)))


def test_measures_match_scratch_on_drawn_derivations():
    """Syntactic derivations drawn step by step through DerivationBuilder, at
    k = 1 and 2: axiom downloads, cuts of two live lines that clash on a unit
    term, weakenings and erasures of live ids.  Both refuting and
    non-refuting draws occur, and so do values held by two live ids."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def signed(variables):
        return st.tuples(*(st.sampled_from((v, -v)) for v in variables))

    def term(width):
        return st.lists(st.integers(1, 3), min_size=1, max_size=width, unique=True).flatmap(
            signed
        )

    seen = collections.Counter()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        k = data.draw(st.sampled_from((1, 2)))
        # a contradiction of two units now and then, so that some draws refute
        units = [(1,), (-1,)] * data.draw(st.booleans())
        formula = CnfFormula(data.draw(st.lists(term(3), min_size=1, max_size=5)) + units)
        b = DerivationBuilder(formula, k=k)
        twins = False
        for _ in range(data.draw(st.integers(0, 24))):
            live = sorted(b.live)
            cuts = [
                (p, n, t.lits[0])
                for p in live
                for n in live
                for t in b.value(p).terms
                if p != n and len(t) == 1 and Term([-t.lits[0]]) in b.value(n).terms
            ]
            kinds = ["axiom"] + ["erase", "weak"] * bool(live) + ["cut"] * 3 * bool(cuts)
            kind = data.draw(st.sampled_from(kinds))
            if kind == "axiom":
                b.download(data.draw(st.sampled_from(formula.clauses)))
            elif kind == "erase":
                b.erase(data.draw(st.sampled_from(live)))
            elif kind == "weak":
                i = data.draw(st.sampled_from(live))
                extra = data.draw(st.lists(term(k), max_size=2))
                b.infer("weak", [i], KDnfFormula(b.value(i).terms + tuple(extra), k=k))
            else:
                p, n, x = data.draw(st.sampled_from(cuts))
                terms = [t for t in b.value(p).terms if t != Term([x])]
                terms += [t for t in b.value(n).terms if t != Term([-x])]
                b.infer("cut", [p, n], KDnfFormula(terms, k=k))
            twins |= len(set(b.live.values())) < len(b.live)
        log, _ = _assert_matches_scratch(b.build())
        seen["refuting" if log.refuted else "not refuting"] += 1
        seen["twins"] += twins

    check()
    assert seen["refuting"] and seen["not refuting"] and seen["twins"], seen


def test_semantic_consequence_stays_over_board_and_formula_variables():
    f = CnfFormula([[1], [-1]])
    steps = (
        Inference(dnf([[5], [1]]), "sem", ()),  # 5 is on the board only
        Erasure(1),
        Inference(dnf([[5], [1], [-1]]), "sem", (2,)),
        Erasure(2),
        Erasure(3),
    )
    seeded = (dnf([[5]]),)
    _assert_matches_scratch(Derivation(f, 1, "semantic", steps, assumptions=seeded))
    late = Inference(dnf([[5], [-1]]), "sem", ())  # 5 has left the board
    with pytest.raises(RuleMismatchError, match="outside the board"):
        replay(Derivation(f, 1, "semantic", steps + (late,), assumptions=seeded))


def test_long_proof_measures_pinned():
    from resspace.boolfunc import function_by_name
    from resspace.compilers import compile_pebbling, compile_pebbling_rk, pebbling_formula
    from resspace.graphs import make_graph
    from resspace.pebbling import trivial_black_pebbling

    dag = make_graph("pyramid", 8)
    f = function_by_name("xor", 3)
    deriv = compile_pebbling(dag, trivial_black_pebbling(dag), f)
    assert check_refutation(pebbling_formula(dag, f).cnf, deriv) == MeasureReport(
        length=10271,
        axiom_downloads=2344,
        formula_space=47,
        total_space=170,
        variable_space=30,
        width=9,
    )
    dag = make_graph("pyramid", 10)
    f = function_by_name("maj", 3)
    deriv = compile_pebbling_rk(dag, trivial_black_pebbling(dag), f)
    assert check_refutation(pebbling_formula(dag, f).cnf, deriv) == MeasureReport(
        length=13758,
        axiom_downloads=1521,
        formula_space=51,
        total_space=368,
        variable_space=36,
        max_terms=9,
        max_formula_size=18,
    )


def test_check_refutation_memory_follows_the_board_not_the_length():
    """Checking keeps no per-step record: the 27,515-step k = d proof is
    checked in memory for its boards of at most 51 lines."""
    import tracemalloc

    from resspace.boolfunc import function_by_name
    from resspace.compilers import compile_pebbling_rk, pebbling_formula
    from resspace.graphs import make_graph
    from resspace.pebbling import trivial_black_pebbling

    dag = make_graph("pyramid", 10)
    f = function_by_name("maj", 3)
    deriv = compile_pebbling_rk(dag, trivial_black_pebbling(dag), f)
    formula = pebbling_formula(dag, f).cnf
    assert len(deriv.steps) == 27515
    tracemalloc.start()
    try:
        measures = check_refutation(formula, deriv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert measures.formula_space == 51
    assert peak < 1.5e6


def test_step_error_messages():
    f = CnfFormula([[1], [-1]])
    with pytest.raises(NotAnAxiomError, match=r"^step 1: clause \(7,\) is not an axiom$"):
        replay(Derivation(f, 1, "syntactic", (AxiomDownload(Clause([1])), AxiomDownload(Clause([7])))))
    with pytest.raises(BadPremisesError, match=r"^step 0: erasing missing id 3$"):
        replay(Derivation(f, 1, "syntactic", (Erasure(3),)))
    with pytest.raises(BadPremisesError, match=r"^step 0: premise 9 not on the board$"):
        replay(Derivation(f, 1, "syntactic", (Inference(zero_formula(1), "cut", (9, 9)),)))
    with pytest.raises(RuleMismatchError, match=r"^step 0: unknown step kind$"):
        replay(Derivation(f, 1, "syntactic", ("step",)))


# --- rule matchers against the formula-building reference ---------------------


def _ref_with(formula, extra):
    return KDnfFormula(formula.terms + (extra,), k=formula.k)


def _ref_without(formula, terms):
    drop = set(terms)
    return KDnfFormula([t for t in formula.terms if t not in drop], k=formula.k)


def _ref_match_cut(d1, d2, cons):
    d1t, d2t, et = set(d1.terms), set(d2.terms), set(cons.terms)
    if not et <= d1t | d2t:
        return None
    for t in d1.terms:
        negs = {Term([-a]) for a in t.lits}
        if not negs <= d2t:
            continue
        lower = (d1t - {t}) | (d2t - negs)
        if lower <= et:
            return t
    return None


def _ref_match_andi(d1, d2, cons, k):
    for t in d1.terms:
        for t2 in d2.terms:
            lits = set(t.lits) | set(t2.lits)
            if len(lits) > k:
                continue
            u = Term(lits)
            if u.is_trivial():
                candidates = [cons]
            elif u in cons:
                candidates = [_ref_without(cons, [u]), cons]
            else:
                continue
            for a in candidates:
                if _ref_with(a, t) == d1 and _ref_with(a, t2) == d2:
                    return t, t2
    return None


def _ref_match_ande(d1, cons):
    for t in d1.terms:
        for t2 in cons.terms:
            if not t2.is_subterm_of(t):
                continue
            for a in (_ref_without(cons, [t2]), cons):
                if _ref_with(a, t) == d1:
                    return t, t2
    return None


def _random_term(rng, k, nvars=4):
    vs = rng.sample(range(1, nvars + 1), rng.randint(1, k))
    return Term(rng.choice((1, -1)) * v for v in vs)


def _rule_instance(rng, rule, k):
    """Premises and consequence of one well-formed application of the rule;
    the shared terms are drawn over few variables, so they often collide
    with the rule's own terms."""
    shared = [_random_term(rng, k) for _ in range(rng.randint(0, 3))]
    if rule == "andi":
        while True:
            t, t2 = _random_term(rng, k), _random_term(rng, k)
            lits = set(t.lits) | set(t2.lits)
            if len(lits) <= k:
                break
        return (
            KDnfFormula(shared + [t], k=k),
            KDnfFormula(shared + [t2], k=k),
            KDnfFormula(shared + [Term(lits)], k=k),
        )
    if rule == "ande":
        t = _random_term(rng, k)
        sub = Term(rng.sample(t.lits, rng.randint(0, len(t))))
        return KDnfFormula(shared + [t], k=k), None, KDnfFormula(shared + [sub], k=k)
    t = _random_term(rng, k)
    other = [_random_term(rng, k) for _ in range(rng.randint(0, 2))]
    negs = [Term([-a]) for a in t.lits]
    kept = [x for x in [t] + negs if rng.random() < 0.2]  # up to d1 u d2
    return (
        KDnfFormula(shared + [t], k=k),
        KDnfFormula(other + negs, k=k),
        KDnfFormula(shared + other + kept, k=k),
    )


def _mutated(rng, triple, k):
    """The triple with a term dropped, added or widened in one of its
    formulas, or with its premises swapped; None if the edit is not a k-DNF."""
    d1, d2, cons = triple
    how = rng.choice(("drop", "add", "widen", "swap"))
    if how == "swap":
        return (d2, d1, cons) if d2 is not None else None
    slot = rng.choice([i for i, f in enumerate(triple) if f is not None])
    terms = list(triple[slot].terms)
    if how == "add":
        terms.append(_random_term(rng, k))
    elif not terms:
        return None
    elif how == "drop":
        terms.pop(rng.randrange(len(terms)))
    else:
        i = rng.randrange(len(terms))
        terms[i] = Term(terms[i].lits + (rng.choice((1, -1)) * rng.randint(1, 4),))
    try:
        edited = KDnfFormula(terms, k=k)
    except ValueError:
        return None
    out = list(triple)
    out[slot] = edited
    return tuple(out)


def test_matchers_agree_with_formula_building_reference():
    # seeded well-formed and mutated premise/consequence triples, all at one
    # k as on a board: identical results, None included, in both premise
    # orders; the cut pivot depends on which term comes back
    rng = random.Random(2024)
    results = {"andi": [], "ande": [], "cut": []}
    for _ in range(1500):
        rule, k = rng.choice(sorted(results)), rng.randint(1, 3)
        triple = _rule_instance(rng, rule, k)
        cases = [triple] + [_mutated(rng, triple, k) for _ in range(3)]
        for d1, d2, cons in filter(None, cases):
            got = match_ande(d1, cons)
            assert got == _ref_match_ande(d1, cons)
            results["ande"].append(got)
            if d2 is None:
                continue
            for p, q in ((d1, d2), (d2, d1)):
                got = match_andi(p, q, cons, k)
                assert got == _ref_match_andi(p, q, cons, k)
                results["andi"].append(got)
                got = match_cut(p, q, cons)
                assert got == _ref_match_cut(p, q, cons)
                results["cut"].append(got)
    for rule, got in results.items():
        matched = sum(r is not None for r in got)
        assert 0.1 < matched / len(got) < 0.9, rule

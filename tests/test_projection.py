import collections
import itertools

import numpy as np
import pytest

from resspace.boolfunc import BooleanFunction, or_function, xor_function
from resspace.compilers import compile_pebbling, compile_pebbling_rk, pebbling_formula
from resspace.errors import (
    AuthoritarianFunctionError,
    CapExceededError,
    InvalidParamError,
)
from resspace.graphs import bit_reversal_graph, path_graph, pyramid_graph
from resspace.logic import Clause, CnfFormula, KDnfFormula, Term, implies

from resspace.pebbling import trivial_black_pebbling, validate_pebbling
from resspace.projection import (
    Projector,
    extract_pebbling,
    project_invariant_audit,
    shared_projector,
    translate_refutation,
)
from resspace.proofs import check_refutation, replay, walk
from resspace.transforms import eliminate_weakening, is_frugal, make_frugal
from reference import minterm_dnf

XOR2 = xor_function(2)
EQ21 = [
    Clause([1, 2, 3, -4]),
    Clause([1, 2, -3, 4]),
    Clause([-1, -2, 3, -4]),
    Clause([-1, -2, -3, 4]),
]
BASE_XY = CnfFormula([[1, -2]])


def project(formulas, base_formula: CnfFormula, f: BooleanFunction, mode="subset"):
    """Projected clauses of a single configuration; see Projector.project."""
    return Projector(base_formula, f).project(formulas, mode=mode)


def test_project_eq21_gives_back_the_clause():
    got = project(EQ21, BASE_XY, XOR2, mode="subset")
    assert got == frozenset({Clause([1, -2])})


def test_project_empty_configuration():
    assert project([], BASE_XY, XOR2) == frozenset()


def test_project_single_positive_clause_nothing():
    assert project([Clause([1, 2])], BASE_XY, XOR2) == frozenset()


def test_project_block_clauses_give_unit():
    # clauses fixing f(x-block) true project the unit clause x
    got = project([Clause([1, 2]), Clause([-1, -2])], BASE_XY, XOR2)
    assert got == frozenset({Clause([1])})


def test_project_contradiction_projects_empty_clause():
    got = project([Clause([1]), Clause([-1])], BASE_XY, XOR2)
    assert Clause() in got


def test_project_whole_set_weaker_than_subset():
    # whole-set projection misses clauses that only a strict subset implies
    # precisely: adding an unrelated constraint spoils minimality
    config = EQ21 + [Clause([1])]
    sub = project(config, BASE_XY, XOR2, mode="subset")
    whole = project(config, BASE_XY, XOR2, mode="whole_set")
    assert Clause([1, -2]) in sub
    assert whole <= sub


def test_subset_projection_matches_definitional_enumeration():
    """The witness-combination search agrees with literally enumerating all
    subsets and checking precise implication by brute force."""
    f = XOR2
    base = CnfFormula([[1, -2], [2]])
    pool = [
        Clause([1, 2]),
        Clause([-1, -2]),
        Clause([1, 2, 3, -4]),
        Clause([-1, -2, -3, 4]),
        Clause([3, 4]),
        Clause([-3]),
    ]
    import random

    rng = random.Random(23)
    for _ in range(12):
        config = rng.sample(pool, rng.randint(1, 4))
        got = project(config, base, f, mode="subset")
        want = set()
        base_vars = sorted(base.variables())
        for width in range(0, len(base_vars) + 1):
            for combo in itertools.combinations(base_vars, width):
                for signs in itertools.product((1, -1), repeat=width):
                    c = Clause([s * v for s, v in zip(signs, combo)])
                    if _definitional_projected(config, c, f):
                        want.add(c)
        assert got == frozenset(want), (config, sorted(got), sorted(want))


def _definitional_projected(config, clause, f):
    def target_formulas(c):
        return [
            minterm_dnf(f, abs(l), positive=l > 0).with_k(f.d) for l in c.lits
        ]

    def implies_target(subset, c):
        if not c.lits:
            return implies(list(subset), [KDnfFormula((), k=f.d)])
        # the target is a disjunction of the per-literal DNFs
        terms = [t for d in target_formulas(c) for t in d.terms]
        return implies(list(subset), [KDnfFormula(terms, k=f.d)])

    members = sorted(set(config))
    for r in range(1, len(members) + 1):
        for subset in itertools.combinations(members, r):
            if not implies_target(subset, clause):
                continue
            if all(
                not implies_target(subset, clause.without(l)) for l in clause.lits
            ):
                return True
    return False


# --- translation -----------------------------------------------------------


def _pipeline(g, f, moves=None):
    moves = moves or trivial_black_pebbling(g)
    fm = pebbling_formula(g, f)
    deriv = compile_pebbling(g, moves, f)
    return fm, deriv


def _boards(deriv):
    return [board.values() for _, _, board in walk(deriv)]


def test_translate_projected_sequence_endpoints():
    g = pyramid_graph(1)
    fm, deriv = _pipeline(g, XOR2)
    res = translate_refutation(deriv, fm.base, XOR2)
    assert res.projected[0] == frozenset()
    assert Clause() in res.projected[-1]
    m = check_refutation(fm.base, res.derivation)
    assert m.length >= 1


def test_translate_download_budget():
    for g in (path_graph(2), path_graph(3), pyramid_graph(1)):
        fm, deriv = _pipeline(g, XOR2)
        m_in = check_refutation(fm.cnf, deriv)
        res = translate_refutation(deriv, fm.base, XOR2)
        m_out = check_refutation(fm.base, res.derivation)
        assert m_out.axiom_downloads <= m_in.axiom_downloads


def test_translate_variable_space_bound():
    g = path_graph(3)
    fm, deriv = _pipeline(g, XOR2)
    res = translate_refutation(deriv, fm.base, XOR2)
    log = replay(res.derivation)
    bound = max(
        (
            len(set().union(*(set(c.variables()) for c in proj), set()))
            for proj in res.projected
        ),
        default=0,
    )
    assert log.measures.variable_space <= bound


def test_translate_then_eliminate_weakening():
    g = path_graph(2)
    fm, deriv = _pipeline(g, XOR2)
    res = translate_refutation(deriv, fm.base, XOR2)
    clean = eliminate_weakening(res.derivation)
    m = check_refutation(fm.base, clean)
    assert is_frugal(make_frugal(clean))
    assert m.length >= 1


def test_translate_identity_substitution():
    # the d=1 identity case runs through the same projection machinery
    from resspace.boolfunc import identity_function

    g = path_graph(2)
    fid = identity_function()
    fm, deriv = _pipeline(g, fid)
    res = translate_refutation(deriv, fm.base, fid)
    m = check_refutation(fm.base, res.derivation)
    assert m.axiom_downloads <= check_refutation(fm.cnf, deriv).axiom_downloads


def test_translate_semantic_input():
    # a semantic refutation of F[f]: list all clauses, derive 0
    from resspace.proofs import AxiomDownload, Derivation, Inference, zero_formula

    g = path_graph(2)
    fm = pebbling_formula(g, XOR2)
    steps = [AxiomDownload(c) for c in fm.cnf] + [
        Inference(zero_formula(1), "sem", ())
    ]
    deriv = Derivation(fm.cnf, 1, "semantic", tuple(steps))
    res = translate_refutation(deriv, fm.base, XOR2)
    m = check_refutation(fm.base, res.derivation)
    assert m.axiom_downloads <= len(fm.cnf)


# --- extraction --------------------------------------------------------------


def test_extract_round_trip_bounds():
    for g in (path_graph(2), pyramid_graph(1), bit_reversal_graph(1)):
        fm, deriv = _pipeline(g, XOR2)
        m = check_refutation(fm.cnf, deriv)
        ex = extract_pebbling(deriv, g, XOR2, require_space_bound=True)
        metrics = validate_pebbling(g, ex.moves)
        ell = max(g.indegree(v) for v in range(1, g.n + 1))
        assert metrics.space == ex.space <= m.formula_space
        assert metrics.time == ex.time <= (ell + 1) * m.axiom_downloads


def test_extract_identity_path():
    g = path_graph(2)
    deriv = compile_pebbling(g, trivial_black_pebbling(g))
    m = check_refutation(pebbling_formula(g).cnf, deriv)
    ex = extract_pebbling(deriv, g)
    validate_pebbling(g, ex.moves)
    assert ex.time <= 2 * m.length  # indegree 1


def test_extract_configuration_translation_rule():
    # downloading the sink axiom alone leaves a white pebble on the sink,
    # then the propagation axiom turns the vertices black
    from resspace.pebbling import Move
    from resspace.proofs import DerivationBuilder

    g = path_graph(2)
    fm = pebbling_formula(g)
    b = DerivationBuilder(fm.base, k=1)
    sink = b.download(Clause([-2]))
    prop = b.download(Clause([-1, 2]))
    partial = b.infer_clause("cut", [sink, prop], Clause([-1]))
    b.erase(prop)
    b.erase(sink)
    src = b.download(Clause([1]))
    b.infer_clause("cut", [src, partial], Clause())
    deriv = b.build()
    ex = extract_pebbling(deriv, g)
    metrics = validate_pebbling(g, ex.moves)
    assert ex.moves[0] == Move("pw", 2)  # the negative-only sink goes white
    assert metrics.space <= ex.frugal_variable_space + 1


@pytest.mark.parametrize(
    "graph, fspec",
    [("pyramid:1", "xor:2"), ("pyramid:2", "xor:2"), ("pyramid:2", "maj:3"),
     ("path:2", "identity")],
)
def test_frugal_variable_space_is_the_frugal_replays(graph, fspec):
    """Extraction reads the frugal proof's variable space off the boards it
    walks; on the CLI pipeline's instances it is the variable space that
    the frugal proof's replay measures."""
    from resspace.cli import _parse_function, _parse_graph

    g, f = _parse_graph(graph), _parse_function(fspec)
    deriv = compile_pebbling(g, trivial_black_pebbling(g), f)
    base_deriv = deriv
    if f.name != "identity":
        base_deriv = translate_refutation(deriv, pebbling_formula(g, f).base, f).derivation
    frugal = make_frugal(eliminate_weakening(base_deriv))
    ex = extract_pebbling(deriv, g, f)
    assert ex.frugal_variable_space == replay(frugal).measures.variable_space


def test_extract_requires_nonauthoritarian_for_space_bound():
    g = path_graph(2)
    fm, deriv = _pipeline(g, XOR2)
    with pytest.raises(AuthoritarianFunctionError):
        extract_pebbling(deriv, g, or_function(2), require_space_bound=True)


def test_extract_space_within_bw_price():
    from resspace.pebbling import search_min_space

    for g in (path_graph(2), path_graph(3), pyramid_graph(1)):
        fm, deriv = _pipeline(g, XOR2)
        m = check_refutation(fm.cnf, deriv)
        bw, _ = search_min_space(g, "black_white")
        assert m.formula_space >= bw  # Sp(pi) >= BW-Peb(G)


# --- audit -------------------------------------------------------------------


def test_audit_no_violations_on_pipeline():
    g = pyramid_graph(1)
    fm, deriv = _pipeline(g, XOR2)
    rep = project_invariant_audit(deriv, fm.base, XOR2)
    assert rep.ok
    assert rep.audited > 0


def test_audit_eq21_arithmetic():
    # |D| = 4 exceeds the 2 projected variables of {x v ~y}
    got = project(EQ21, BASE_XY, XOR2)
    vs = set().union(*(set(c.variables()) for c in got))
    assert len(EQ21) > len(vs)


def test_audit_authoritarian_rejected():
    g = path_graph(2)
    fm, deriv = _pipeline(g, XOR2)
    with pytest.raises(AuthoritarianFunctionError):
        project_invariant_audit(deriv, fm.base, or_function(2))


def test_round_trip_arity_three_functions():
    from resspace.boolfunc import is_k_non_authoritarian, majority_function, xor_function

    g = path_graph(2)
    for f in (xor_function(3), majority_function(3)):
        fm = pebbling_formula(g, f)
        deriv = compile_pebbling(g, trivial_black_pebbling(g), f)
        m = check_refutation(fm.cnf, deriv)
        assert is_k_non_authoritarian(f, 1)
        ex = extract_pebbling(deriv, g, f, require_space_bound=True)
        metrics = validate_pebbling(g, ex.moves)
        assert metrics.space <= m.formula_space
        assert metrics.time <= 2 * m.axiom_downloads  # indegree 1


def test_compile_deterministic_bytes():
    from resspace.formats import derivation_to_text

    g = pyramid_graph(1)
    a = compile_pebbling(g, trivial_black_pebbling(g), XOR2)
    b = compile_pebbling(g, trivial_black_pebbling(g), XOR2)
    assert derivation_to_text(a) == derivation_to_text(b)


def test_extract_deterministic():
    from resspace.formats import pebbling_to_text

    g = pyramid_graph(1)
    deriv = compile_pebbling(g, trivial_black_pebbling(g), XOR2)
    a = extract_pebbling(deriv, g, XOR2)
    b = extract_pebbling(deriv, g, XOR2)
    assert pebbling_to_text(a.moves) == pebbling_to_text(b.moves)


def test_round_trip_bit_reversal_two():
    # the largest pipeline fixture: eight original variables, sixteen after
    # substitution; the extraction recovers a pebbling at the graph's price
    from resspace.pebbling import search_min_space

    g = bit_reversal_graph(2)
    _, moves = search_min_space(g, "black")
    fm = pebbling_formula(g, XOR2)
    deriv = compile_pebbling(g, moves, XOR2)
    m = check_refutation(fm.cnf, deriv)
    ex = extract_pebbling(deriv, g, XOR2, require_space_bound=True)
    metrics = validate_pebbling(g, ex.moves)
    assert metrics.space <= m.formula_space
    assert metrics.time <= 3 * m.axiom_downloads


def _random_dag(rng, n):
    from resspace.graphs import Dag, validate_dag

    while True:
        edges = []
        for v in range(2, n + 1):
            k = rng.randint(1 if v == n else 0, 2)
            preds = rng.sample(range(1, v), min(k, v - 1))
            edges.extend((u, v) for u in preds)
        # route stray sinks into the last vertex
        g = Dag(n=n, edges=tuple(set(edges)))
        succs = {u for u, _ in g.edges}
        for v in range(1, n):
            if v not in succs and g.indegree(n) < 2:
                edges.append((v, n))
                g = Dag(n=n, edges=tuple(set(edges)))
                succs = {u for u, _ in g.edges}
        try:
            validate_dag(g)
            return g
        except Exception:
            continue


def test_round_trip_random_dags():
    import random

    rng = random.Random(77)
    for _ in range(12):
        g = _random_dag(rng, rng.randint(2, 6))
        moves = trivial_black_pebbling(g)
        fm = pebbling_formula(g, XOR2)
        deriv = compile_pebbling(g, moves, XOR2)
        m = check_refutation(fm.cnf, deriv)
        ell = max(g.indegree(v) for v in range(1, g.n + 1))
        assert m.width <= 2 * (ell + 1)
        ex = extract_pebbling(deriv, g, XOR2, require_space_bound=True)
        metrics = validate_pebbling(g, ex.moves)
        assert metrics.space <= m.formula_space
        assert metrics.time <= (ell + 1) * m.axiom_downloads


def test_whole_set_projection_matches_definition():
    import itertools
    import random

    from resspace.logic import KDnfFormula as KD, implies

    f = XOR2
    base = CnfFormula([[1, -2], [2]])
    pool = [
        Clause([1, 2]),
        Clause([-1, -2]),
        Clause([1, 2, 3, -4]),
        Clause([-1, -2, -3, 4]),
        Clause([3, 4]),
    ]
    rng = random.Random(41)

    def target_of(c):
        terms = [
            t
            for l in c.lits
            for t in minterm_dnf(f, abs(l), positive=l > 0).terms
        ]
        return KD(terms, k=f.d)

    for _ in range(10):
        config = rng.sample(pool, rng.randint(1, 4))
        got = project(config, base, f, mode="whole_set")
        want = set()
        for width in range(0, 3):
            for combo in itertools.combinations(sorted(base.variables()), width):
                for signs in itertools.product((1, -1), repeat=width):
                    c = Clause([s * v for s, v in zip(signs, combo)])
                    holds = (
                        implies(config, [KD((), k=f.d)])
                        if not c.lits
                        else implies(config, [target_of(c)])
                    )
                    if not holds:
                        continue
                    if all(
                        not implies(
                            config,
                            [target_of(c.without(l))]
                            if c.without(l).lits
                            else [KD((), k=f.d)],
                        )
                        for l in c.lits
                    ):
                        want.add(c)
        assert got == frozenset(want)


# --- the base-point kernel against the definition ---------------------------


def _projection_by_definition(config, f, mode):
    """Projected clauses computed from the definition: truth tables over all
    assignments to the blocks the configuration mentions, every subset of
    the configuration (subset mode) or the configuration itself, and every
    clause over the mentioned original variables."""
    d = f.d
    members = sorted(set(config))
    shadow = sorted({(v - 1) // d + 1 for m in members for v in m.variables()})
    subs = [d * (x - 1) + j for x in shadow for j in range(1, d + 1)]
    size = 1 << len(subs)
    everything = (1 << size) - 1
    col = {
        v: sum(1 << a for a in range(size) if a >> i & 1) for i, v in enumerate(subs)
    }

    def lit(l):
        return col[l] if l > 0 else everything ^ col[-l]

    def truth(m):
        if isinstance(m, Clause):
            out = 0
            for l in m.lits:
                out |= lit(l)
            return out
        out = 0
        for t in m.terms:
            tt = everything
            for l in t.lits:
                tt &= lit(l)
            out |= tt
        return out

    def f_value(x, a):
        block = [d * (x - 1) + j for j in range(1, d + 1)]
        return f.table[sum((a >> subs.index(v) & 1) << j for j, v in enumerate(block))]

    fval = {x: sum(1 << a for a in range(size) if f_value(x, a)) for x in shadow}

    def target(lits):
        out = 0
        for l in lits:
            out |= fval[l] if l > 0 else everything ^ fval[-l]
        return out

    tables = [truth(m) for m in members]
    if mode == "subset":
        sats = {everything}
        for tt in tables:
            sats |= {s & tt for s in sats}
    else:
        sats = {everything}
        for tt in tables:
            sats = {s & tt for s in sats}

    out = set()
    for width in range(len(shadow) + 1):
        for combo in itertools.combinations(shadow, width):
            for signs in itertools.product((1, -1), repeat=width):
                c = tuple(s * x for s, x in zip(signs, combo))
                goal = target(c)
                weaker = [target(c[:i] + c[i + 1 :]) for i in range(width)]
                if any(
                    not sat & ~goal & everything
                    and all(sat & ~w & everything for w in weaker)
                    for sat in sats
                ):
                    out.add(Clause(c))
    return frozenset(out)


def test_definition_oracle_on_eq21():
    assert _projection_by_definition(EQ21, XOR2, "subset") == {Clause([1, -2])}


@pytest.mark.parametrize("mode", ["subset", "whole_set"])
def test_tautological_member_projects_nothing_extra(mode):
    """A tautology, which a weakening step may derive, holds everywhere."""
    base = CnfFormula([[1]])
    config = [Clause([1, -1, -2]), Clause([1, 2])]
    got = project(config, base, XOR2, mode=mode)
    assert got == project([Clause([1, 2])], base, XOR2, mode=mode)
    assert got == _projection_by_definition(config, XOR2, mode)
    assert Clause([1]) not in got


ARITY_THREE = [
    pytest.param("xor", id="xor3"),
    pytest.param("maj", id="maj3"),
]


def _arity_three(name):
    from resspace.boolfunc import majority_function

    return xor_function(3) if name == "xor" else majority_function(3)


@pytest.mark.parametrize("mode", ["subset", "whole_set"])
@pytest.mark.parametrize("fname", ARITY_THREE)
def test_projection_matches_definition_over_three_or_four_blocks(fname, mode):
    """Seeded configurations over three or four original variables: the
    substitutions of a few base clauses, cut down to 12-14 members when
    larger, a stray clause over the blocks and a tautological clause, as a
    weakening step may derive."""
    import random

    from resspace.boolfunc import substitute_clause

    f = _arity_three(fname)
    rng = random.Random(f"{fname} {mode}")
    nonempty = tested = 0
    for _ in range(16):
        nbase = rng.choice((3, 4))
        config = []
        for _ in range(rng.randint(2, 3)):
            vs = rng.sample(range(1, nbase + 1), rng.choice((1, 1, 1, 2)))
            base_clause = Clause([v if rng.random() < 0.5 else -v for v in vs])
            config += substitute_clause(base_clause, f)
        config = rng.sample(config, min(len(config), rng.choice((12, 13, 14))))
        stray = rng.sample(range(1, 3 * nbase + 1), 2)
        config.append(Clause([v if rng.random() < 0.5 else -v for v in stray]))
        v, w = rng.sample(range(1, 3 * nbase + 1), 2)
        config.append(Clause([v, -v, w if rng.random() < 0.5 else -w]))
        shadow = {(v - 1) // 3 + 1 for c in config for v in c.variables()}
        if len(shadow) < 3:
            continue
        base = CnfFormula([[v] for v in range(1, nbase + 1)])
        got = project(config, base, f, mode=mode)
        assert got == _projection_by_definition(config, f, mode), config
        nonempty += bool(got)
        tested += 1
    assert tested >= 8 and nonempty >= 4  # the sample exercises the kernel


@pytest.mark.parametrize(
    "graph, fname, widest",
    [("pyramid:1", "maj", 3), ("path:3", "xor", 2), ("pyramid:2", "maj", 4)],
    ids=["pyramid1-maj3", "path3-xor3", "pyramid2-maj3"],
)
def test_projection_matches_definition_on_compiled_configurations(
    graph, fname, widest
):
    """Seeded configurations of compiled refutations: resolution ones in
    subset mode, k-DNF ones (k = d) in whole-set mode."""
    import random

    from resspace.compilers import compile_pebbling_rk
    from resspace.graphs import make_graph

    f = _arity_three(fname)
    family, _, param = graph.partition(":")
    g = make_graph(family, int(param))
    fm = pebbling_formula(g, f)
    rng = random.Random(graph)

    def shadow_size(cfg):
        return len({(v - 1) // 3 + 1 for m in cfg for v in m.variables()})

    seen = 0
    for compiler, mode, max_lines in (
        (compile_pebbling, "subset", 9),
        (compile_pebbling_rk, "whole_set", 16),
    ):
        configs = sorted(
            {
                cfg
                for cfg in _boards(compiler(g, trivial_black_pebbling(g), f))
                if cfg and len(cfg) <= max_lines
            },
            key=lambda cfg: sorted(cfg),
        )
        most = max(shadow_size(c) for c in configs)
        widest_configs = [c for c in configs if shadow_size(c) == most]
        sample = rng.sample(configs, 6) + widest_configs[:2]
        seen = max(seen, most)
        for cfg in sample:
            lines = list(cfg)
            got = project(lines, fm.base, f, mode=mode)
            assert got == _projection_by_definition(lines, f, mode), sorted(cfg)
    assert seen == widest


def test_projection_over_the_substituted_variable_cap_raises():
    from resspace.errors import CapExceededError
    from resspace.projection import _SUB_VAR_CAP

    f = xor_function(3)
    nbase = _SUB_VAR_CAP // 3 + 1
    base = CnfFormula([[v] for v in range(1, nbase + 1)])
    wide = Clause([3 * x for x in range(1, nbase + 1)])  # one variable per block
    for mode in ("subset", "whole_set"):
        with pytest.raises(CapExceededError):
            project([wide], base, f, mode=mode)


@pytest.mark.parametrize(
    "member", [Term([1]), CnfFormula([[1]]), 1], ids=["term", "cnf", "int"]
)
def test_project_rejects_a_member_that_is_no_clause_or_dnf(member):
    from resspace.errors import InvalidInputError
    from resspace.projection import Projector

    for mode in ("subset", "whole_set"):
        with pytest.raises(InvalidInputError, match="^cannot project "):
            Projector(BASE_XY, XOR2).project([Clause([1]), member], mode=mode)


@pytest.mark.parametrize("mode", ["subst", "whole-set", "", None])
def test_project_rejects_an_unknown_mode(mode):
    # an unknown mode once fell through to whole-set projection
    projector = Projector(BASE_XY, XOR2)
    for call in (projector.project, projector.project_board):
        with pytest.raises(InvalidParamError, match="^unknown projection mode "):
            call([Clause([1])], mode=mode)
    assert projector._memo == {}


def test_whole_set_projects_mixed_clause_and_dnf_lines():
    # whole-set mode reads a clause as a 1-DNF, so a configuration may mix both
    dnf = [KDnfFormula([Term([1])], k=1), KDnfFormula([Term([2])], k=1)]
    mixed = [Clause([1]), KDnfFormula([Term([2])], k=1)]
    base = CnfFormula([[1, -2]])
    want = project(dnf, base, xor_function(2), mode="whole_set")
    assert want == frozenset({Clause([-1])})
    assert project(mixed, base, xor_function(2), mode="whole_set") == want


# --- the shared projector ----------------------------------------------------


def _count_projections(monkeypatch):
    """Record every call of Projector.project, the one function that
    computes a projection."""
    calls = []
    original = Projector.project

    def counted(self, formulas, mode="subset"):
        calls.append((frozenset(formulas), mode))
        return original(self, formulas, mode=mode)

    monkeypatch.setattr(Projector, "project", counted)
    return calls


@pytest.mark.parametrize("cap", ["PROJECT_SUBSET_FORMULAS", "PROJECT_BASE_VARS"])
def test_caps_raise_on_memo_and_cache_hits(monkeypatch, cap):
    shared_projector.cache_clear()
    fm, deriv = _pipeline(pyramid_graph(1), XOR2)
    board = max(_boards(deriv), key=len)
    want = shared_projector(fm.base, XOR2).project_board(board)
    assert want == project(board, fm.base, XOR2)
    size = len(board) if cap == "PROJECT_SUBSET_FORMULAS" else len(fm.base.variables())
    monkeypatch.setenv("RESSPACE_UNSAFE_" + cap, str(size - 1))
    with pytest.raises(CapExceededError):
        shared_projector(fm.base, XOR2).project_board(board)
    with pytest.raises(CapExceededError):
        project_invariant_audit(deriv, fm.base, XOR2)
    monkeypatch.delenv("RESSPACE_UNSAFE_" + cap)
    assert shared_projector(fm.base, XOR2).project_board(board) == want


def test_base_cap_raises_before_replaying(monkeypatch):
    """The base-variable cap depends on no board, so an over-cap base is
    rejected before the proof is walked, with the projector's message."""
    from resspace import projection

    def no_walk(deriv):
        pytest.fail("walked a proof over an over-cap base")

    monkeypatch.setattr(projection, "walk", no_walk)
    shared_projector.cache_clear()
    g = pyramid_graph(4)  # 15 base variables, above the cap of 12
    fm = pebbling_formula(g, XOR2)
    deriv = compile_pebbling(g, trivial_black_pebbling(g), XOR2)
    message = "15 base variables exceed projection cap"
    with pytest.raises(CapExceededError, match=message):
        translate_refutation(deriv, fm.base, XOR2)
    with pytest.raises(CapExceededError, match=message):
        extract_pebbling(deriv, g, XOR2)
    with pytest.raises(CapExceededError, match=message):
        project_invariant_audit(deriv, fm.base, XOR2)


def test_a_call_that_raises_stores_nothing(monkeypatch):
    shared_projector.cache_clear()
    fm, deriv = _pipeline(pyramid_graph(1), XOR2)
    board = max(_boards(deriv), key=len)
    calls = _count_projections(monkeypatch)
    monkeypatch.setenv("RESSPACE_UNSAFE_PROJECT_SUBSET_FORMULAS", str(len(board) - 1))
    with pytest.raises(CapExceededError):
        shared_projector(fm.base, XOR2).project_board(board)
    monkeypatch.delenv("RESSPACE_UNSAFE_PROJECT_SUBSET_FORMULAS")
    shared_projector(fm.base, XOR2).project_board(board)
    shared_projector(fm.base, XOR2).project_board(board)
    assert len(calls) == 1


def test_the_cache_keeps_one_pair(monkeypatch):
    shared_projector.cache_clear()
    calls = _count_projections(monkeypatch)
    base2, base3 = (pebbling_formula(path_graph(n), XOR2).base for n in (2, 3))
    board = [KDnfFormula.from_clause(Clause([1, 2]))]
    first = shared_projector(base2, XOR2)
    assert shared_projector(pebbling_formula(path_graph(2), XOR2).base, XOR2) is first
    first.project_board(board)
    shared_projector(base3, XOR2).project_board(board)
    assert shared_projector(base2, XOR2) is not first
    shared_projector(base2, XOR2).project_board(board)
    assert len(calls) == 3


def test_extract_then_audit_projects_each_board_once(monkeypatch):
    g = pyramid_graph(2)
    fm, deriv = _pipeline(g, XOR2)
    shared_projector.cache_clear()
    calls = _count_projections(monkeypatch)
    extract_pebbling(deriv, g, XOR2, require_space_bound=True)
    project_invariant_audit(deriv, fm.base, XOR2)
    assert len(calls) == len({cfg for cfg in _boards(deriv) if cfg})


@pytest.mark.parametrize(
    "graph, f, k",
    [
        (pyramid_graph(2), XOR2, 1),
        (path_graph(6), xor_function(3), 1),
        (pyramid_graph(2), XOR2, "d"),
    ],
    ids=["pyramid:2/xor:2", "path:6/xor:3", "pyramid:2/xor:2/k=d"],
)
def test_memoised_projections_are_exact(graph, f, k):
    fm = pebbling_formula(graph, f)
    compile_fn = compile_pebbling if k == 1 else compile_pebbling_rk
    deriv = compile_fn(graph, trivial_black_pebbling(graph), f)

    def through_the_cache():
        translated = None
        if deriv.k == 1:
            translated = translate_refutation(deriv, fm.base, f).projected
        return translated, project_invariant_audit(deriv, fm.base, f)

    shared_projector.cache_clear()
    cold = through_the_cache()
    assert through_the_cache() == cold  # every board a memo hit
    projector = shared_projector(fm.base, f)
    modes = ("subset", "whole_set") if deriv.k == 1 else ("whole_set",)
    for cfg in _boards(deriv):
        for mode in modes:
            projector.project_board(cfg, mode=mode)
    memo = dict(projector._memo)
    assert {mode for _, mode in memo} == set(modes)
    fresh = Projector(fm.base, f)
    for (lines, mode), got in memo.items():
        assert got == fresh.project(lines, mode=mode)
    if deriv.k > 1:
        # subset mode rejects wide terms and stores nothing
        wide = next(
            lines for lines, _ in memo if any(l.max_term_width() > 1 for l in lines)
        )
        with pytest.raises(InvalidParamError):
            projector.project_board(wide, mode="subset")
        assert projector._memo == memo
    shared_projector.cache_clear()
    assert through_the_cache() == cold


def test_translate_rejects_kdnf_refutations():
    g = path_graph(3)
    f = xor_function(2)
    deriv = compile_pebbling_rk(g, trivial_black_pebbling(g), f)
    with pytest.raises(InvalidParamError, match=r"resolution \(k=1\) refutations only"):
        translate_refutation(deriv, pebbling_formula(g, f).base, f)
    with pytest.raises(InvalidParamError, match=r"resolution \(k=1\) refutations only"):
        extract_pebbling(deriv, g, f)


# --- the search against the one it replaced ----------------------------------


class ReferenceProjector(Projector):
    """The projection search as it was before it ran on frontiers of
    maximal intersections: members rebuilt as Clause and KDnfFormula
    objects, each point's sets made maximal by a scan, the points grouped
    anew for every V, and a recursive witness search.  The caps, the
    assignment space and the sweep are the library's."""

    def project(self, formulas, mode="subset"):
        from resspace.accel import sat_mask
        from resspace.errors import InvalidInputError
        from resspace.logic import _as_rows

        members = []
        for formula in formulas:
            if isinstance(formula, KDnfFormula) and mode == "subset":
                width = formula.max_term_width()
                if width > 1:
                    raise InvalidParamError(
                        f"subset mode projects clauses, but a line has a term of "
                        f"width {width}; project k-DNF lines with --mode whole_set"
                    )
                formula = formula.as_clause()
            elif isinstance(formula, Clause) and mode != "subset":
                formula = KDnfFormula.from_clause(formula)
            elif not isinstance(formula, (Clause, KDnfFormula)):
                raise InvalidInputError(f"cannot project {type(formula).__name__}")
            members.append(formula)
        members = sorted(set(members))
        self._check_caps(len(members), mode)

        shadow = sorted(
            self.varmap.shadow(
                set().union(*(set(m.variables()) for m in members), set())
            )
            & set(self.base_vars)
        )
        bit, size = self._space(shadow)
        a = np.arange(size, dtype=np.int64)
        d = self.f.d
        image = np.zeros(size, dtype=np.int64)
        for j in range(len(shadow)):
            image |= self._table[(a >> (d * j)) & ((1 << d) - 1)] << j
        if mode == "subset":
            svec = np.zeros(size, dtype=np.int64)
            for i, m in enumerate(members):
                svec |= sat_mask(a, *_as_rows(m, bit)).astype(np.int64) << i
            full = (1 << len(members)) - 1
            by_point: dict[int, list] = {}
            for p, sat in set(zip(image.tolist(), svec.tolist())):
                by_point.setdefault(p, []).append(sat)
            antichains = {p: _reference_maximal(s) for p, s in by_point.items()}
            models = [p for p, sats in antichains.items() if sats[0] == full]
        else:
            sat = np.ones(size, dtype=bool)
            for m in members:
                sat &= sat_mask(a, *_as_rows(m, bit))
            models = np.unique(image[sat]).tolist()

        projected = []
        seen = []
        for V in range(1 << len(shadow)):
            seen.append({p & V for p in models})
            js = [j for j in range(len(shadow)) if V >> j & 1]
            if mode == "subset":
                groups: dict[int, list] = {}
                for p, sats in antichains.items():
                    groups.setdefault(p & V, []).extend(sats)
                picks_at: dict[int, list] = {}
            for q in _submasks(V):
                if q in seen[V]:
                    continue
                if mode == "subset":
                    rs = [q ^ (1 << j) for j in js]
                    ok = all(r in groups for r in rs)
                    if ok:
                        for r in rs:
                            if r not in picks_at:
                                picks_at[r] = _reference_maximal(groups[r])
                        picks = [picks_at[r] for r in rs]
                        ok = _reference_witness(full, picks, groups.get(q, ()))
                else:
                    ok = all(q & ~(1 << j) in seen[V ^ (1 << j)] for j in js)
                if ok:
                    projected.append(
                        Clause([-shadow[j] if q >> j & 1 else shadow[j] for j in js])
                    )
        return frozenset(projected)


def _submasks(V):
    """Every q with q & V == q, from V down to 0."""
    q = V
    while True:
        yield q
        if not q:
            return
        q = (q - 1) & V


def _reference_maximal(values):
    """Maximal elements of an iterable of bitmask ints, largest sets first."""
    vals = sorted(set(values), key=int.bit_count, reverse=True)
    out = []
    for s in vals:
        if not any(s & keep == s for keep in out):
            out.append(s)
    return out


def _reference_witness(s, picks, blockers):
    """Whether the members ``s``, cut down by one set from each antichain in
    ``picks``, can end up inside no set of ``blockers``."""
    if any(s & b == s for b in blockers):
        return False
    if not picks:
        return True
    return any(_reference_witness(s & c, picks[1:], blockers) for c in picks[0])


@pytest.mark.parametrize(
    "graph, fspec, pebbling, k",
    [
        ("pyramid:2", "xor:2", "optimal", 1),
        ("pyramid:1", "maj:3", "trivial", 1),
        ("bit_reversal:1", "xor:2", "trivial", 1),
        ("path:6", "xor:3", "trivial", 1),
        ("pyramid:2", "xor:2", "trivial", "d"),
        ("bit_reversal:1", "xor:2", "trivial", "d"),
    ],
)
def test_projection_equals_the_reference_on_every_board(graph, fspec, pebbling, k):
    """Every distinct board of the benchmark's round-trip refutations:
    resolution ones in subset mode, k = d ones in whole-set mode."""
    from resspace.boolfunc import function_by_name
    from resspace.graphs import make_graph
    from resspace.pebbling import search_min_space

    family, _, param = graph.partition(":")
    g = make_graph(family, int(param))
    name, _, d = fspec.partition(":")
    f = function_by_name(name, int(d))
    if pebbling == "optimal":
        moves = search_min_space(g, "black")[1]
    else:
        moves = trivial_black_pebbling(g)
    compile_fn = compile_pebbling if k == 1 else compile_pebbling_rk
    base = pebbling_formula(g, f).base
    mode = "subset" if k == 1 else "whole_set"
    boards = {cfg for cfg in _boards(compile_fn(g, moves, f)) if cfg}
    projector, reference = Projector(base, f), ReferenceProjector(base, f)
    nonempty = 0
    for cfg in boards:
        got = projector.project(cfg, mode=mode)
        assert got == reference.project(cfg, mode=mode), sorted(cfg)
        nonempty += bool(got)
    assert nonempty


def _drawn_configuration(draw, f, nbase):
    """A small mixed configuration over the blocks of nbase original
    variables: clauses, 1-DNF lines and 2-DNF lines, some of them clauses
    of a substituted base clause, as a refutation of F[f] downloads."""
    from hypothesis import strategies as st

    from resspace.boolfunc import substitute_clause

    def signed(v):
        return st.sampled_from((v, -v))

    literal = st.integers(1, f.d * nbase).flatmap(signed)
    base_clause = st.lists(st.integers(1, nbase), min_size=1, max_size=2, unique=True)
    substituted = base_clause.flatmap(lambda vs: st.tuples(*map(signed, vs))).flatmap(
        lambda c: st.lists(st.sampled_from(substitute_clause(Clause(c), f).clauses))
    )
    one_dnf = st.lists(literal, max_size=3).map(
        lambda ls: KDnfFormula([Term([l]) for l in ls], k=1)
    )
    two_dnf = st.lists(st.lists(literal, min_size=1, max_size=2), max_size=3).map(
        lambda ts: KDnfFormula([Term(t) for t in ts], k=2)
    )
    line = st.one_of(st.lists(literal, max_size=3).map(Clause), one_dnf, two_dnf)
    return draw(st.lists(line, max_size=5)) + draw(substituted)[:8]


def test_projection_equals_the_reference_on_drawn_configurations():
    """Drawn configurations, both modes, with xor:2, maj:3 and the identity,
    sometimes under a lowered formula cap: the projection and the reference
    return equal clause sets or raise the same cap or parameter error."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from resspace.boolfunc import identity_function, majority_function

    functions = [XOR2, majority_function(3), identity_function()]
    seen = collections.Counter()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        f = data.draw(st.sampled_from(functions))
        nbase = data.draw(st.integers(1, 4))
        config = _drawn_configuration(data.draw, f, nbase)
        mode = data.draw(st.sampled_from(("subset", "whole_set")))
        cap = data.draw(st.none() | st.integers(0, 5))
        base = CnfFormula([[v] for v in range(1, nbase + 1)])

        def outcome(projector):
            try:
                return projector.project(config, mode=mode)
            except (CapExceededError, InvalidParamError) as e:
                return type(e)

        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                which = "SUBSET" if mode == "subset" else "WHOLESET"
                mp.setenv(f"RESSPACE_UNSAFE_PROJECT_{which}_FORMULAS", str(cap))
            got = outcome(Projector(base, f))
            want = outcome(ReferenceProjector(base, f))
        assert got == want
        if isinstance(got, type):
            seen[got.__name__] += 1
        else:
            seen["nonempty" if got else "empty"] += 1

    check()
    # both errors, empty and nonempty projections all occur
    outcomes = {"CapExceededError", "InvalidParamError", "empty", "nonempty"}
    assert set(seen) == outcomes and min(seen.values()) >= 20, seen

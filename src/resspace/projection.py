"""Projections of configurations over substituted variables onto clauses
over the original variables, the refutation translator built on them, and
the refutation-to-pebbling extractor.

A configuration D over Vars(F[f]) projects a clause C over Vars(F) when a
subset of D implies "the disjunction of the f-values named by C" precisely:
dropping any literal of C breaks the implication (subset mode).  Whole-set
mode quantifies over D itself instead of its subsets.

Base-point reduction.  Only the original variables whose blocks D mentions
(its shadow, s variables) can occur in a projected clause, so one sweep
over the 2^(d*s) assignments to those blocks decides everything.  The sweep
records, per assignment, the members it satisfies and its f-image: the
base point in {0,1}^s holding f's value on each block.  Every target
"some literal of C has its f-value" depends on an assignment only through
its f-image, so after the sweep the assignments can be forgotten and each
base point keeps just the maximal sets of members its assignments satisfy.
The reduction is exact: whether a subset S of D implies a target asks only
whether some assignment satisfying S has an f-image falsifying the target,
and a base point has such an assignment if and only if S lies inside one of
its maximal sets.

Whole-set mode then yields the prime implicates of the f-images of D's
models: C is projected when no image falsifies C and, for each literal,
some image falsifies C without it.  Each test is a lookup among at most
2^s points.

Subset mode avoids enumerating subsets: a witness subset S exists if and
only if one can pick, for every literal l of C, a satisfied-member set at
a base point falsifying C without l such that the members common to all
picks lie inside no satisfied-member set of a point falsifying C (a
blocker).  The picks for l come from points where l holds and the rest of
C fails, and only maximal picks matter: the maximal sets of the points
agreeing with a pattern on C's variables are merged down from the points'
own.  The search keeps, literal by literal, the distinct maximal
intersections of the picks so far that lie inside no blocker, and projects
C when one survives the last literal.  This is exact: a set inside a
blocker stays inside as later picks cut it down, and a subset of a kept
set can do no better than that set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .accel import sat_mask
from .boolfunc import (
    BooleanFunction,
    SubstitutionVarMap,
    identity_function,
    is_k_non_authoritarian,
    substitute_clause,
)
from .caps import get_cap
from .compilers import pebbling_formula
from .errors import (
    AuthoritarianFunctionError,
    CapExceededError,
    InvalidInputError,
    InvalidParamError,
)
from .logic import Clause, CnfFormula, KDnfFormula, _row
from .pebbling import Move, validate_pebbling
from .proofs import Derivation, DerivationBuilder, walk, zero_formula
from .transforms import eliminate_weakening, make_frugal

_SUB_VAR_CAP = 18


class Projector:
    """Projection of configurations derived from base_formula[f]."""

    def __init__(self, base_formula: CnfFormula, f: BooleanFunction):
        self.base = base_formula
        self.f = f
        self.varmap = SubstitutionVarMap(f.d)
        self.base_vars = sorted(base_formula.variables())
        self._table = np.asarray(f.table, dtype=np.int64)
        self._memo = {}  # (board, mode) -> projected clauses
        self._images = {}  # shadow size -> f-image of every assignment

    def _check_caps(self, n_formulas, mode):
        """The mode, then the caps on the base variables and on the formulas
        of one configuration; read on every call, so a lowered cap takes
        effect."""
        if mode not in ("subset", "whole_set"):
            raise InvalidParamError(
                f"unknown projection mode {mode!r}: use subset or whole_set"
            )
        if len(self.base_vars) > get_cap("PROJECT_BASE_VARS"):
            raise CapExceededError(
                f"{len(self.base_vars)} base variables exceed projection cap"
            )
        cap = get_cap(
            "PROJECT_SUBSET_FORMULAS" if mode == "subset" else "PROJECT_WHOLESET_FORMULAS"
        )
        if n_formulas > cap:
            raise CapExceededError(f"{n_formulas} formulas exceed projection cap")
        if mode == "subset" and n_formulas > 63:
            raise CapExceededError("subset mode supports at most 63 formulas")

    def _space(self, shadow_vars):
        """Assignment space over the blocks of the given original variables:
        (bit lookup, assignment count).  The block of shadow_vars[j] takes
        bits d*j .. d*j+d-1, in block order."""
        sub_vars = [v for x in shadow_vars for v in self.varmap.block(x)]
        if len(sub_vars) > _SUB_VAR_CAP:
            raise CapExceededError(
                f"{len(sub_vars)} substituted variables exceed projection cap"
            )
        bit = {v: i for i, v in enumerate(sub_vars)}
        return bit, 1 << len(sub_vars)

    def project(self, formulas, mode="subset"):
        """The set of projected clauses of a configuration.

        ``formulas``: clauses or k-DNF lines.  Subset mode reads 1-DNF lines
        as clauses, whole-set mode reads clauses as 1-DNF lines.
        """
        subset = mode == "subset"
        # the distinct members, read from the lines' literal tuples: a
        # clause's literal set in subset mode, a DNF's term set and k in
        # whole-set mode, equal exactly when the KDnfFormula lines are
        members = set()
        for formula in formulas:
            if isinstance(formula, Clause):
                terms, k = [(l,) for l in formula.lits], 1
            elif isinstance(formula, KDnfFormula):
                terms, k = [t.lits for t in formula.terms], formula.k
            else:
                raise InvalidInputError(f"cannot project {type(formula).__name__}")
            if not subset:
                members.add((frozenset(terms), k))
                continue
            width = max(map(len, terms), default=0)
            if width > 1:
                raise InvalidParamError(
                    f"subset mode projects clauses, but a line has a term of "
                    f"width {width}; project k-DNF lines with --mode whole_set"
                )
            # an empty term, which no clause stands for, fails to unpack
            members.add(frozenset(l for (l,) in terms))
        self._check_caps(len(members), mode)
        rows = [(m,) for m in members] if subset else [terms for terms, _ in members]

        d = self.f.d
        lits = {l for rs in rows for r in rs for l in r}
        shadow = sorted({(abs(l) - 1) // d + 1 for l in lits} & set(self.base_vars))
        bit, size = self._space(shadow)

        # the one sweep: f-image and satisfied members of every assignment;
        # the image depends only on d and the shadow size
        a = np.arange(size, dtype=np.int64)
        image = self._images.get(len(shadow))
        if image is None:
            image = self._images[len(shadow)] = np.zeros(size, dtype=np.int64)
            for j in range(len(shadow)):
                image |= self._table[(a >> (d * j)) & ((1 << d) - 1)] << j
        kind = "cnf" if subset else "dnf"
        sat = np.array(
            [sat_mask(a, kind, [_row(r, bit) for r in rs]) for rs in rows], dtype=bool
        ).reshape(len(rows), size)
        if subset:
            svec = np.bitwise_or.reduce(sat << np.arange(len(rows))[:, None], axis=0)
            full = (1 << len(members)) - 1
            order = np.lexsort((svec, image))
            image, svec = image[order], svec[order]
            fresh = np.ones(size, dtype=bool)
            fresh[1:] = (image[1:] != image[:-1]) | (svec[1:] != svec[:-1])
            # chains[V][r]: the maximal satisfied-member sets of the points
            # agreeing with pattern r on V, in descending order; per point
            # first, then merged down from V plus one bit
            top = (1 << len(shadow)) - 1
            runs: dict[int, list] = {}
            for p, s in zip(image[fresh][::-1].tolist(), svec[fresh][::-1].tolist()):
                runs.setdefault(p, []).append(s)
            chains = [None] * top + [{p: _maximal(run) for p, run in runs.items()}]
            for V in reversed(range(top)):
                b = (V + 1) & ~V
                merged: dict[int, set] = {}
                for r, chain in chains[V | b].items():
                    merged.setdefault(r & ~b, set()).update(chain)
                chains[V] = {
                    r: _maximal(sorted(m, reverse=True)) for r, m in merged.items()
                }
            models = [p for p, chain in chains[top].items() if chain[0] == full]
        else:
            models = np.unique(image[sat.all(axis=0)]).tolist()

        # a clause C over the shadow variables is given by the bits V of
        # its variables and the pattern q of the points falsifying it (bit j
        # of q set: the literal on shadow[j] is negative)
        projected = []
        seen = []  # seen[V]: the f-images of D's models restricted to V
        for V in range(1 << len(shadow)):
            seen.append({p & V for p in models})
            js = [j for j in range(len(shadow)) if V >> j & 1]
            for q in range(V + 1):
                if q & ~V or q in seen[V]:
                    continue  # not a pattern on V, or a model of D falsifies C
                if subset:
                    # the frontier, literal by literal: the picks for the
                    # literal on shadow[j] come from the points where it is
                    # the only literal of C that holds; all members lie
                    # inside no blocker, since no model of D falsifies C
                    blockers, frontier = chains[V].get(q, []), [full]
                    for j in js:
                        picks = chains[V].get(q ^ (1 << j), [])
                        cut = {s & c for s in frontier for c in picks}
                        frontier = _maximal(sorted(cut, reverse=True), blockers)
                    ok = bool(frontier)
                else:
                    ok = all(q & ~(1 << j) in seen[V ^ (1 << j)] for j in js)
                if ok:
                    projected.append(
                        Clause([-shadow[j] if q >> j & 1 else shadow[j] for j in js])
                    )
        return frozenset(projected)

    def project_board(self, board, mode="subset"):
        """``project`` of a replay board, memoised per (set of lines, mode).

        A board's lines are distinct formulas of one k, so its line count is
        the formula count ``project`` checks: the caps are checked here on
        every call, hits included, and a call that raises stores nothing.
        """
        lines = frozenset(board)
        self._check_caps(len(lines), mode)
        key = (lines, mode)
        if key not in self._memo:
            self._memo[key] = self.project(lines, mode=mode)
        return self._memo[key]


@functools.lru_cache(maxsize=1)
def shared_projector(base_formula: CnfFormula, f: BooleanFunction) -> Projector:
    """The Projector of (base_formula, f), the same object for an equal
    pair until another pair is asked for.  Translating and then auditing
    one derivation thus project each board once; only one entry is kept, so
    nothing carries over to the next formula."""
    return Projector(base_formula, f)


def _maximal(values, above=()):
    """The values that lie inside no other value and no set of ``above``.

    The values are distinct bitmask ints in descending order: a proper
    superset is a larger int, so a value can lie only inside one kept
    before it."""
    keep = list(above)
    for s in values:
        for t in keep:
            if s & t == s:
                break
        else:
            keep.append(s)
    return keep[len(above) :]


# ---------------------------------------------------------------------------
# translating refutations of substituted formulas


@dataclass(frozen=True)
class TranslationResult:
    derivation: Derivation
    projected: tuple  # the projected clause set per configuration


def _axiom_of(base_formula, f):
    """Map each substituted clause to a base axiom producing it."""
    out = {}
    for a in base_formula:
        for d in substitute_clause(a, f):
            out.setdefault(d, a)
    return out


def translate_refutation(
    deriv: Derivation, base_formula: CnfFormula, f: BooleanFunction
) -> TranslationResult:
    """Turn a refutation of base_formula[f] into a resolution refutation of
    base_formula by following the projected clause sets.

    Inferences and erasures only move clauses in and out of the projection;
    new clauses appearing on an axiom download of D in A[f] are derived by
    downloading A once, weakening projected clauses into the required
    side-clauses, and resolving away the literals of A outside the target.
    The output downloads at most one axiom per input download.  Only
    resolution (k=1) refutations are translated: the whole-set projection
    of a k-DNF board can shrink on a download or an inference.
    """
    if deriv.k > 1:
        raise InvalidParamError(
            f"translation handles resolution (k=1) refutations only, not k={deriv.k}"
        )
    projector = shared_projector(base_formula, f)
    projector._check_caps(0, "subset")  # the base cap, before walking
    axmap = _axiom_of(base_formula, f)
    out = DerivationBuilder(base_formula, k=1)
    board: dict[Clause, int] = {}
    prev = frozenset()
    sequence = [prev]

    def weaken_from_board(c: Clause) -> int:
        sub = next(
            (b for b in sorted(board) if set(b.lits) <= set(c.lits)), None
        )
        if sub is None:
            return None
        return out.infer_clause("weak", [board[sub]], c)

    def derive_on_download(c: Clause, axiom: Clause, axiom_id: int):
        """The weaken-then-resolve schedule for a clause first projected on
        an axiom download; a line it reuses, the axiom's or the board's, is
        held."""
        outside = [a for a in axiom.lits if a not in c.lits]
        for a in outside:
            assert -a not in c.lits, "axiom and projected clause clash"
        if not outside:
            if c == axiom:
                return out.hold(axiom_id)
            return out.infer_clause("weak", [axiom_id], c)
        cur_clause = Clause(c.lits + tuple(outside))
        cur_id = out.infer_clause("weak", [axiom_id], cur_clause)
        for a in outside:
            helper = next(
                (
                    b
                    for b in sorted(board)
                    if -a in b.lits and set(b.without(-a).lits) <= set(c.lits)
                ),
                None,
            )
            assert helper is not None, "projection lost a side clause"
            want = Clause(c.lits + (-a,))
            if helper == want:
                side = out.hold(board[helper])
            else:
                side = out.infer_clause("weak", [board[helper]], want)
            next_clause = Clause(
                [l for l in cur_clause.lits if l != a]
                + [l for l in want.lits if l != -a]
            )
            nid = out.infer_clause("cut", [cur_id, side], next_clause)
            out.erase(cur_id)
            out.erase(side)
            cur_id, cur_clause = nid, next_clause
        assert cur_clause == c, "resolve schedule missed the projected clause"
        return cur_id

    zero, empty_line, refuted = Clause(), zero_formula(1), False
    for t, ev, config in walk(deriv):
        refuted = refuted or empty_line in config.multiplicity
        if not t or zero in prev:
            # the seeded board of a CNF refutation is empty; past the first
            # projected empty clause the steps are only checked
            continue
        cur = projector.project_board(config.values(), mode="subset")
        sequence.append(cur)
        added = sorted(cur - prev)
        removed = sorted(prev - cur)
        if ev.kind == "erase":
            assert not added, "projection grew on an erasure"
            for c in removed:
                out.erase(board.pop(c))
        else:
            assert not removed, "projection shrank on a download or inference"
            axiom_id = None
            axiom = axmap.get(ev.formula.as_clause()) if ev.kind == "axiom" else None
            for c in added:
                line = weaken_from_board(c)
                if line is None:
                    assert axiom is not None, "new clause without axiom support"
                    if axiom_id is None:
                        axiom_id = out.download(axiom)
                    line = derive_on_download(c, axiom, axiom_id)
                board[c] = line  # a board entry holds its line
            if axiom_id is not None:
                out.erase(axiom_id)
        prev = cur
    if not refuted:
        raise InvalidInputError("input does not refute the substituted formula")
    if zero not in prev:
        raise AssertionError("projected sequence never reaches the empty clause")
    return TranslationResult(out.build(), tuple(sequence))


# ---------------------------------------------------------------------------
# extracting pebblings from refutations


@dataclass(frozen=True)
class ExtractionResult:
    moves: tuple
    time: int
    space: int
    frugal_variable_space: int


def extract_pebbling(
    deriv: Derivation, dag, f: BooleanFunction | None = None, require_space_bound=False
) -> ExtractionResult:
    """A complete black-white pebbling extracted from a refutation of the
    (substituted) pebbling contradiction.

    The refutation is first translated down to the plain contradiction (for
    a non-identity substitution), stripped of weakenings, and made frugal.
    Each configuration then maps to a pebble configuration: a variable
    carried over from the black set stays black, a variable occurring
    positively is black, one occurring only negatively is white.  Axiom
    downloads place the (at most indegree+1) new pebbles; erasures drop
    pebbles; the sink keeps its black pebble once placed.
    """
    f = f or identity_function()
    if require_space_bound and not is_k_non_authoritarian(f, 1):
        raise AuthoritarianFunctionError(
            f"{f.name} is authoritarian: the space bound does not transfer"
        )
    if f.name == "identity":
        base_deriv = deriv
    else:
        base = pebbling_formula(dag, f).base
        base_deriv = translate_refutation(deriv, base, f).derivation
    frugal = make_frugal(eliminate_weakening(base_deriv))

    moves = []
    black: set[int] = set()
    white: set[int] = set()
    z = dag.sink
    z_locked = False

    def retarget(new_black, new_white):
        nonlocal black, white
        place_white = sorted(new_white - black - white)
        flips = sorted(new_black & white)
        place_black = sorted(new_black - black - white - set(flips))
        for v in place_white:
            moves.append(Move("pw", v))
        for v in flips:
            moves.append(Move("rw", v))
            moves.append(Move("pb", v))
        for v in place_black:
            moves.append(Move("pb", v))
        gone = (black | white) - new_black - new_white
        for v in sorted(gone & black):
            moves.append(Move("rb", v))
        for v in sorted(gone & white):
            moves.append(Move("rw", v))
        black, white = set(new_black), set(new_white)

    for t, ev, board in walk(frugal):
        if not t:
            continue
        pos = set()
        neg = set()
        for line in board.values():
            for term in line.terms:
                for l in term.lits:
                    (pos if l > 0 else neg).add(abs(l))
        variables = pos | neg
        new_black = (variables & black) | pos
        new_white = variables - new_black
        if z_locked:
            new_black |= {z}
            new_white -= {z}
        if ev.kind == "infer":
            assert new_black == black and new_white == white
            continue
        retarget(new_black, new_white)
        if not z_locked and z in black:
            z_locked = True
    retarget({z}, set())
    metrics = validate_pebbling(dag, tuple(moves))
    return ExtractionResult(
        moves=tuple(moves),
        time=metrics.time,
        space=metrics.space,
        frugal_variable_space=board.peak_variables,
    )


# ---------------------------------------------------------------------------
# the projection invariant audit


@dataclass(frozen=True)
class AuditReport:
    configurations: int
    audited: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def project_invariant_audit(
    deriv: Derivation, base_formula: CnfFormula, f: BooleanFunction
) -> AuditReport:
    """Check, per configuration with a nonempty projection, that the line
    count strictly exceeds the projected variable count and that every
    projected variable's block is mentioned by the configuration."""
    if not is_k_non_authoritarian(f, 1):
        raise AuthoritarianFunctionError(
            f"{f.name} is authoritarian: the audit preconditions fail"
        )
    projector = shared_projector(base_formula, f)
    mode = "subset" if deriv.k == 1 else "whole_set"
    projector._check_caps(0, mode)  # the base cap, before walking
    varmap = SubstitutionVarMap(f.d)
    violations = []
    audited = configurations = 0
    for t, _, board in walk(deriv):
        cfg = board.values()
        configurations += 1
        if not cfg:
            continue
        projected = projector.project_board(cfg, mode=mode)
        if not projected:
            continue
        audited += 1
        proj_vars = set().union(*(set(c.variables()) for c in projected), set())
        if deriv.k == 1:
            if not len(cfg) > len(proj_vars):
                violations.append((t, "line count not above projected variables"))
        else:
            bound = (4 ** (deriv.k * deriv.k * f.d)) * (deriv.k * len(cfg)) ** (
                deriv.k + 1
            )
            if len(proj_vars) > bound:
                violations.append((t, "projected variables exceed the size bound"))
        for x in sorted(proj_vars):
            if not any(v in board.var_refs for v in varmap.block(x)):
                violations.append((t, f"no block variable of {x} on the board"))
    return AuditReport(
        configurations=configurations, audited=audited, violations=tuple(violations)
    )

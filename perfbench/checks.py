"""Correctness checks the benchmark applies to the library's outputs.

Every check here is written apart from the library: the pebble game, the
proof walk, truth tables and projection-by-definition are re-implemented
from their definitions and read only plain data (literals, ids, moves)
from the library's objects.  None compares against a stored copy of an
earlier output.  Each check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace


# ---------------------------------------------------------------------------
# the black-white pebble game


def play_pebbling(preds, sink, moves, budget=None, black_only=False):
    """Replay moves under the four rules; returns (problems, time, space).

    ``preds`` maps each vertex to its immediate predecessors.  A complete
    pebbling ends with a single black pebble on the sink.
    """
    black, white = set(), set()
    space = 0
    for i, (kind, v) in enumerate(moves):
        if v not in preds:
            return [f"move {i}: vertex {v} is not in the graph"], None, None
        pebbled = black | white
        ready = all(u in pebbled for u in preds[v])
        if kind == "pb" and v not in pebbled and ready:
            black.add(v)
        elif kind == "rb" and v in black:
            black.remove(v)
        elif kind == "pw" and v not in pebbled and not black_only:
            white.add(v)
        elif kind == "rw" and v in white and ready:
            white.remove(v)
        else:
            return [f"move {i}: {kind} {v} is illegal"], None, None
        space = max(space, len(black) + len(white))
    problems = []
    if black != {sink} or white:
        problems.append(
            f"final configuration {sorted(black)}/{sorted(white)} is not sink only"
        )
    if budget is not None and space > budget:
        problems.append(f"space {space} exceeds budget {budget}")
    return problems, len(moves), space


def moves_of(library_moves):
    return [(m.kind, m.vertex) for m in library_moves]


def preds_of(dag):
    return {v: tuple(dag.predecessors(v)) for v in range(1, dag.n + 1)}


# ---------------------------------------------------------------------------
# walking a derivation


def line_key(terms):
    """A line value as a set of literal tuples (one per term)."""
    return frozenset(tuple(sorted(t)) for t in terms)


class ProofWalk:
    """Length, axiom downloads, formula space (distinct line values per
    configuration), the most terms on one line (the width, for clauses),
    whether the empty line appears, and the configurations themselves,
    recounted by walking the steps.  Configurations are only kept when
    ``keep_configs`` is set."""

    def __init__(self, deriv, keep_configs=False):
        lines = {}
        values = Counter()
        next_id = 1
        self.length = self.downloads = self.formula_space = self.width = 0
        self.refuted = False
        self.erased_before = []  # per step: ids already erased at that point
        self.next_id_at = []  # per step: the id the next new line gets
        self.configs = [frozenset()] if keep_configs else None
        erased = []
        for step in deriv.steps:
            self.erased_before.append(len(erased))
            self.next_id_at.append(next_id)
            kind = type(step).__name__
            if kind == "AxiomDownload":
                value = line_key((l,) for l in step.clause.lits)
            elif kind == "Inference":
                value = line_key(t.lits for t in step.formula.terms)
            else:
                values[lines[step.target]] -= 1
                if not values[lines[step.target]]:
                    del values[lines[step.target]]
                del lines[step.target]
                erased.append(step.target)
                value = None
            if value is not None:
                lines[next_id] = value
                next_id += 1
                values[value] += 1
                self.length += 1
                self.downloads += kind == "AxiomDownload"
                self.width = max(self.width, len(value))
                self.refuted |= not value
            self.formula_space = max(self.formula_space, len(values))
            if keep_configs:
                self.configs.append(frozenset(values))
        self.erased = erased


def mutate_step(deriv, rng, walk):
    """A copy of the derivation with one seeded step made illegal by
    definition: a download gets a literal over a variable the formula does
    not have (a changed line), an inference or erasure names a line that is
    not on the board (a redirected premise).  Returns (derivation, label)."""
    steps = list(deriv.steps)
    i = rng.randrange(len(steps))
    step = steps[i]
    kind = type(step).__name__
    erased = walk.erased[: walk.erased_before[i]]
    gone = rng.choice(erased) if erased else walk.next_id_at[i]
    if kind == "AxiomDownload":
        fresh = max(deriv.formula.variables()) + 1
        steps[i] = replace(step, clause=type(step.clause)(step.clause.lits + (fresh,)))
        label = f"step {i}: download changed to a non-axiom"
    elif kind == "Inference":
        premises = list(step.premises)
        premises[rng.randrange(len(premises))] = gone
        steps[i] = replace(step, premises=tuple(premises))
        label = f"step {i}: premise redirected to id {gone}"
    else:
        steps[i] = replace(step, target=gone)
        label = f"step {i}: erasure redirected to id {gone}"
    return replace(deriv, steps=tuple(steps)), label


def mutate_inference(deriv, rng):
    """A copy of the derivation in which one seeded inference derives a line
    that does not follow: one term of its formula is dropped, and a truth
    table over the premises shows an assignment that satisfies them and
    falsifies what is left.  No sound rule derives that line, whatever rule
    the step names.  Returns (derivation, label)."""
    lines, inferences, next_id = {}, [], 1
    for i, step in enumerate(deriv.steps):
        kind = type(step).__name__
        if kind == "Erasure":
            del lines[step.target]
            continue
        if kind == "Inference":
            value = [t.lits for t in step.formula.terms]
            if all(p in lines for p in step.premises):
                inferences.append((i, [lines[p] for p in step.premises], value))
        else:
            value = [(l,) for l in step.clause.lits]
        lines[next_id] = value
        next_id += 1
    start = rng.randrange(len(inferences))
    for i, premises, terms in inferences[start:] + inferences[:start]:
        tt = TruthTable(variables_of(premises + [terms]))
        allowed = _conj([tt.dnf(p) for p in premises], tt.full)
        for j in rng.sample(range(len(terms)), len(terms)):
            rest = terms[:j] + terms[j + 1 :]
            if allowed & ~tt.dnf(rest):
                step = deriv.steps[i]
                formula = type(step.formula)(rest, k=step.formula.k)
                steps = deriv.steps[:i] + (replace(step, formula=formula),) + deriv.steps[i + 1 :]
                label = f"step {i}: {step.rule} drops term {terms[j]}, which does not follow"
                return replace(deriv, steps=steps), label
    raise ValueError("no inference has a term whose removal breaks implication")


# ---------------------------------------------------------------------------
# truth tables over Python integers: bit a of a mask is assignment a, and
# bit j of a is the value of the j-th variable


class TruthTable:
    def __init__(self, variables):
        self.index = {v: j for j, v in enumerate(sorted(variables))}
        n = len(self.index)
        self.full = (1 << (1 << n)) - 1
        self.var_mask = {}
        for v, j in self.index.items():
            half = 1 << j
            mask, period = ((1 << half) - 1) << half, 2 * half
            while period < (1 << n):
                mask |= mask << period
                period *= 2
            self.var_mask[v] = mask

    def lit(self, l):
        m = self.var_mask[abs(l)]
        return m if l > 0 else self.full ^ m

    def term(self, lits):
        m = self.full
        for l in lits:
            m &= self.lit(l)
        return m

    def dnf(self, terms):
        m = 0
        for t in terms:
            m |= self.term(t)
        return m

    def clause(self, lits):
        return self.dnf((l,) for l in lits)


def variables_of(sets_of_terms):
    return {abs(l) for terms in sets_of_terms for t in terms for l in t}


def clause_set_problems(clauses):
    """Clause-deletion minimal unsatisfiability of clauses (literal tuples)
    and Tarsi's bound: fewer variables than clauses."""
    tt = TruthTable(variables_of([clauses]))
    masks = [tt.clause(c) for c in clauses]
    problems = []
    if _conj(masks, tt.full):
        problems.append("satisfiable")
    for i in range(len(masks)):
        if not _conj(masks[:i] + masks[i + 1 :], tt.full):
            problems.append(f"still unsatisfiable without clause {i}")
    if not len(tt.index) < len(clauses):
        problems.append(f"{len(tt.index)} variables for {len(clauses)} clauses")
    return problems


def dnf_set_problems(formulas, max_vars=None):
    """Term-shrink minimal unsatisfiability of k-DNFs (lists of literal
    tuples): unsatisfiable, and replacing any one term by itself minus one
    literal makes the set satisfiable."""
    tt = TruthTable(variables_of(formulas))
    masks = [tt.dnf(f) for f in formulas]
    problems = []
    if _conj(masks, tt.full):
        problems.append("satisfiable")
    for i, f in enumerate(formulas):
        others = _conj(masks[:i] + masks[i + 1 :], tt.full)
        for t in f:
            rest = tt.dnf(u for u in f if u != t)
            for l in t:
                shrunk = rest | tt.term(x for x in t if x != l)
                if not others & shrunk:
                    problems.append(f"formula {i}: shrinking {t} by {l} keeps it unsat")
    if max_vars is not None and len(tt.index) > max_vars:
        problems.append(f"{len(tt.index)} variables exceed {max_vars}")
    return problems


def _conj(masks, full):
    m = full
    for x in masks:
        m &= x
    return m


# ---------------------------------------------------------------------------
# projection by definition


def block(x, d):
    """Substituted variables of original variable x: d(x-1)+1 .. dx."""
    return tuple(d * (x - 1) + j for j in range(1, d + 1))


def projection_by_definition(config, base_vars, table, d, mode):
    """The clauses C over the original variables that the configuration
    projects: some subset S of it (subset mode) or the configuration itself
    (whole-set mode) implies "some literal of C has its f-value", and
    implies it for no C minus one literal.

    ``config`` is a set of lines given as sets of literal tuples.  Clauses
    are taken over the variables whose blocks the configuration mentions:
    a clause naming any other variable x is never precise, since f is not
    constant and the members do not constrain x's block.
    """
    used = variables_of(config)
    shadow = sorted({(v - 1) // d + 1 for v in used} & set(base_vars))
    tt = TruthTable([v for x in shadow for v in block(x, d)])
    fval = {}
    for x in shadow:
        value = 0
        for point in range(1 << d):
            lits = [v if (point >> j) & 1 else -v for j, v in enumerate(block(x, d))]
            if table[point]:
                value |= tt.term(lits)
        fval[x] = value
    members = [tt.dnf(line) for line in config]
    if mode == "subset":
        subsets = [
            _conj(c, tt.full)
            for r in range(len(members) + 1)
            for c in itertools.combinations(members, r)
        ]
    else:
        subsets = [_conj(members, tt.full)]

    def target(lits):
        m = 0
        for l in lits:
            m |= fval[l] if l > 0 else tt.full ^ fval[-l]
        return m

    out = set()
    for width in range(len(shadow) + 1):
        for combo in itertools.combinations(shadow, width):
            for signs in itertools.product((1, -1), repeat=width):
                c = tuple(s * x for s, x in zip(signs, combo))
                goal = target(c)
                for sat in subsets:
                    if sat & ~goal & tt.full:
                        continue
                    if all(sat & ~target(c[:i] + c[i + 1 :]) & tt.full for i in range(width)):
                        out.add(c)
                        break
    return out


def projection_problems(config, library_clauses, base_vars, table, d, mode):
    """Differences between the library's projected clauses and the
    definition; both list literals by ascending variable."""
    want = projection_by_definition(config, base_vars, table, d, mode)
    got = {c.lits for c in library_clauses}
    problems = []
    if got - want:
        problems.append(f"projected but not by definition: {sorted(got - want)[:3]}")
    if want - got:
        problems.append(f"missing from the projection: {sorted(want - got)[:3]}")
    return problems

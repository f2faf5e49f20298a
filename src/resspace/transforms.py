"""Structural transformations of resolution refutations: weakening
elimination and conversion to frugal form.

Both are measure-dominating: the output never exceeds the input in
length, width, clause space, total space, or variable space.  They work on
k=1 syntactic derivations whose inferences are cuts (resolution steps) and,
for weakening elimination, weakenings.
"""

from __future__ import annotations

import itertools

from .errors import InvalidInputError, NotARefutationError
from .logic import Clause, KDnfFormula
from .proofs import (
    Derivation,
    DerivationBuilder,
    Inference,
    SYNTACTIC,
    match_cut,
    walk,
    zero_formula,
)


def _require_resolution(deriv: Derivation, allow_weakening: bool):
    if deriv.k != 1 or deriv.mode != SYNTACTIC:
        raise InvalidInputError("expected a syntactic resolution derivation")
    if deriv.assumptions:
        # the transforms rebuild a derivation from its downloads alone
        raise InvalidInputError("expected a derivation without assumptions")
    allowed = {"cut", "weak"} if allow_weakening else {"cut"}
    for i, step in enumerate(deriv.steps):
        if not isinstance(step, Inference):
            continue
        if step.rule not in allowed:
            raise InvalidInputError(f"step {i}: rule {step.rule} not supported")
        if any(not t.lits for t in step.formula.terms):
            # an empty term makes the line tautological, not a clause
            raise InvalidInputError(f"step {i}: line carries an empty term")


# ---------------------------------------------------------------------------
# weakening elimination


def eliminate_weakening(deriv: Derivation) -> Derivation:
    """Drop all weakening steps, keeping the retained subclauses.

    Forward induction: every input line maps to a live output line holding
    a subclause of it.  Weakenings alias their premise's line; resolutions
    whose strengthened premise lost the pivot alias that premise instead of
    resolving.  Output lines are reference-counted so an erasure fires only
    when the last alias dies.
    """
    _require_resolution(deriv, allow_weakening=True)
    out = DerivationBuilder(deriv.formula, k=1)
    alias: dict[int, int] = {}
    refcount: dict[int, int] = {}

    def adopt(input_id, out_id):
        alias[input_id] = out_id
        refcount[out_id] = refcount.get(out_id, 0) + 1

    for _, ev, _ in itertools.islice(walk(deriv), 1, None):
        if ev.kind == "axiom":
            adopt(ev.new_id, out.download(ev.formula.as_clause()))
        elif ev.kind == "erase":
            o = alias[ev.new_id]
            refcount[o] -= 1
            if refcount[o] == 0:
                out.erase(o)
        elif ev.rule == "weak":
            adopt(ev.new_id, alias[ev.premises[0]])
        else:  # cut: on clauses match_cut is symmetric and finds a unit term
            pos_in, neg_in = ev.premises
            x = match_cut(*ev.premise_values, ev.formula).lits[0]
            a = out.clause_value(alias[pos_in])
            b = out.clause_value(alias[neg_in])
            if x in a and -x in b:
                resolvent = Clause(
                    [l for l in a.lits if l != x] + [l for l in b.lits if l != -x]
                )
                adopt(
                    ev.new_id,
                    out.infer_clause("cut", [alias[pos_in], alias[neg_in]], resolvent),
                )
            elif x not in a:
                adopt(ev.new_id, alias[pos_in])
            else:
                adopt(ev.new_id, alias[neg_in])
    return out.build()


# ---------------------------------------------------------------------------
# frugality


def make_frugal(deriv: Derivation) -> Derivation:
    """Rebuild the refutation so that every configuration is essential.

    Backward pass from the first empty-clause configuration: keep an
    inference only if its conclusion is still needed, replacing it by its
    premises, and note which premises no later step needs; keep a download
    only if its clause is needed.  Forward emission inserts the inference
    and immediately erases the premises so noted.
    """
    _require_resolution(deriv, allow_weakening=False)
    zero = zero_formula(1)
    events, reached = [], False
    for _, ev, _ in itertools.islice(walk(deriv), 1, None):
        if not reached:  # past the first zero the steps are only checked
            events.append(ev)
            reached = ev.formula == zero
    if not reached:
        raise NotARefutationError("derivation never reaches the empty clause")
    cur = {zero}
    ops_rev = []
    for ev in reversed(events):
        if ev.kind == "axiom":
            if ev.formula in cur:
                ops_rev.append(("axiom", ev.formula))
                cur.discard(ev.formula)
        elif ev.kind == "infer":
            d = ev.formula
            if d in cur:
                c1, c2 = ev.premise_values
                # the premises no later step needs (cur still holds d)
                last_use = sorted({c1, c2} - cur, key=lambda f: f.terms)
                ops_rev.append(("infer", d, c1, c2, last_use))
                cur.discard(d)
                cur.add(c1)
                cur.add(c2)
        # erasures are ignored: the emission erases at last use
    if cur:
        raise AssertionError("essential clauses must be grounded in downloads")

    out = DerivationBuilder(deriv.formula, k=1)
    ids: dict[KDnfFormula, int] = {}
    for op in reversed(ops_rev):
        if op[0] == "axiom":
            line = op[1]
            ids[line] = out.download(line.as_clause())
        else:
            _, d, c1, c2, last_use = op
            ids[d] = out.infer("cut", [ids[c1], ids[c2]], d)
            for premise in last_use:
                out.erase(ids.pop(premise))
    return out.build()


def is_frugal(deriv: Derivation) -> bool:
    """Essential clauses by backward induction from the first empty-clause
    configuration, then the forward essential-configuration predicate."""
    _require_resolution(deriv, allow_weakening=False)
    walked = [(ev, board.values()) for _, ev, board in walk(deriv)]
    events, boards = zip(*walked)  # events[t] leads to boards[t]
    zero = zero_formula(1)
    s = next((t for t, b in enumerate(boards) if zero in b), None)
    if s is None:
        raise NotARefutationError("derivation never reaches the empty clause")
    essential = [set() for _ in boards]
    essential[s] = {zero}
    for t in range(s, 0, -1):
        ev, here, below = events[t], essential[t], essential[t - 1]
        if ev.kind == "infer" and ev.formula in here:
            below.update(ev.premise_values)
        below.update(here & boards[t - 1])
    return all(
        boards[t] <= essential[t]
        or events[t].kind == "erase"
        or (
            events[t].kind == "infer"
            and events[t].formula in essential[t]
            and boards[t - 1] <= essential[t - 1]
        )
        for t in range(1, len(boards))
    )

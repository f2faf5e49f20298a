"""Definitional references shared by the test modules: plain constructions
from the definitions that the library's own paths are checked against."""

from __future__ import annotations

import itertools

from resspace.boolfunc import BooleanFunction, SubstitutionVarMap
from resspace.errors import NotImpliedError
from resspace.logic import (
    Clause,
    CnfFormula,
    KDnfFormula,
    Term,
    assignment_from_bits,
    implies,
    negating_restriction,
    restrict_clause,
)
from resspace.minimal import _clause_universe, _gap_free_mask, _renamed_lits
from resspace.proofs import AxiomDownload, DerivationBuilder, Inference


def all_assignments(variables):
    """All assignments over the given variables, in bit order."""
    vs = sorted(variables)
    for bits in range(1 << len(vs)):
        yield assignment_from_bits(vs, bits)


def custom_function(table) -> BooleanFunction:
    table = tuple(table)
    d = (len(table) - 1).bit_length()
    return BooleanFunction("custom", d, table)


def minterm_dnf(f: BooleanFunction, var: int, positive: bool = True, k=None) -> KDnfFormula:
    """The canonical d-DNF for f over the block of ``var``: one full-width
    term per satisfying assignment."""
    varmap = SubstitutionVarMap(f.d)
    block = varmap.block(var)
    terms = []
    for bits in range(1 << f.d):
        if f.value(bits) == positive:
            terms.append(
                Term([block[i] if (bits >> i) & 1 else -block[i] for i in range(f.d)])
            )
    return KDnfFormula(terms, k=f.d if k is None else k)


# The min-unsat loops as they were before they ran on arrays and bit sets:
# plain Python over the same masks, kept as the oracles of the faster ones.


def canonical_classes(universe, hits, var_masks, rename):
    """The classes of the hits under renaming of the used variables, each as
    its least sorted index tuple, sorted and deduplicated.

    A hit is a tuple of universe indices; hits whose used variables are not
    a prefix 1..v are skipped.  ``rename(item, perm)`` maps an item through
    a permutation of 1..v and stays inside the universe.  The universe is
    sorted in output order, so the least index tuple is the least item
    tuple.  An item's images are computed on first use only.
    """
    index_of = {item: i for i, item in enumerate(universe)}
    perms = {}
    images = {}  # (v, i) -> index of item i under each permutation of 1..v
    classes = set()
    for hit in hits:
        vm = 0
        for i in hit:
            vm |= var_masks[i]
        if not _gap_free_mask(vm):
            continue
        v = vm.bit_length()
        if v not in perms:
            perms[v] = list(itertools.permutations(range(1, v + 1)))
        rows = []
        for i in hit:
            row = images.get((v, i))
            if row is None:
                row = images[v, i] = [
                    index_of[rename(universe[i], p)] for p in perms[v]
                ]
            rows.append(row)
        classes.add(min(tuple(sorted(col)) for col in zip(*rows)))
    return sorted(classes)


def kdnf_scan(sats, var_masks, req_masks, max_formulas, full):
    """The k-DNF scan's hits, one pair or triple of Python ints at a time."""
    def shrink_ok(members):
        for a in members:
            others = full
            for b in members:
                if b != a:
                    others &= sats[b]
            for req in req_masks[a]:
                if not others & req:
                    return False
        return True

    n = len(sats)
    hits = []
    for i in range(n):
        si = sats[i]
        for j in range(i + 1, n):
            joint = si & sats[j]
            if joint == si:
                continue
            if joint == 0:
                if (
                    max_formulas >= 2
                    and _gap_free_mask(var_masks[i] | var_masks[j])
                    and shrink_ok((i, j))
                ):
                    hits.append((i, j))
            elif max_formulas >= 3:
                for l in range(j + 1, n):
                    if sats[l] & joint:
                        continue
                    if _gap_free_mask(
                        var_masks[i] | var_masks[j] | var_masks[l]
                    ) and shrink_ok((i, j, l)):
                        hits.append((i, j, l))
    return hits


def cover_dfs(masks, npoints, max_cubes, visit):
    """Call ``visit(chosen)`` on every irredundant cover of ``npoints``
    points by at most ``max_cubes`` of the subcube masks, in DFS order.
    ``chosen`` lists mask indices in branching order and is reused after
    ``visit`` returns."""
    full_mask = (1 << npoints) - 1
    point_sets = [
        [i for i, m in enumerate(masks) if (m >> p) & 1] for p in range(npoints)
    ]

    def rec(covered, twice, chosen, forbidden):
        # twice: the points covered by at least two chosen cubes, so a
        # cube's private points are its points outside twice
        if covered == full_mask:
            visit(chosen)
            return
        if len(chosen) >= max_cubes:
            return
        p = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered point
        tried = []
        for c in point_sets[p]:
            if c in forbidden:
                continue
            m = masks[c]
            now_twice = twice | (covered & m)
            if m & ~now_twice:
                for i in chosen:
                    if not masks[i] & ~now_twice:
                        break
                else:
                    chosen.append(c)
                    rec(covered | m, now_twice, chosen, forbidden | set(tried))
                    chosen.pop()
            tried.append(c)

    rec(0, 0, [], frozenset())


def enumerate_cnf(max_vars, max_formulas):
    """The k = 1 enumeration as it was before it walked from orbit
    representatives: every labelled irredundant cover of the clause
    universe, folded into its classes under renaming."""
    universe, masks, var_masks = _clause_universe(max_vars)
    covers = []
    cover_dfs(masks, 1 << max_vars, max_formulas, lambda c: covers.append(tuple(c)))
    classes = canonical_classes(
        universe, covers, var_masks, lambda c, p: Clause(_renamed_lits(c.lits, p))
    )
    return [tuple(KDnfFormula.from_clause(universe[i]) for i in best) for best in classes]


# The minimality checker as it was before one sweep answered every shrink:
# one implication sweep for the set and one per single-literal shrink.


def _with_term_replaced(formula: KDnfFormula, old: Term, new: Term) -> KDnfFormula:
    terms = [t for t in formula.terms if t != old] + [new]
    return KDnfFormula(terms, k=formula.k)


def minimally_implies(formulas, goal) -> bool:
    """True iff the set implies the goal and every single-term shrink stops
    implying it."""
    formulas = list(formulas)
    if not implies(formulas, [goal]):
        return False
    for i, d in enumerate(formulas):
        for t in d.terms:
            for lit in t.lits:
                shrunk = list(formulas)
                shrunk[i] = _with_term_replaced(d, t, t.without(lit))
                if implies(shrunk, [goal]):
                    return False
    return True


# The resolution compiler's splice, as it was before each target was derived
# straight into the proof: a fragment derivation copied onto the builder.


def inline(builder, fragment, bindings):
    """Splice a fragment's steps onto the builder, binding its downloads of
    clauses in ``bindings`` to existing board lines (those are borrowed:
    their erasures inside the fragment are dropped).  Returns the id map."""
    idmap = {}
    borrowed = set()
    frag_next = 1
    for step in fragment.steps:
        if isinstance(step, AxiomDownload):
            fid = frag_next
            frag_next += 1
            if step.clause in bindings:
                idmap[fid] = bindings[step.clause]
                borrowed.add(fid)
            else:
                idmap[fid] = builder.download(step.clause)
        elif isinstance(step, Inference):
            fid = frag_next
            frag_next += 1
            idmap[fid] = builder.infer(
                step.rule, [idmap[p] for p in step.premises], step.formula
            )
        else:
            if step.target in borrowed:
                continue
            builder.erase(idmap[step.target])
    return idmap


# The in-place implied-clause derivation as it was before it had one leaf
# rule: the empty target derived without a restriction, a separate leaf
# scan, and a final weakening of the root clause into the target.


def derive_implied_clauses(builder: DerivationBuilder, premises: CnfFormula, targets,
                           bound: dict[Clause, int]) -> list[int]:
    """Resolution derivations of each target from the premise clauses,
    appended to the builder in turn; returns the targets' line ids.

    One implication sweep checks every target.  A premise in ``bound`` is
    read from its line already on the board (clause -> id) and is never
    erased; the others are downloaded at each leaf that uses them and
    erased after use.

    Each derivation follows a decision tree that queries variables in
    ascending order.  The tree branches on each variable in turn; as soon
    as the partial assignment falsifies a premise clause, that clause
    becomes a leaf.  Folding the tree bottom-up with resolutions yields the
    empty clause under the restriction that falsifies the target; lifting
    the restriction back pairs every leaf with one weakening.  Length stays
    below 2^(n+1)-1 and total space below n(n+2) for n distinct variables.
    """
    targets = list(targets)
    if not implies(list(premises), targets):
        raise NotImpliedError(
            f"premises do not imply {' and '.join(str(t.lits) for t in targets)}"
        )
    borrowed = set(bound.values())

    def fetch(clause: Clause) -> int:
        return bound[clause] if clause in bound else builder.download(clause)

    def release(line_id: int):
        if line_id not in borrowed:
            builder.erase(line_id)

    def derive(target: Clause) -> int:
        if target.lits:
            rho0 = negating_restriction(target)
            lift = tuple(target.lits)
        else:
            rho0 = None
            lift = ()

        # restricted premises paired with their originals; satisfied ones drop
        work = []
        for c in premises:
            if rho0 is None:
                work.append((c, c))
                continue
            r = restrict_clause(c, rho0)
            if r is True:
                continue
            work.append((Clause() if r is False else r, c))
        variables = sorted(set().union(*(set(rc.variables()) for rc, _ in work), set()))

        def leaf(rho: set):
            """Fetch the first premise falsified by the path (rho holds the
            literals the path made true); weaken into the lifted form when
            a restriction is in play."""
            for rc, orig in work:
                if all(-l in rho for l in rc.lits):
                    if rho0 is None:
                        return fetch(orig), rc
                    lifted = Clause(rc.lits + lift)
                    a = fetch(orig)
                    if lifted == orig:
                        return a, lifted
                    w = builder.infer_clause("weak", [a], lifted)
                    release(a)
                    return w, lifted
            raise AssertionError("unsatisfiable restricted set has a falsified clause")

        def grow(rho: set, depth: int):
            if depth == len(variables):
                return leaf(rho)
            for rc, orig in work:  # close the branch as soon as a premise dies
                if all(-l in rho for l in rc.lits):
                    return leaf(rho)
            x = variables[depth]
            lid, lc = grow(rho | {-x}, depth + 1)
            if x not in lc:
                return lid, lc
            rid, rc_ = grow(rho | {x}, depth + 1)
            if -x not in rc_:
                release(lid)
                return rid, rc_
            resolvent = Clause(
                [l for l in lc.lits if l != x] + [l for l in rc_.lits if l != -x]
            )
            out = builder.infer_clause("cut", [lid, rid], resolvent)
            release(lid)
            release(rid)
            return out, resolvent

        root_id, root_clause = grow(set(), 0)
        if root_clause == target:
            return root_id
        out = builder.infer_clause("weak", [root_id], target)
        release(root_id)
        return out

    return [derive(t) for t in targets]

"""Definitional references shared by the test modules: plain constructions
from the definitions that the library's own paths are checked against."""

from __future__ import annotations

from resspace.boolfunc import BooleanFunction, SubstitutionVarMap
from resspace.logic import KDnfFormula, Term, assignment_from_bits


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

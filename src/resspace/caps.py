"""Resource caps for the brute-force oracles and exhaustive searches.

Every cap can be raised through an environment variable carrying an
explicit UNSAFE marker, e.g. ``RESSPACE_UNSAFE_IMPLIES_VARS=28``.
Exceeding a cap is always a hard error, never a silent approximation.
"""

import os

_ENV_PREFIX = "RESSPACE_UNSAFE_"

_DEFAULTS = {
    # brute-force implication: 2^n assignments
    "IMPLIES_VARS": 24,
    # black-only pebbling search: states are n-bit masks
    "BLACK_SEARCH_VERTICES": 24,
    # black-white pebbling search: states are pairs of disjoint masks
    "BW_SEARCH_VERTICES": 14,
    # visited-state budget for either pebbling search
    "SEARCH_STATES": 8_000_000,
    # projection: candidate clauses are enumerated over Vars(F)
    "PROJECT_BASE_VARS": 12,
    # projection, subset mode: one sweep of |D| member masks, then per clause
    # a frontier of maximal member intersections that can grow with |D|.
    # Random boards over 18 substituted variables took at most 0.17 s up to
    # 40 members, but up to 2.6 s at 60-63 (one board 63 s); the boards of
    # pipeline pyramid:2 with xor:3 reach 23 members and 0.06 s.
    "PROJECT_SUBSET_FORMULAS": 32,
    # projection, whole-set mode
    "PROJECT_WHOLESET_FORMULAS": 64,
    # min-unsat enumeration
    "ENUM_VARS": 8,
    "ENUM_FORMULAS": 18,
    "ENUM_TERMS": 4,
    # clause-set enumeration: labelled covers handed to canonicalisation
    "ENUM_COVERS": 4_000_000,
}


def get_cap(name):
    """Current value of a cap, honoring any unsafe env override."""
    if name not in _DEFAULTS:
        raise KeyError(name)
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return _DEFAULTS[name]
    return int(raw)

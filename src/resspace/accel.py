"""Hot numeric kernels, each with one numpy/Python implementation.

Three inner loops dominate the package's runtime: the brute-force
implication oracle (2^n assignment sweeps, vectorized over chunks of
assignments), breadth-first search over black-pebbling configurations
encoded as bit masks (vectorized over each BFS level), and the DFS that
walks irredundant subcube covers (minimally unsatisfiable CNFs), a plain
recursive search that both the cover enumeration and the cover scan visit.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError

# Always False (no kernel is compiled); the benchmark's run details record it.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# implication counterexample search


def _flatten_side(side):
    """Flatten [(kind, [(pos, neg), ...]), ...] into numpy arrays."""
    kinds, starts, pos, neg = [], [0], [], []
    for kind, rows in side:
        kinds.append(0 if kind == "cnf" else 1)
        for p, n in rows:
            pos.append(p)
            neg.append(n)
        starts.append(len(pos))
    return (
        np.asarray(kinds, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(pos, dtype=np.int64),
        np.asarray(neg, dtype=np.int64),
    )


def _side_sat(a, kinds, starts, pos, neg):
    """Which of the assignment words ``a`` satisfy every formula of a side."""
    sat = np.ones(a.shape, dtype=bool)
    for i in range(kinds.shape[0]):
        lo, hi = starts[i], starts[i + 1]
        if kinds[i] == 0:  # CNF: every clause row must hold
            f_ok = np.ones(a.shape, dtype=bool)
            for r in range(lo, hi):
                f_ok &= ((a & pos[r]) != 0) | ((~a & neg[r]) != 0)
        else:  # DNF: some term row must hold
            f_ok = np.zeros(a.shape, dtype=bool)
            for r in range(lo, hi):
                f_ok |= ((a & pos[r]) == pos[r]) & ((a & neg[r]) == 0)
        sat &= f_ok
    return sat


def find_counterexample(nvars, prem_side, conc_side):
    """First assignment (as a bit word) satisfying every premise formula but
    not every conclusion formula, or None if no such assignment exists."""
    prem = _flatten_side(prem_side)
    conc = _flatten_side(conc_side)
    total = 1 << nvars
    chunk = min(total, 1 << 18)
    for base in range(0, total, chunk):
        a = np.arange(base, min(base + chunk, total), dtype=np.int64)
        good = _side_sat(a, *prem)
        if not good.any():
            continue
        idx = np.flatnonzero(good & ~_side_sat(a, *conc))
        if idx.size:
            return int(a[idx[0]])
    return None


# ---------------------------------------------------------------------------
# black-pebbling BFS over bit-mask configurations
#
# The BFS is level-synchronous and expands moves in a fixed order (place on
# vertex 0..n-1, then remove from vertex 0..n-1), so discovery order -- and
# with it the reconstructed witness -- is deterministic.

FOUND, EXHAUSTED, OVERFLOW = 0, 1, 2

_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)


def _popcount(arr):
    return (
        _POPCOUNT16[arr & 0xFFFF]
        + _POPCOUNT16[(arr >> 16) & 0xFFFF]
        + _POPCOUNT16[(arr >> 32) & 0xFFFF]
        + _POPCOUNT16[(arr >> 48) & 0xFFFF]
    )


def black_bfs(n, pred_masks, target, space_cap, state_cap):
    """BFS from the empty configuration over configurations holding at most
    ``space_cap`` pebbles.

    Returns (status, states, parents, moves, target_index); the witness is
    reconstructed by following parents back from target_index.  Move codes:
    v places a black pebble on vertex v, n+v removes it.
    """
    preds = np.asarray(pred_masks, dtype=np.int64)
    target = np.int64(target)
    visited = np.zeros(1 << n, dtype=bool)
    states = np.empty(state_cap, dtype=np.int64)
    parents = np.empty(state_cap, dtype=np.int64)
    moves = np.empty(state_cap, dtype=np.int64)
    states[0], parents[0], moves[0] = 0, -1, -1
    visited[0] = True
    count = 1
    lo, hi = 0, 1
    while lo < hi:
        level = states[lo:hi].copy()
        level_idx = np.arange(lo, hi)
        for mv in range(2 * n):
            place = mv < n
            v = mv if place else mv - n
            bit = np.int64(1) << v
            if place:
                ok = ((level & bit) == 0) & ((level & preds[v]) == preds[v])
                succ = level[ok] | bit
                srcs = level_idx[ok]
                if space_cap <= n:
                    keep = _popcount(succ) <= space_cap
                    succ, srcs = succ[keep], srcs[keep]
            else:
                ok = (level & bit) != 0
                succ = level[ok] & ~bit
                srcs = level_idx[ok]
            if succ.size == 0:
                continue
            new = ~visited[succ]
            succ, srcs = succ[new], srcs[new]
            if succ.size == 0:
                continue
            if count + succ.size > state_cap:
                return OVERFLOW, states[:count], parents[:count], moves[:count], -1
            visited[succ] = True
            states[count : count + succ.size] = succ
            parents[count : count + succ.size] = srcs
            moves[count : count + succ.size] = mv
            hit = np.flatnonzero(succ == target)
            if hit.size:
                end = count + int(hit[0])
                return FOUND, states[: end + 1], parents[: end + 1], moves[: end + 1], end
            count += succ.size
        lo, hi = hi, count
    return EXHAUSTED, states[:count], parents[:count], moves[:count], -1


# ---------------------------------------------------------------------------
# irredundant subcube covers (minimally unsatisfiable CNF enumeration)
#
# Covers of the point set {0,1}^v by subcubes such that every chosen cube
# keeps a private point.  Branching: take the lowest uncovered point and try
# each candidate cube covering it; a candidate already tried at a node is
# forbidden throughout the sibling subtrees, so each cover is visited once.
# The private-point requirement is monotone (more cubes only shrink private
# regions), which makes pruning on partial choices sound.


def _cover_dfs(masks, npoints, max_cubes, visit):
    """Call ``visit(chosen)`` on every irredundant cover of ``npoints``
    points by at most ``max_cubes`` of the subcube masks, in DFS order.
    ``chosen`` lists mask indices in branching order and is reused after
    ``visit`` returns."""
    full_mask = (1 << npoints) - 1
    point_sets = [
        [i for i, m in enumerate(masks) if (m >> p) & 1] for p in range(npoints)
    ]

    def private_ok(chosen):
        for i in range(len(chosen)):
            rest = 0
            for j in range(len(chosen)):
                if i != j:
                    rest |= masks[chosen[j]]
            if masks[chosen[i]] & ~rest & full_mask == 0:
                return False
        return True

    def rec(covered, chosen, forbidden):
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
            chosen.append(c)
            if private_ok(chosen):
                rec(covered | masks[c], chosen, forbidden | set(tried))
            chosen.pop()
            tried.append(c)

    rec(0, [], frozenset())


def cover_enumeration(masks, npoints, max_cubes, out_limit=4_000_000):
    """All irredundant covers of ``npoints`` points by the given subcube
    masks, each cover a sorted tuple of mask indices, in DFS order.

    Raises CapExceededError once more than ``out_limit`` covers are found.
    """
    results = []

    def visit(chosen):
        results.append(tuple(sorted(chosen)))
        if len(results) > out_limit:
            raise CapExceededError(
                f"cover enumeration found more than {out_limit} covers"
            )

    _cover_dfs(masks, npoints, max_cubes, visit)
    return results


def cover_scan(masks, var_masks, npoints, max_cubes):
    """Walk every irredundant cover, checking the used-variable count stays
    below the cover size; returns (covers, violations, counts-by-size,
    max-vars-by-size) without materializing the covers."""
    n_covers = 0
    violations = 0
    size_counts = [0] * (max_cubes + 2)
    size_max_vars = [0] * (max_cubes + 2)

    def visit(chosen):
        nonlocal n_covers, violations
        n_covers += 1
        m = len(chosen)
        vm = 0
        for c in chosen:
            vm |= var_masks[c]
        nv = bin(vm).count("1")
        size_counts[m] += 1
        size_max_vars[m] = max(size_max_vars[m], nv)
        if nv >= m:
            violations += 1

    _cover_dfs(masks, npoints, max_cubes, visit)
    return n_covers, violations, size_counts, size_max_vars

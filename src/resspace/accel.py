"""Hot numeric kernels, each with one numpy/Python implementation.

Four inner loops dominate the package's runtime: the satisfaction kernel
``sat_mask`` that every brute-force oracle shares (which assignment words
satisfy a formula as ``logic._as_rows`` encodes it, swept over all 2^n
words in chunks by the implication oracle and the minimality sweep, over a
configuration's substituted assignments by projection, over the cube by
the min-unsat masks), the minimality sweep that answers every
single-literal shrink of a k-DNF set in one pass over the cube, one
breadth-first search over black or black-white pebbling configurations
encoded as bit masks (vectorized over each BFS level), and the DFS that
walks irredundant subcube covers (minimally unsatisfiable CNFs), which
both the cover enumeration and the cover scan visit.

The minimality sweep computes each formula's mask once per chunk and
tests each shrink's term only on the words where the other formulas hold
and the goal fails.  ``block_substituted_min_unsat(3, 2)``, 18 variables
and 180 shrinks, takes 0.05 s; one implication sweep for the set and one
per shrink took 5.5 s.

The cover walk runs on Python ints used as bit sets: point sets, the
points covered twice, and the candidates forbidden at a node.  A node
passes its children the candidates it has tried so far with one OR, and
at the last free slot it skips every candidate that would not finish the
cover.  ``scan_min_unsat_cnf(4, 7)`` visits 659,314 covers in 0.66 s; the
walk that built a set of forbidden candidates at every node and had no
last-slot test took 1.28 s.

The two pebble games run one BFS level loop, ``_level_bfs``: it allocates
the arrays and the visited set, records parents and moves, and decides
FOUND and OVERFLOW.  A game supplies only its expansion, the order in which
a level's successors are discovered, and that order fixes the game's
witnesses.  The black search expands a whole level one move at a time
(move-major).  Run in source-major order it returns other witnesses (on 21
of the 30 budgets of pyramid:4 and binary_tree:3) and was slower when
measured: its pyramid:5 sweep took 9.0 s instead of 2.4 s.  The black-white search
expands one source state at a time (source-major), the order of the
frozenset BFS it replaced, in chunks of sources.  It drops visited
successors before ``np.unique``; deduplicating first made its pyramid:3
sweep 45 % slower (0.10 s to 0.146 s).  Times on 2 cores, Python 3.11,
numpy 2.4.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError

# Always False (no kernel is compiled); the benchmark's run details record it.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# formula satisfaction and the implication counterexample search


def sat_mask(a, kind, rows):
    """Which of the assignment words ``a`` satisfy the formula that
    ``logic._as_rows`` encodes as (kind, [(pos, neg), ...]).

    A clause row holds off the one subcube it falsifies, a term row on the
    one subcube it fixes.  A row with a variable in both masks is skipped: a
    tautological clause always holds, a contradictory term never does.  With
    no rows left a CNF holds everywhere and a DNF nowhere.
    """
    cnf = kind == "cnf"
    out = None
    for pos, neg in rows:
        if pos & neg:
            continue
        fixed = a & (pos | neg)
        hit = fixed != neg if cnf else fixed == pos
        if out is None:
            out = hit
        elif cnf:
            out &= hit
        else:
            out |= hit
    return np.full(a.shape, cnf) if out is None else out


def _sat_all(a, side):
    """Which of the assignment words ``a`` satisfy every formula of a side."""
    sat = np.ones(a.shape, dtype=bool)
    for kind, rows in side:
        sat &= sat_mask(a, kind, rows)
    return sat


def _cube_chunks(nvars):
    """All 2^nvars assignment words, ascending, in chunks of at most 2^18."""
    total = 1 << nvars
    chunk = min(total, 1 << 18)
    for base in range(0, total, chunk):
        yield np.arange(base, min(base + chunk, total), dtype=np.int64)


def find_counterexample(nvars, prem_side, conc_side):
    """First assignment (as a bit word) satisfying every premise formula but
    not every conclusion formula, or None if no such assignment exists.
    Each side is a list of (kind, rows) as sat_mask takes them."""
    for a in _cube_chunks(nvars):
        good = _sat_all(a, prem_side)
        if not good.any():
            continue
        idx = np.flatnonzero(good & ~_sat_all(a, conc_side))
        if idx.size:
            return int(a[idx[0]])
    return None


def minimality_sweep(nvars, formulas, goal, shrinks):
    """Whether the formulas jointly imply the goal and every shrink breaks
    the implication, in one sweep of the assignment cube.

    ``formulas`` is a list of (kind, rows) and ``goal`` one (kind, rows), as
    sat_mask takes them.  ``shrinks[i]`` lists term rows (pos, neg) to be
    added one at a time to formula i, a DNF.  While the formulas imply the
    goal, adding term r to formula i breaks the implication iff some
    assignment satisfies every other formula and r but not the goal.  Each
    chunk takes those "other formulas, not the goal" masks from prefix and
    suffix conjunctions, and tests only the shrinks not yet broken.
    """
    pending = list(shrinks)
    for a in _cube_chunks(nvars):
        sats = [sat_mask(a, kind, rows) for kind, rows in formulas]
        prefix = [~sat_mask(a, *goal)]  # prefix[i]: not the goal, formulas < i
        for sat in sats:
            prefix.append(prefix[-1] & sat)
        if prefix[-1].any():
            return False  # a counterexample to the implication itself
        suffix = np.ones(a.shape, dtype=bool)  # formulas > i
        for i in reversed(range(len(sats))):
            if pending[i]:
                words = a[prefix[i] & suffix]
                pending[i] = [
                    row for row in pending[i] if not sat_mask(words, "dnf", [row]).any()
                ]
            suffix = suffix & sats[i]
    return not any(pending)


# ---------------------------------------------------------------------------
# pebbling BFS over bit-mask configurations
#
# One level-synchronous loop runs both games.  A game supplies its expansion:
# given a level's states and the visited set, it yields batches (succ, src,
# move, key) of fresh, distinct successors in the game's discovery order,
# with each successor's source index within the level, its move code and its
# visited-set key.  The loop records each batch up to the target and marks it
# visited before the next batch is made, so later batches see it.

FOUND, EXHAUSTED, OVERFLOW = 0, 1, 2

def _level_bfs(expand, nstates, target, state_cap):
    """BFS from state 0 (visited-set key 0) over what ``expand`` reaches,
    with a visited set of ``nstates`` keys.

    Returns (status, states, parents, moves, target_index); the witness is
    reconstructed by following parents back from target_index.  OVERFLOW is
    returned as soon as more than ``state_cap`` states, the empty one and the
    target included, have been discovered.
    """
    # One block, not three arrays: three separate 16 MB arrays (black
    # pyramid:5) fall under glibc's adaptive mmap threshold, and the
    # exhaustive benchmark's peak RSS grew by 29 %.
    size = min(state_cap, nstates) + 1
    states, parents, moves = np.empty((3, size), dtype=np.int64)
    visited = np.zeros(nstates, dtype=bool)
    states[0], parents[0], moves[0] = 0, -1, -1
    visited[0] = True
    count, lo, hi = 1, 0, 1
    while lo < hi:
        for succ, src, move, key in expand(states[lo:hi], visited):
            if succ.size == 0:
                continue
            hit = np.flatnonzero(succ == target)
            stop = int(hit[0]) + 1 if hit.size else succ.size
            if count + stop > state_cap:
                return OVERFLOW, states[:count], parents[:count], moves[:count], -1
            new = slice(count, count + stop)
            visited[key[:stop]] = True
            states[new] = succ[:stop]
            parents[new] = lo + src[:stop]
            moves[new] = move[:stop]
            count += stop
            if hit.size:
                return FOUND, states[:count], parents[:count], moves[:count], count - 1
        lo, hi = hi, count
    return EXHAUSTED, states[:count], parents[:count], moves[:count], -1


def black_bfs(n, pred_masks, target, space_cap, state_cap):
    """BFS from the empty configuration over configurations holding at most
    ``space_cap`` pebbles.

    Returns (status, states, parents, moves, target_index) as _level_bfs
    does.  Move codes: v places a black pebble on vertex v, n+v removes it.
    """
    preds = np.asarray(pred_masks, dtype=np.int64)

    def expand(level, visited):
        # move-major: one batch per move (place on vertex 0..n-1, then remove
        # from vertex 0..n-1) over the whole level; a move maps distinct
        # states to distinct states
        room = np.bitwise_count(level) < space_cap
        for mv in range(2 * n):
            v = mv % n
            bit = np.int64(1) << v
            if mv < n:  # room left, v empty and every predecessor pebbled
                ok = room & ((level & (bit | preds[v])) == preds[v])
            else:
                ok = (level & bit) != 0
            src = np.flatnonzero(ok)
            succ = level[src] ^ bit
            fresh = ~visited[succ]
            succ, src = succ[fresh], src[fresh]
            yield succ, src, np.full(succ.size, mv), succ

    return _level_bfs(expand, 1 << n, target, state_cap)


# A black-white state is one int64, black | white << n.  Its visited-set key
# is the base-3 code of (black, white): 3^n keys, 4.8M at the 14-vertex cap,
# where one per 2n-bit word would take 256 MB.

_BW_CHUNK = 1 << 13


def _base3_table(n):
    """Entry m is the base-3 number whose digit i is bit i of m."""
    table = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        table[1 << i : 2 << i] = table[: 1 << i] + 3**i
    return table


def bw_bfs(n, pred_masks, target, space_cap, state_cap):
    """BFS from the empty configuration over black-white configurations
    holding at most ``space_cap`` pebbles.

    Same return shape as black_bfs.  Move codes: kind * n + v for the kinds
    pb, rb, pw, rw on vertex v.
    """
    full = (1 << n) - 1
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    wbits = bits << n
    preds = np.asarray(pred_masks, dtype=np.int64)
    base3 = _base3_table(n)

    def expand(level, visited):
        # source-major: each source in turn, each by move code kind * n + v,
        # keeping a successor's first occurrence; chunks of sources keep that
        # order and bound the working set
        for start in range(0, level.size, _BW_CHUNK):
            src = level[start : start + _BW_CHUNK, None]
            black, white = src & full, src >> n
            on = black | white
            room = np.bitwise_count(on) < space_cap
            empty = (on & bits) == 0
            ready = (on & preds) == preds
            ok = np.concatenate(
                (
                    room & empty & ready,
                    (black & bits) != 0,
                    room & empty,
                    ((white & bits) != 0) & ready,
                ),
                axis=1,
            )
            succ = np.concatenate(
                (src | bits, src & ~bits, src | wbits, src & ~wbits), axis=1
            )
            cand = np.flatnonzero(ok)
            succ = succ.ravel()[cand]
            codes = base3[succ & full] + 2 * base3[succ >> n]
            # the visited filter first: it shrinks what np.unique sorts
            fresh = ~visited[codes]
            cand, succ, codes = cand[fresh], succ[fresh], codes[fresh]
            first = np.sort(np.unique(codes, return_index=True)[1])
            cand = cand[first]
            yield succ[first], start + cand // (4 * n), cand % (4 * n), codes[first]

    return _level_bfs(expand, 3**n, target, state_cap)


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
        [(i, m, 1 << i) for i, m in enumerate(masks) if (m >> p) & 1]
        for p in range(npoints)
    ]
    chosen = []
    chosen_masks = []

    def rec(covered, twice, forbidden):
        # twice: the points covered by at least two chosen cubes, so a
        # cube's private points are its points outside twice; forbidden: the
        # candidates the ancestors tried before branching here, as a bit set
        if covered == full_mask:
            visit(chosen)
            return
        if len(chosen) >= max_cubes:
            return
        p = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered point
        last = len(chosen) + 1 == max_cubes  # the next cube must finish the cover
        tried = forbidden
        for c, m, bit in point_sets[p]:
            if tried & bit or (last and covered | m != full_mask):
                tried |= bit
                continue
            now_twice = twice | (covered & m)
            free = ~now_twice
            if m & free:
                for other in chosen_masks:
                    if not other & free:
                        break
                else:
                    chosen.append(c)
                    chosen_masks.append(m)
                    rec(covered | m, now_twice, tried)
                    chosen.pop()
                    chosen_masks.pop()
            tried |= bit

    rec(0, 0, 0)


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
        nv = vm.bit_count()
        size_counts[m] += 1
        size_max_vars[m] = max(size_max_vars[m], nv)
        if nv >= m:
            violations += 1

    _cover_dfs(masks, npoints, max_cubes, visit)
    return n_covers, violations, size_counts, size_max_vars

"""Hot numeric kernels, each with one numpy/Python implementation.

Five inner loops dominate the package's runtime: the satisfaction kernel
``sat_mask`` that every brute-force oracle shares (which assignment words
satisfy a formula as ``logic._as_rows`` encodes it, swept over all 2^n
words in chunks by the implication oracle and the minimality sweep, over a
configuration's substituted assignments by projection, over the cube by
the min-unsat masks), the minimality sweep that answers every
single-literal shrink of a k-DNF set in one pass over the cube, the
breadth-first searches over black and over black-white pebbling
configurations encoded as bit masks, and the DFS that walks irredundant
subcube covers (minimally unsatisfiable CNFs), which both the cover
enumeration and the cover scan visit.

The minimality sweep computes each formula's mask once per chunk and
tests each shrink's term only on the words where the other formulas hold
and the goal fails.  ``block_substituted_min_unsat(3, 2)``, 18 variables
and 180 shrinks, takes 0.05 s; one implication sweep for the set and one
per shrink took 5.5 s.

The cover walk runs on Python ints used as bit sets: point sets, the
points covered twice, and the candidates forbidden at a node.  It keeps its
open nodes on an explicit stack and yields each cover from one frame, so
the enumeration streams its covers.  A node passes its children the
candidates it has tried so far with one OR, and the last free slot tries
only the candidates holding both the lowest and the highest uncovered
point, the AND of two per-point bit sets.  The scan can start from a given
cube with some candidates excluded and weight each cover it walks; the
clause-set scan uses that to walk one representative clause per narrowest
width.  ``scan_min_unsat_cnf(4, 7)`` walks 94,455 covers in 0.19 s where
the walk over all 659,314 labelled covers took 1.5 s, and
``scan_min_unsat_cnf(4, 16)`` walks 1,705,629 in 3.9 s instead of all
15,097,499 in 39 s.  The enumeration walks from a list of such starts, one
per orbit representative, under one cover cap: at (4, 6) it walks 45,897
covers in 0.095 s where all 126,058 labelled covers took 0.21 s.

The two pebble games run one level-synchronous BFS each, and a game's
discovery order fixes its witnesses.  The black search holds each level
as a bit set over all 2^n configurations, so one word operation moves 64
of them: a level is the OR of the 2n moves applied to the one before,
minus the visited set.  It records no parents.  The witness is walked back
from the target, each step taking the smallest move code from a
configuration one level down: the parent that the move-major order (one
move at a time over the whole level) records.  Run in source-major order,
the black search returns other witnesses (on 21 of the 30 budgets of
pyramid:4 and binary_tree:3).  The visited count at the target is the
levels below it plus the target's rank in its own level.  The working set
is one mask per vertex and move direction plus a few level-sized sets, 13
MB at pyramid:5's largest budget, where the move-major loop over lists of
states took 58 MB.  A level is expanded only on its live span, the words
from its first to its last nonzero one: each move reads the part of it
whose image stays in range, and the visited filter, the count and the
recording run over the words the moves can write from there, a window
worked out once per level.  So a level costs what its span holds, not a
fixed ~1.5 ms at pyramid:5.  The pyramid:5 sweep over all 21 budgets takes
0.53-0.57 s, against 1.02-1.05 s with every level expanded over all 2^n
configurations and 4.0-4.7 s for the lists of states; the pyramid:5 price
search takes 0.095 s instead of 0.24-0.26 s, and the bit_reversal:3 sweep
(n = 16) 0.050 s instead of 0.056-0.059 s.
The black-white search has 3^n keys and expands one source
state at a time (source-major), the order of the frozenset BFS it
replaced, in chunks of sources, recording parents.  It drops visited
successors before ``np.unique``; deduplicating first made its pyramid:3
sweep 45 % slower (0.10 s to 0.146 s).  Times on 2 cores, Python 3.11,
numpy 2.4.
"""

from __future__ import annotations

import math

import numpy as np

from .caps import get_cap
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

FOUND, EXHAUSTED, OVERFLOW = 0, 1, 2

# A set of black configurations is a uint64 array of 2^max(n, 6) / 64 words:
# configuration x (bit v set iff vertex v + 1 holds a pebble) is bit x & 63
# of word x >> 6.  A move on vertex v < 6 shifts every word by 2^v under an
# in-word mask; a move on v >= 6 shifts whole words by k = 2^(v - 6), as
# contiguous slices (strided (-1, 2, k) views took up to 9x as long at small
# k).  A placement's sources are masked by one word array per vertex (every
# predecessor pebbled, v empty, fewer than space_cap pebbles), a removal's
# by "v pebbled".


def _in_word(keep):
    """The uint64 whose bit b is set iff keep(b), for the 64 positions b."""
    return np.uint64(sum(1 << b for b in range(64) if keep(b)))


_ONES = ~np.uint64(0)
# positions with bit v clear (v < 6); positions with fewer than j one bits
_IN_CLEAR = [_in_word(lambda b, v=v: not b >> v & 1) for v in range(6)]
_IN_SET = [~m for m in _IN_CLEAR]
_IN_SHIFT = [np.uint64(1 << v) for v in range(6)]
_IN_FEWER = np.array(
    [_in_word(lambda b, j=j: b.bit_count() < j) for j in range(8)], dtype=np.uint64
)


class _BlackMoves:
    """The 2n moves of one black search as word operations on sets."""

    def __init__(self, n, pred_masks, space_cap):
        self.n = n
        self.words = max(1 << n, 64) >> 6
        index = np.arange(self.words, dtype=np.int64)
        # a configuration's pebble count is its word index's popcount plus
        # its position's, so "fewer than space_cap" is one of 8 in-word masks;
        # a budget past n allows as much as n, and the subtraction is signed
        # (bitwise_count returns uint8)
        cap = min(max(space_cap, 0), n)
        used = np.bitwise_count(index).astype(np.int64)
        room = _IN_FEWER[np.clip(cap - used, 0, 7)]
        self.place = np.empty((n, self.words), dtype=np.uint64)
        self.drop = []  # vertex 6 + i: all ones on the words where it is pebbled
        for v, preds in enumerate(pred_masks):
            low, high = preds & 63, preds >> 6
            in_word = _in_word(lambda b: b & low == low)
            if v < 6:
                in_word &= _IN_CLEAR[v]
                need = high
            else:
                need = high | 1 << (v - 6)
                self.drop.append(np.where(index & 1 << (v - 6), _ONES, np.uint64(0)))
            np.bitwise_and(room, in_word, out=self.place[v])
            self.place[v] *= index & need == high
        self.tmp = np.empty(self.words, dtype=np.uint64)

    def empty(self):
        return np.zeros(self.words, dtype=np.uint64)

    def window(self, lo, hi):
        """The words [a, b) that the 2n moves can write from sources whose
        nonzero words lie in [lo, hi).  A placement on v >= 6 moves its
        sources below W - k up k words, a removal its sources from k on down
        k words, so the widest shifts with a nonempty slice bound the
        window: the largest k below W - lo up, below hi down."""
        up, down = self._widest_shift(self.words - lo), self._widest_shift(hi)
        return max(lo - down, 0), min(hi + up, self.words)

    def _widest_shift(self, x):
        """The largest word shift k = 2^(v - 6) below x, or 0."""
        return min(self.words >> 1, 1 << (x - 1).bit_length() >> 1)

    def expand(self, codes, src, out, lo, hi):
        """out |= the configurations that the moves ``codes`` reach from
        src, whose nonzero words lie in [lo, hi)."""
        n, tmp = self.n, self.tmp
        s, t, o = src[lo:hi], tmp[lo:hi], out[lo:hi]
        for code in codes:
            v = code % n
            if v < 6:  # in-word: x -> x + 2^v, or x -> x - 2^v
                if code < n:
                    np.bitwise_and(s, self.place[v, lo:hi], out=t)
                    t <<= _IN_SHIFT[v]
                else:
                    np.bitwise_and(s, _IN_SET[v], out=t)
                    t >>= _IN_SHIFT[v]
                o |= t
                continue
            k = 1 << (v - 6)
            if code < n:  # x -> x + 2^v: sources below W - k
                a, b = lo, min(hi, self.words - k)
                if a < b:
                    np.bitwise_and(src[a:b], self.place[v, a:b], out=tmp[a:b])
                    out[a + k : b + k] |= tmp[a:b]
            else:  # x -> x - 2^v: sources from k on
                a, b = max(lo, k), hi
                if a < b:
                    np.bitwise_and(src[a:b], self.drop[v - 6][a:b], out=tmp[a:b])
                    out[a - k : b - k] |= tmp[a:b]

    def undo(self, code, src, out):
        """out = the configurations from which move ``code`` reaches src, for
        src within the move's image."""
        v = code % self.n
        back = code >= self.n  # undoing a removal puts the pebble back
        if v < 6:
            shift = _IN_SHIFT[v]
            (np.left_shift if back else np.right_shift)(src, shift, out=out)
            return
        k = 1 << (v - 6)
        out[:] = 0
        if back:
            out[k:] = src[:-k]
        else:
            out[:-k] = src[k:]


def _popcount(words):
    return int(np.bitwise_count(words).sum())


def _has(words, x):
    return int(words[x >> 6]) >> (x & 63) & 1


class _Levels:
    """BFS levels of the visited configurations, stored bit-sliced: plane j
    holds the configurations whose level has bit j set.  A removal can have
    no one-move inverse, so an in-neighbour of a level-d configuration may
    lie at any level from d - 1 up; only the exact level tells the parents
    apart."""

    def __init__(self, start):
        self.visited = start.copy()
        self.planes = []

    def add(self, depth, new, lo, hi):
        """Record the level ``new``, whose nonzero words lie in [lo, hi)."""
        self.visited[lo:hi] |= new[lo:hi]
        if depth == 1 << len(self.planes):
            self.planes.append(np.zeros_like(new))
        for j, plane in enumerate(self.planes):
            if depth >> j & 1:
                plane[lo:hi] |= new[lo:hi]

    def depth_of(self, x):
        """x's level, or -1 if x was not visited."""
        if not _has(self.visited, x):
            return -1
        return sum(_has(plane, x) << j for j, plane in enumerate(self.planes))

    def level(self, depth):
        out = self.visited.copy()
        for j, plane in enumerate(self.planes):
            out &= plane if depth >> j & 1 else ~plane
        return out


def black_bfs(n, pred_masks, target, space_cap, state_cap):
    """BFS from the empty configuration over configurations holding at most
    ``space_cap`` pebbles, one bit-packed level at a time.

    Returns (status, visited, witness).  The move codes are v to place a
    black pebble on vertex v and n + v to remove it.  The BFS is move-major:
    a level's successors are discovered move code by move code, each over
    the previous level in its discovery order.  ``visited`` is a range as
    long as the configurations discovered when the search stops: every
    level, on EXHAUSTED; the levels up to the target's and its own up to
    the target, on FOUND; the levels below the one that exceeds
    ``state_cap``, on OVERFLOW (the sparse move-major loop this replaced
    also counted the part of that level it had expanded).  ``witness`` lists the move codes of the
    path the BFS records to the target on FOUND, else it is None.
    """
    moves = _BlackMoves(n, pred_masks, space_cap)
    level, nxt, unseen = moves.empty(), moves.empty(), moves.empty()
    level[0] = 1  # the empty configuration
    levels = _Levels(level)
    count = depth = 1
    lo, hi = 0, 1  # the level's first and one past its last nonzero word
    while True:
        nxt[:] = 0
        moves.expand(range(2 * n), level, nxt, lo, hi)
        a, b = moves.window(lo, hi)
        new = nxt[a:b]
        new &= np.invert(levels.visited[a:b], out=unseen[a:b])
        live = np.flatnonzero(new)
        if live.size == 0:
            return EXHAUSTED, range(count), None
        lo, hi = a + int(live[0]), a + int(live[-1]) + 1
        size = _popcount(nxt[lo:hi])
        levels.add(depth, nxt, lo, hi)
        if _has(nxt, target):
            witness = _walk_back(moves, levels, target, depth)
            total = count + _rank(moves, levels, nxt, witness) + 1
            if total > state_cap:
                return OVERFLOW, range(count), None
            return FOUND, range(total), witness
        if count + size > state_cap:
            return OVERFLOW, range(count), None
        count += size
        depth += 1
        level, nxt = nxt, level


def _walk_back(moves, levels, target, depth):
    """The move codes of the path the move-major BFS records to the target:
    each configuration's parent is the one a level down from which the
    smallest move code reaches it."""
    n, codes, y = moves.n, [], target
    for d in range(depth - 1, -1, -1):
        for code in range(2 * n):
            v = code % n
            x = y ^ (1 << v)
            if not (_has(moves.place[v], x) if code < n else x > y):
                continue
            if levels.depth_of(x) == d:
                break
        codes.append(code)
        y = x
    codes.reverse()
    return codes


def _rank(moves, levels, top, witness):
    """How many configurations of the target's level the move-major BFS
    discovers before the target.

    A level's discovery order sorts its configurations by the code of the
    move that first reaches them, then by the order of their parents one
    level down.  ``tie`` holds the configurations of level d that the
    target's moves above level d lead to configurations of the target's
    level not yet ordered against it: the ones a smaller move code reaches
    come before the target, and those the target's own move reaches are
    followed to their parents.
    """
    tie, ahead, rest = top.copy(), moves.empty(), moves.empty()
    count = 0
    for d in range(len(witness), 0, -1):
        if _popcount(tie) == 1:  # only the target's ancestor is left
            break
        code, below = witness[d - 1], levels.level(d - 1)
        ahead[:] = 0
        moves.expand(range(code), below, ahead, 0, moves.words)
        ahead &= tie
        count += _popcount(ahead)
        rest[:] = 0
        moves.expand([code], below, rest, 0, moves.words)
        rest &= tie
        rest &= ~ahead
        moves.undo(code, rest, tie)
    return count


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

    Returns (status, visited, witness) as black_bfs does.  Move codes: kind *
    n + v for the kinds pb, rb, pw, rw on vertex v.  The BFS is source-major,
    the order of the frozenset BFS it replaced: each source in turn, each by
    move code, keeping a successor's first occurrence.  Chunks of sources
    keep that order and bound the working set.  OVERFLOW is returned as soon
    as more than ``state_cap`` states, the empty one and the target included,
    have been discovered.
    """
    full = (1 << n) - 1
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    wbits = bits << n
    preds = np.asarray(pred_masks, dtype=np.int64)
    base3 = _base3_table(n)
    # One block, not three arrays: np.empty leaves its pages untouched, so
    # only the discovered prefix costs memory.  Three separate 16 MB arrays
    # (when this loop also ran the black search, at pyramid:5) fell under
    # glibc's adaptive mmap threshold, and the benchmark's peak RSS grew by
    # 29 %.
    size = min(state_cap, 3**n) + 1
    states, parents, codes = np.empty((3, size), dtype=np.int64)
    visited = np.zeros(3**n, dtype=bool)
    states[0], parents[0], codes[0] = 0, -1, -1
    visited[0] = True
    count, lo, hi = 1, 0, 1
    while lo < hi:
        for start in range(lo, hi, _BW_CHUNK):
            src = states[start : min(start + _BW_CHUNK, hi), None]
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
            keys = base3[succ & full] + 2 * base3[succ >> n]
            # the visited filter first: it shrinks what np.unique sorts
            fresh = ~visited[keys]
            cand, succ, keys = cand[fresh], succ[fresh], keys[fresh]
            first = np.sort(np.unique(keys, return_index=True)[1])
            if first.size == 0:
                continue
            cand, succ = cand[first], succ[first]
            hit = np.flatnonzero(succ == target)
            stop = int(hit[0]) + 1 if hit.size else succ.size
            if count + stop > state_cap:
                return OVERFLOW, range(count), None
            new = slice(count, count + stop)
            visited[keys[first[:stop]]] = True
            states[new] = succ[:stop]
            parents[new] = start + cand[:stop] // (4 * n)
            codes[new] = cand[:stop] % (4 * n)
            count += stop
            if hit.size:
                witness, i = [], count - 1
                while parents[i] >= 0:
                    witness.append(int(codes[i]))
                    i = int(parents[i])
                witness.reverse()
                return FOUND, range(count), witness
        lo, hi = hi, count
    return EXHAUSTED, range(count), None


# ---------------------------------------------------------------------------
# irredundant subcube covers (minimally unsatisfiable CNF enumeration)
#
# Covers of the point set {0,1}^v by subcubes such that every chosen cube
# keeps a private point.  Branching: take the lowest uncovered point and try
# each candidate cube covering it; a candidate already tried at a node is
# forbidden throughout the sibling subtrees, so each cover is visited once.
# The private-point requirement is monotone (more cubes only shrink private
# regions), which makes pruning on partial choices sound.


def _cover_dfs(masks, npoints, max_cubes, first=None, excluded=0):
    """Yield ``chosen`` for every irredundant cover of ``npoints`` points by
    at most ``max_cubes`` of the subcube masks, in DFS order: the covers
    that hold cube ``first``, if given, and none of the candidates in the
    bit set ``excluded``.  ``chosen`` lists mask indices in branching order
    (``first`` leads) and is reused once the consumer resumes the walk.

    The walk keeps its open nodes on an explicit stack, so every cover is
    yielded from this one frame.  A node's state is ``covered``; ``twice``,
    the points covered by at least two chosen cubes (a cube's private points
    are its points outside twice); and ``tried``, the candidates its
    ancestors and its earlier branches took, as a bit set.
    """
    full_mask = (1 << npoints) - 1
    holding = [0] * npoints  # per point: the candidates covering it, as bits
    for i, m in enumerate(masks):
        for p in _bits(m):
            holding[p] |= 1 << i
    point_sets = [[(i, masks[i], 1 << i) for i in _bits(h)] for h in holding]
    chosen = []
    chosen_masks = []
    covered = twice = 0
    if first is not None:
        covered = masks[first]
        chosen.append(first)
        chosen_masks.append(covered)
    if covered == full_mask:
        yield chosen
        return
    if len(chosen) >= max_cubes:
        return
    stack = []  # the open ancestors: (covered, twice, tried, candidates left)
    tried = excluded
    opening = True
    while True:
        if opening:  # branch on the lowest uncovered point
            p = ((covered + 1) & ~covered).bit_length() - 1
            if len(chosen) + 1 == max_cubes:
                # the last cube must hold every uncovered point, so only the
                # candidates holding the lowest and the highest are tried
                q = (full_mask & ~covered).bit_length() - 1
                for c in _bits(holding[p] & holding[q] & ~tried):
                    m = masks[c]
                    if covered | m != full_mask:
                        continue
                    free = ~(twice | (covered & m))
                    if m & free:
                        for other in chosen_masks:
                            if not other & free:
                                break
                        else:
                            chosen.append(c)
                            yield chosen
                            chosen.pop()
                candidates = iter(())  # the node closes at once
            else:
                candidates = iter(point_sets[p])
            opening = False
        for c, m, bit in candidates:
            if tried & bit:
                continue
            now_twice = twice | (covered & m)
            free = ~now_twice
            if m & free:
                for other in chosen_masks:
                    if not other & free:
                        break
                else:
                    chosen.append(c)
                    if covered | m == full_mask:
                        yield chosen
                        chosen.pop()
                    else:  # open the child; its siblings will skip c
                        stack.append((covered, twice, tried | bit, candidates))
                        chosen_masks.append(m)
                        covered, twice = covered | m, now_twice
                        opening = True
                        break
            tried |= bit
        else:
            if not stack:
                return
            covered, twice, tried, candidates = stack.pop()
            chosen.pop()
            chosen_masks.pop()


def _bits(x):
    """The positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def cover_enumeration(masks, npoints, max_cubes, starts=((None, 0),)):
    """The irredundant covers of ``npoints`` points by the given subcube
    masks, each a sorted tuple of mask indices: for each (first, excluded)
    of ``starts`` in turn, the covers that _cover_dfs walks from it, in DFS
    order.  The default walks every cover once.

    Raises CapExceededError once more than the ENUM_COVERS cap of covers
    has been found over all the starts.
    """
    limit = get_cap("ENUM_COVERS")
    found = 0
    for first, excluded in starts:
        for chosen in _cover_dfs(masks, npoints, max_cubes, first, excluded):
            found += 1
            if found > limit:
                raise CapExceededError(f"cover enumeration found more than {limit} covers")
            yield tuple(sorted(chosen))


def cover_scan(masks, var_masks, npoints, max_cubes, first=None, excluded=0, orbit=1):
    """Walk the irredundant covers, checking the used-variable count stays
    below the cover size; returns (covers, violations, counts-by-size,
    max-vars-by-size) without materializing the covers.

    With ``first`` given, only the covers that hold cube ``first`` and no
    candidate of the bit set ``excluded`` are walked, and each counts
    ``orbit / k`` times, k its number of cubes with as many points as
    ``first``.  Summed so, the walked covers count each cover of a larger
    family once: the covers that hold a cube of first's size and no
    excluded cube, when a group that keeps that family and each cover's
    figures moves ``first`` onto each of the ``orbit`` cubes of its size.
    The figures must come out whole (ValueError otherwise).
    Max-vars-by-size is the maximum over the walked covers.
    """
    scale = math.lcm(*range(1, max_cubes + 1))
    share = [scale] + [scale // k for k in range(1, max_cubes + 1)]
    tie = [0] * len(masks)  # without a first cube every cover counts once
    if first is not None:
        size = masks[first].bit_count()
        tie = [m.bit_count() == size for m in masks]
    n_covers = 0
    violations = 0
    size_counts = [0] * (max_cubes + 2)
    size_max_vars = [0] * (max_cubes + 2)
    for chosen in _cover_dfs(masks, npoints, max_cubes, first, excluded):
        m = len(chosen)
        vm = 0
        k = 0
        for c in chosen:
            vm |= var_masks[c]
            k += tie[c]
        w = share[k]
        nv = vm.bit_count()
        n_covers += w
        size_counts[m] += w
        if nv > size_max_vars[m]:
            size_max_vars[m] = nv
        if nv >= m:
            violations += w
    n_covers, violations, *size_counts = [
        _whole(orbit * x, scale) for x in [n_covers, violations] + size_counts
    ]
    return n_covers, violations, size_counts, size_max_vars


def _whole(x, scale):
    """x / scale, which must be an integer."""
    q, r = divmod(x, scale)
    if r:
        raise ValueError("the weighted covers do not sum to a whole count")
    return q

import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resspace.caps import get_cap
from resspace.errors import (
    IllegalMoveError,
    IncompletePebblingError,
    InfeasibleError,
    InvalidParamError,
    StateSpaceExceededError,
)
from resspace.graphs import (
    Dag,
    binary_tree_graph,
    bit_reversal_graph,
    make_graph,
    path_graph,
    pyramid_graph,
    validate_dag,
)
from resspace.pebbling import (
    EMPTY_CONFIG,
    Move,
    PebbleConfig,
    apply_move,
    _search,
    replay,
    search_min_space,
    search_min_time_given_space,
    trivial_black_pebbling,
    validate_pebbling,
)


def test_apply_move_source_placement():
    g = pyramid_graph(1)
    c = apply_move(g, EMPTY_CONFIG, Move("pb", 1))
    assert c == PebbleConfig({1}, ())


def test_apply_move_sink_needs_predecessors():
    g = pyramid_graph(1)
    both = PebbleConfig({1, 2}, ())
    assert apply_move(g, both, Move("pb", 3)).black == {1, 2, 3}
    with pytest.raises(IllegalMoveError) as e:
        apply_move(g, PebbleConfig({1}, ()), Move("pb", 3))
    assert e.value.rule == 1


def test_apply_move_white_rules():
    g = pyramid_graph(1)
    c = apply_move(g, EMPTY_CONFIG, Move("pw", 3))
    assert c.white == {3}
    with pytest.raises(IllegalMoveError) as e:
        apply_move(g, c, Move("rw", 3))
    assert e.value.rule == 4
    ok = replay(g, [Move("pw", 3), Move("pb", 1), Move("pb", 2), Move("rw", 3)])
    assert ok[-1] == PebbleConfig({1, 2}, ())


def test_apply_move_one_pebble_per_vertex():
    g = path_graph(2)
    c = apply_move(g, EMPTY_CONFIG, Move("pb", 1))
    with pytest.raises(IllegalMoveError):
        apply_move(g, c, Move("pw", 1))
    with pytest.raises(IllegalMoveError) as e:
        apply_move(g, c, Move("rb", 2))
    assert e.value.rule == 2


def test_validate_pebbling_replay():
    g = pyramid_graph(1)
    moves = [Move("pb", 1), Move("pb", 2), Move("pb", 3), Move("rb", 1), Move("rb", 2)]
    m = validate_pebbling(g, moves)
    assert m.time == 5
    assert m.space == 3


def test_validate_pebbling_incomplete():
    g = path_graph(2)
    with pytest.raises(IncompletePebblingError):
        validate_pebbling(g, [])
    with pytest.raises(IncompletePebblingError):
        validate_pebbling(g, [Move("pb", 1)])


def test_validate_pebbling_illegal_index():
    g = path_graph(3)
    with pytest.raises(IllegalMoveError) as e:
        validate_pebbling(g, [Move("pb", 1), Move("pb", 3)])
    assert e.value.index == 1


def test_trivial_pebbling_path():
    for n in (1, 2, 3, 5):
        g = path_graph(n)
        moves = trivial_black_pebbling(g)
        m = validate_pebbling(g, moves)
        assert m.time == 2 * n - 1
        assert m.space == (1 if n == 1 else 2)


def test_trivial_pebbling_pyramid():
    g = pyramid_graph(1)
    m = validate_pebbling(g, trivial_black_pebbling(g))
    assert m.time == 5
    assert m.space == 3


def test_trivial_pebbling_time_bound():
    for family, param in [("pyramid", 2), ("bit_reversal", 2), ("binary_tree", 2)]:
        g = make_graph(family, param)
        m = validate_pebbling(g, trivial_black_pebbling(g))
        assert m.time == 2 * g.n - 1


def test_search_min_space_path():
    for n in (2, 3, 4):
        price, witness = search_min_space(path_graph(n), "black")
        assert price == 2
        assert validate_pebbling(path_graph(n), witness).space <= 2


def test_search_min_space_single_vertex():
    price, witness = search_min_space(path_graph(1), "black")
    assert price == 1
    assert witness == (Move("pb", 1),)


def test_search_min_space_bit_reversal():
    for p in (1, 2):
        g = bit_reversal_graph(p)
        price, witness = search_min_space(g, "black")
        assert price == 3
        assert validate_pebbling(g, witness).space <= 3


def test_bw_price_at_most_black():
    for g in (pyramid_graph(1), pyramid_graph(2), path_graph(3), bit_reversal_graph(1)):
        black, _ = search_min_space(g, "black")
        bw, w = search_min_space(g, "black_white")
        assert bw <= black
        assert validate_pebbling(g, w).space <= bw


def test_min_time_path3():
    t, witness = search_min_time_given_space(path_graph(3), 2, "black")
    assert t == 5
    assert validate_pebbling(path_graph(3), witness).time == 5


def test_min_time_infeasible_below_price():
    with pytest.raises(InfeasibleError):
        search_min_time_given_space(pyramid_graph(1), 2, "black")


def test_min_time_monotone_in_space():
    g = bit_reversal_graph(1)
    times = []
    for s in range(3, g.n + 1):
        t, w = search_min_time_given_space(g, s, "black")
        assert validate_pebbling(g, w) == validate_pebbling(g, w)
        times.append(t)
    assert times == sorted(times, reverse=True)


def test_min_time_witness_metrics():
    g = pyramid_graph(2)  # Peb = 4
    for s in range(4, 6):
        t, w = search_min_time_given_space(g, s, "black")
        m = validate_pebbling(g, w)
        assert m.time == t
        assert m.space <= s


def test_search_caps():
    big = path_graph(30)
    with pytest.raises(StateSpaceExceededError):
        search_min_space(big, "black")
    with pytest.raises(StateSpaceExceededError):
        search_min_space(path_graph(16), "black_white")


def test_search_rejects_unknown_mode():
    g = path_graph(3)
    with pytest.raises(InvalidParamError, match="'black' or 'black_white'"):
        search_min_space(g, "white")
    with pytest.raises(InvalidParamError, match="'black' or 'black_white'"):
        search_min_time_given_space(g, 3, "white")


def test_min_time_path4_constant_beyond_two():
    g = path_graph(4)
    for s in (2, 3, 4):
        t, _ = search_min_time_given_space(g, s, "black")
        assert t == 7


def test_bit_reversal_three_rows_price():
    # the 16-vertex member still has black pebbling price 3
    g = bit_reversal_graph(3)
    price, witness = search_min_space(g, "black")
    assert price == 3
    assert validate_pebbling(g, witness).space <= 3


def test_min_time_at_least_longest_path():
    for g in (path_graph(4), pyramid_graph(2), bit_reversal_graph(2)):
        # longest source-to-sink path by dynamic programming over topo order
        from resspace.graphs import topological_order

        depth = {}
        for v in topological_order(g):
            preds = g.predecessors(v)
            depth[v] = 1 + max((depth[u] for u in preds), default=0)
        t, _ = search_min_time_given_space(g, g.n, "black")
        assert t >= depth[g.sink]


# ---------------------------------------------------------------------------
# black-white search against a frozenset BFS
#
# The reference expands each configuration's legal moves in the order pb, rb,
# pw, rw, each by vertex, records the first move reaching each configuration
# and stops at the target.  The search must return its witness exactly, and
# must hit the visited-state budget exactly where it does.


def _reference_successors(dag, config, space_cap):
    on = config.pebbled
    room = len(on) < space_cap
    ready = {v: all(u in on for u in dag.predecessors(v)) for v in range(1, dag.n + 1)}
    for v in range(1, dag.n + 1):
        if room and v not in on and ready[v]:
            yield Move("pb", v), PebbleConfig(config.black | {v}, config.white)
    for v in sorted(config.black):
        yield Move("rb", v), PebbleConfig(config.black - {v}, config.white)
    for v in range(1, dag.n + 1):
        if room and v not in on:
            yield Move("pw", v), PebbleConfig(config.black, config.white | {v})
    for v in sorted(config.white):
        if ready[v]:
            yield Move("rw", v), PebbleConfig(config.black, config.white - {v})


def _reference_bw_search(dag, space_cap):
    """(found, witness); raises StateSpaceExceededError once the visited set
    holds more than SEARCH_STATES configurations."""
    target = PebbleConfig({dag.sink}, ())
    state_cap = get_cap("SEARCH_STATES")
    parent = {EMPTY_CONFIG: None}
    frontier = [EMPTY_CONFIG]
    while frontier:
        nxt = []
        for config in frontier:
            for move, succ in _reference_successors(dag, config, space_cap):
                if succ in parent:
                    continue
                parent[succ] = (config, move)
                if len(parent) > state_cap:
                    raise StateSpaceExceededError("visited-state budget exhausted")
                if succ == target:
                    out = []
                    while parent[succ] is not None:
                        succ, move = parent[succ]
                        out.append(move)
                    return True, tuple(reversed(out))
                nxt.append(succ)
        frontier = nxt
    return False, None


_BW_ORACLE_GRAPHS = {
    "pyramid:1": pyramid_graph(1),
    "pyramid:2": pyramid_graph(2),
    "pyramid:3": pyramid_graph(3),
    "path:4": path_graph(4),
    "bit_reversal:1": bit_reversal_graph(1),
    "bit_reversal:2": bit_reversal_graph(2),
    "binary_tree:2": binary_tree_graph(2),
}


@pytest.mark.parametrize("name", sorted(_BW_ORACLE_GRAPHS))
def test_bw_search_matches_reference(name):
    g = _BW_ORACLE_GRAPHS[name]
    for s in range(1, g.n + 1):
        found, want = _reference_bw_search(g, s)
        if not found:
            with pytest.raises(InfeasibleError):
                search_min_time_given_space(g, s, "black_white")
            continue
        assert search_min_time_given_space(g, s, "black_white") == (len(want), want)
        assert validate_pebbling(g, want).space <= s


def _search_outcome(g, s, cap, search, monkeypatch):
    monkeypatch.setenv("RESSPACE_UNSAFE_SEARCH_STATES", str(cap))
    try:
        return search(g, s)
    except StateSpaceExceededError:
        return "over"


@pytest.mark.parametrize("name", ["pyramid:2", "bit_reversal:1"])
def test_bw_search_state_budget_matches_reference(name, monkeypatch):
    # per budget, bisect the smallest cap under which the reference fits;
    # the search must overflow below it and agree from it on
    g = _BW_ORACLE_GRAPHS[name]
    for s in range(1, g.n + 1):
        lo, hi = 0, 3**g.n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _search_outcome(g, s, mid, _reference_bw_search, monkeypatch) == "over":
                lo = mid
            else:
                hi = mid
        assert lo > 0
        for cap in sorted({1, lo // 2, lo, hi, hi + 1}):
            want = _search_outcome(g, s, cap, _reference_bw_search, monkeypatch)
            assert (want == "over") == (cap <= lo)
            got = _search_outcome(
                g, s, cap, lambda g, s: _search(g, s, "black_white"), monkeypatch
            )
            assert got == want, (s, cap)


# ---------------------------------------------------------------------------
# black search against a frozenset BFS
#
# The reference is move-major: each level tries pb on v = 1..n, then rb on
# v = 1..n, each move over the whole level in order.  It records the first
# move reaching each configuration, overflows once the visited set holds more
# than SEARCH_STATES configurations and stops at the target.


def _reference_black_search(dag, space_cap):
    """(found, witness); raises StateSpaceExceededError once the visited set
    holds more than SEARCH_STATES configurations."""
    target = frozenset({dag.sink})
    state_cap = get_cap("SEARCH_STATES")
    order = [Move("pb", v) for v in range(1, dag.n + 1)]
    order += [Move("rb", v) for v in range(1, dag.n + 1)]
    parent = {frozenset(): None}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for move in order:
            v = move.vertex
            for config in frontier:
                if move.kind == "rb":
                    if v not in config:
                        continue
                    succ = config - {v}
                elif (
                    v in config
                    or len(config) >= space_cap
                    or not all(u in config for u in dag.predecessors(v))
                ):
                    continue
                else:
                    succ = config | {v}
                if succ in parent:
                    continue
                parent[succ] = (config, move)
                if len(parent) > state_cap:
                    raise StateSpaceExceededError("visited-state budget exhausted")
                if succ == target:
                    out = []
                    while parent[succ] is not None:
                        succ, move = parent[succ]
                        out.append(move)
                    return True, tuple(reversed(out))
                nxt.append(succ)
        frontier = nxt
    return False, None


_BLACK_ORACLE_GRAPHS = {
    "pyramid:1": pyramid_graph(1),
    "pyramid:2": pyramid_graph(2),
    "pyramid:3": pyramid_graph(3),
    "pyramid:4": pyramid_graph(4),
    "path:4": path_graph(4),
    "bit_reversal:1": bit_reversal_graph(1),
    "bit_reversal:2": bit_reversal_graph(2),
    "binary_tree:2": binary_tree_graph(2),
    "binary_tree:3": binary_tree_graph(3),
}


@pytest.mark.parametrize("name", sorted(_BLACK_ORACLE_GRAPHS))
def test_black_search_matches_reference(name):
    g = _BLACK_ORACLE_GRAPHS[name]
    for s in range(1, g.n + 1):
        found, want = _reference_black_search(g, s)
        if not found:
            with pytest.raises(InfeasibleError):
                search_min_time_given_space(g, s, "black")
            continue
        assert search_min_time_given_space(g, s, "black") == (len(want), want)
        assert validate_pebbling(g, want).space <= s


@pytest.mark.parametrize("name", ["pyramid:2", "bit_reversal:1"])
def test_black_search_state_budget_matches_reference(name, monkeypatch):
    # as for the black-white search: bisect the smallest cap under which the
    # reference fits, then compare at and around it
    g = _BLACK_ORACLE_GRAPHS[name]
    for s in range(1, g.n + 1):
        lo, hi = 0, 2**g.n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            outcome = _search_outcome(g, s, mid, _reference_black_search, monkeypatch)
            if outcome == "over":
                lo = mid
            else:
                hi = mid
        assert lo > 0
        for cap in sorted({1, lo // 2, lo, hi, hi + 1}):
            want = _search_outcome(g, s, cap, _reference_black_search, monkeypatch)
            assert (want == "over") == (cap <= lo)
            got = _search_outcome(
                g, s, cap, lambda g, s: _search(g, s, "black"), monkeypatch
            )
            assert got == want, (s, cap)


# ---------------------------------------------------------------------------
# both searches against their references on drawn DAGs


@st.composite
def _small_dags(draw, low=1, high=7):
    """DAGs on ``low`` to ``high`` vertices, each vertex with up to two
    predecessors among the lower ones, and a single sink.  Every vertex but
    the last first gets one successor with a free slot, so no draw is
    filtered out (assuming a single sink discarded four draws in five); then
    each vertex may gain more predecessors."""
    n = draw(st.integers(low, high))
    preds = {v: set() for v in range(1, n + 1)}
    for u in range(n - 1, 0, -1):
        free = [v for v in range(u + 1, n + 1) if len(preds[v]) < 2]
        preds[draw(st.sampled_from(free))].add(u)
    for v in range(2, n + 1):
        more = st.lists(st.integers(1, v - 1), max_size=2 - len(preds[v]))
        preds[v].update(draw(more))
    return Dag(n=n, edges=tuple((u, v) for v in preds for u in sorted(preds[v])))


def _check_black_state_budget(g, s, mp):
    """As test_black_search_state_budget_matches_reference does for one
    budget: bisect the smallest cap under which the reference fits; the
    search must overflow below it and agree from it on."""
    reference = _reference_black_search
    lo, hi = 0, 2**g.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _search_outcome(g, s, mid, reference, mp) == "over":
            lo = mid
        else:
            hi = mid
    for cap in sorted({1, lo // 2, lo, hi, hi + 1}):
        want = _search_outcome(g, s, cap, reference, mp)
        assert (want == "over") == (cap <= lo)
        got = _search_outcome(g, s, cap, lambda g, s: _search(g, s, "black"), mp)
        assert got == want, (s, cap)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_small_dags())
def test_searches_match_references_on_drawn_dags(g):
    validate_dag(g)
    for s in range(1, g.n + 1):
        found, want = _reference_black_search(g, s)
        if found:
            assert search_min_time_given_space(g, s, "black") == (len(want), want)
        else:
            with pytest.raises(InfeasibleError):
                search_min_time_given_space(g, s, "black")
    if g.n > 5:
        return
    for s in range(1, g.n + 1):
        found, want = _reference_bw_search(g, s)
        assert _search(g, s, "black_white") == (found, want)
        with pytest.MonkeyPatch.context() as mp:
            _check_black_state_budget(g, s, mp)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_small_dags(8, 13))
def test_black_search_matches_reference_on_drawn_dags_of_several_words(g):
    # 8 to 13 vertices hold their levels in 4 to 128 words, so the moves
    # that shift whole words clip their slices at both ends of a level's
    # span, and a level's span grows and shrinks from one level to the next
    validate_dag(g)
    for s in range(g.n + 2):
        found, want = _reference_black_search(g, s)
        if found:
            assert search_min_time_given_space(g, s, "black") == (len(want), want)
        else:
            with pytest.raises(InfeasibleError):
                search_min_time_given_space(g, s, "black")


# ---------------------------------------------------------------------------
# golden black sweeps, too large for the frozenset reference: the sha256 of
# the rows (s, time, witness) for s = 1..n, witness moves as (kind, vertex)

_GOLDEN_SWEEPS = {
    "pyramid:5": "9cefa18b41ccc343ab09313f3b0a13b49350a613cd04a217bbcf4d37ad51efad",
    "bit_reversal:3": "af875258c80056a90e31434e46d6ffed02586423e611f535ac81bcd5dec3a5bd",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_SWEEPS))
def test_black_sweep_golden(name):
    family, _, param = name.partition(":")
    g = make_graph(family, int(param))
    rows = []
    for s in range(1, g.n + 1):
        try:
            t, witness = search_min_time_given_space(g, s, "black")
        except InfeasibleError:
            rows.append((s, None, None))
            continue
        rows.append((s, t, tuple((m.kind, m.vertex) for m in witness)))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _GOLDEN_SWEEPS[name]


def test_black_search_memory_is_a_few_level_sets():
    # 21 vertices: each 2^21-configuration set is 256 KB, and the search
    # keeps one mask per vertex and move direction plus a few such sets; the
    # level loop that kept every discovered state took about 52 MB here
    g = pyramid_graph(5)
    tracemalloc.start()
    try:
        t, _ = search_min_time_given_space(g, 21, "black")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t == 41
    assert peak < 16_000_000


@pytest.mark.parametrize("mode", ["black", "black_white"])
def test_search_budgets_past_n_and_below_zero(mode):
    # a budget past n allows what n allows; a negative one allows nothing
    g = path_graph(4)
    assert search_min_time_given_space(g, 4 + 300, mode) == (
        search_min_time_given_space(g, 4, mode)
    )
    for s in (-1, -300):
        with pytest.raises(InfeasibleError):
            search_min_time_given_space(g, s, mode)

"""The black-white pebble game: move legality, replay, metrics, the
canonical topological-order strategy, and exhaustive optimal-strategy
searches over bit-mask encoded configurations.

Rules (on a DAG with sources S and sink z):

1. a black pebble may be placed on an empty vertex whose immediate
   predecessors all carry pebbles (vacuously, on any source);
2. a black pebble may be removed at any time;
3. a white pebble may be placed on any empty vertex;
4. a white pebble may be removed from a vertex whose immediate
   predecessors all carry pebbles.

A complete pebbling starts from the empty configuration and ends with a
single black pebble on the sink.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import accel
from .caps import get_cap
from .errors import (
    IllegalMoveError,
    IncompletePebblingError,
    InfeasibleError,
    InvalidParamError,
    StateSpaceExceededError,
    WhitePebblePresentError,
)
from .graphs import Dag, topological_order

MOVE_KINDS = ("pb", "rb", "pw", "rw")


@dataclass(frozen=True)
class Move:
    kind: str
    vertex: int

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise ValueError(f"bad move kind {self.kind!r}")


@dataclass(frozen=True)
class PebbleConfig:
    black: frozenset[int]
    white: frozenset[int]

    def __init__(self, black=(), white=()):
        black, white = frozenset(black), frozenset(white)
        if black & white:
            raise ValueError("at most one pebble per vertex")
        object.__setattr__(self, "black", black)
        object.__setattr__(self, "white", white)

    @property
    def pebbled(self) -> frozenset[int]:
        return self.black | self.white

    def __len__(self):
        return len(self.black) + len(self.white)


EMPTY_CONFIG = PebbleConfig()


@dataclass(frozen=True)
class PebblingMetrics:
    time: int
    space: int


def apply_move(dag: Dag, config: PebbleConfig, move: Move) -> PebbleConfig:
    """The configuration after one legal move; raises IllegalMoveError with
    the violated rule number otherwise."""
    v = move.vertex
    if not 1 <= v <= dag.n:
        raise IllegalMoveError(f"vertex {v} out of range", rule=0)
    on = config.pebbled
    if move.kind == "pb":
        if v in on or not all(u in on for u in dag.predecessors(v)):
            raise IllegalMoveError(f"cannot place black on {v}", rule=1)
        return PebbleConfig(config.black | {v}, config.white)
    if move.kind == "rb":
        if v not in config.black:
            raise IllegalMoveError(f"no black pebble on {v}", rule=2)
        return PebbleConfig(config.black - {v}, config.white)
    if move.kind == "pw":
        if v in on:
            raise IllegalMoveError(f"vertex {v} is not empty", rule=3)
        return PebbleConfig(config.black, config.white | {v})
    if v not in config.white or not all(u in on for u in dag.predecessors(v)):
        raise IllegalMoveError(f"cannot remove white from {v}", rule=4)
    return PebbleConfig(config.black, config.white - {v})


def replay(dag: Dag, moves) -> list[PebbleConfig]:
    """All configurations visited, starting from the empty one."""
    configs = [EMPTY_CONFIG]
    for i, m in enumerate(moves):
        try:
            configs.append(apply_move(dag, configs[-1], m))
        except IllegalMoveError as e:
            raise IllegalMoveError(f"move {i}: {e}", rule=e.rule, index=i) from None
    return configs


def validate_pebbling(dag: Dag, moves) -> PebblingMetrics:
    """Replay all moves; metrics are returned only for complete pebblings."""
    configs = replay(dag, moves)
    final = configs[-1]
    if final.black != {dag.sink} or final.white:
        raise IncompletePebblingError(
            f"final configuration ({sorted(final.black)}, {sorted(final.white)}) "
            f"is not (({dag.sink},), ())"
        )
    return PebblingMetrics(time=len(moves), space=max(len(c) for c in configs))


def trivial_black_pebbling(dag: Dag) -> tuple[Move, ...]:
    """Pebble in topological order, removing each black pebble as soon as
    its last successor has been pebbled; the sink keeps its pebble.  Takes
    exactly 2n-1 moves."""
    pending = {v: len(dag.successors(v)) for v in range(1, dag.n + 1)}
    moves = []
    for v in topological_order(dag):
        moves.append(Move("pb", v))
        freed = []
        for u in dag.predecessors(v):
            pending[u] -= 1
            if pending[u] == 0:
                freed.append(u)
        for u in sorted(freed):
            moves.append(Move("rb", u))
    return tuple(moves)


# ---------------------------------------------------------------------------
# exhaustive searches


# mode -> (vertex cap, game name, accel kernel).  The kernel is looked up by
# name at call time, so a wrapper installed on the accel module is used.
# Both kernels return (status, visited, witness move codes); the black one
# walks its witness back from bit-set levels, the black-white one follows
# recorded parents.
_SEARCHES = {
    "black": ("BLACK_SEARCH_VERTICES", "black", "black_bfs"),
    "black_white": ("BW_SEARCH_VERTICES", "black-white", "bw_bfs"),
}


def _search(dag: Dag, space_cap: int, mode: str):
    """(found, witness) for complete pebblings of the game ``mode`` within
    the space cap; the kernel's move code kind * n + (v - 1) names
    MOVE_KINDS[kind] on vertex v."""
    if mode not in _SEARCHES:
        raise InvalidParamError(
            f"unknown search mode {mode!r}; expected 'black' or 'black_white'"
        )
    cap_name, game, kernel = _SEARCHES[mode]
    n = dag.n
    if n > get_cap(cap_name):
        raise StateSpaceExceededError(
            f"{n} vertices exceed {game} search cap {get_cap(cap_name)}"
        )
    preds = [0] * n
    for v in range(1, n + 1):
        for u in dag.predecessors(v):
            preds[v - 1] |= 1 << (u - 1)
    target = 1 << (dag.sink - 1)
    status, _, witness = getattr(accel, kernel)(
        n, preds, target, space_cap, get_cap("SEARCH_STATES")
    )
    if status == accel.OVERFLOW:
        raise StateSpaceExceededError("visited-state budget exhausted")
    if status == accel.EXHAUSTED:
        return False, None
    return True, tuple(Move(MOVE_KINDS[c // n], c % n + 1) for c in witness)


def search_min_space(dag: Dag, mode: str = "black"):
    """Exact pebbling price with a witness strategy.

    mode "black" searches black-only pebblings (Peb), "black_white" the full
    game (BW-Peb).  The witness passes validate_pebbling at the returned
    space.
    """
    for s in range(1, dag.n + 1):
        found, witness = _search(dag, s, mode)
        if found:
            return s, witness
    raise AssertionError("every DAG is pebbleable in space n")


def search_min_time_given_space(dag: Dag, space: int, mode: str = "black"):
    """Exact minimum move count among complete pebblings with at most the
    given space; the BFS witness attains it."""
    found, witness = _search(dag, space, mode)
    if not found:
        raise InfeasibleError(f"no complete pebbling within space {space}")
    return len(witness), witness


def require_black(moves):
    for i, m in enumerate(moves):
        if m.kind not in ("pb", "rb"):
            raise WhitePebblePresentError(f"move {i} ({m.kind} {m.vertex}) uses white")

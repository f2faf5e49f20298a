"""Directed acyclic graphs with a unique sink, and the generator families
used by the pebbling formulas (paths, pyramids, binary trees, bit-reversal
graphs)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CycleError,
    IndegreeExceededError,
    InvalidParamError,
    MultipleSinksError,
)


@dataclass(frozen=True)
class Dag:
    """A DAG over vertices 1..n with edge list (predecessor, successor).

    Valid instances are acyclic, have a unique sink (the only vertex with
    outdegree 0), and respect the indegree bound.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    max_indegree: int = 2
    name: str = "dag"

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._preds[v]

    def successors(self, v: int) -> tuple[int, ...]:
        return self._succs[v]

    @cached_property
    def _preds(self) -> dict[int, tuple[int, ...]]:
        # computed on first use; not a field, so equality and hash still see
        # only the declared fields
        preds = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            preds[v].append(u)
        return {v: tuple(sorted(ps)) for v, ps in preds.items()}

    @cached_property
    def _succs(self) -> dict[int, tuple[int, ...]]:
        succs = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            succs[u].append(v)
        return {v: tuple(sorted(ss)) for v, ss in succs.items()}

    @property
    def sources(self) -> tuple[int, ...]:
        preds = self._preds
        return tuple(v for v in range(1, self.n + 1) if not preds[v])

    @property
    def sink(self) -> int:
        succs = self._succs
        sinks = [v for v in range(1, self.n + 1) if not succs[v]]
        if len(sinks) != 1:
            raise _sinks_error(sinks, len(sinks))
        return sinks[0]

    def indegree(self, v: int) -> int:
        return len(self.predecessors(v))


def _sinks_error(sinks, count):
    """The error for a graph with ``count`` sinks, the first ones ``sinks``;
    the message lists at most 10 of them."""
    shown = ", ".join(map(str, sinks[:10])) + (", ..." if count > 10 else "")
    return MultipleSinksError(f"expected one sink, found {count}: [{shown}]")


def validate_dag(dag: Dag):
    """Check acyclicity, unique sink, indegree bound; returns the
    deterministic topological order (lowest id first among ready vertices)."""
    order = _validate_edges(dag)
    dag.sink  # raises MultipleSinksError when not unique
    return order


def _validate_edges(dag: Dag):
    """validate_dag without the sink check."""
    if dag.n < 1:
        raise InvalidParamError("graph needs at least one vertex")
    for u, v in dag.edges:
        if not (1 <= u <= dag.n and 1 <= v <= dag.n):
            raise InvalidParamError(f"edge ({u},{v}) out of range")
        if u == v:
            raise CycleError(f"self-loop at {u}")
    for v in range(1, dag.n + 1):
        if dag.indegree(v) > dag.max_indegree:
            raise IndegreeExceededError(
                f"vertex {v} has indegree {dag.indegree(v)} > {dag.max_indegree}"
            )
    return topological_order(dag)


def dag_from_edges(n: int, edges) -> Dag:
    """The validated DAG on vertices 1..n with these edges.

    Every vertex past the largest edge endpoint is an isolated sink.  The
    graph the edges span is checked as validate_dag checks the n-vertex
    one, with the same errors in the same order; if n is larger, the
    MultipleSinksError follows without building the n-vertex graph.
    """
    edges = tuple(edges)
    span = max((max(e) for e in edges), default=1)
    dag = Dag(n=min(n, max(span, 1)), edges=edges)
    _validate_edges(dag)
    if n == dag.n:
        dag.sink  # raises MultipleSinksError when not unique
        return dag
    inner = [v for v in range(1, dag.n + 1) if not dag.successors(v)]
    extra = range(dag.n + 1, n + 1)
    raise _sinks_error(inner + list(extra[:10]), len(inner) + len(extra))


def topological_order(dag: Dag) -> tuple[int, ...]:
    """Kahn's algorithm with a sorted ready set; every edge goes forward."""
    import heapq

    indeg = {v: dag.indegree(v) for v in range(1, dag.n + 1)}
    ready = [v for v in range(1, dag.n + 1) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in dag.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != dag.n:
        raise CycleError("graph contains a cycle")
    return tuple(order)


# ---------------------------------------------------------------------------
# generator families


def path_graph(n: int) -> Dag:
    """The directed path 1 -> 2 -> ... -> n."""
    if n < 1:
        raise InvalidParamError("path needs n >= 1")
    return Dag(n=n, edges=tuple((i, i + 1) for i in range(1, n)), max_indegree=1,
               name=f"path:{n}")


def pyramid_graph(h: int) -> Dag:
    """Pyramid of height h: rows of h+1, h, ..., 1 vertices, each vertex
    fed by the two below it; (h+1)(h+2)/2 vertices in total."""
    if h < 1:
        raise InvalidParamError("pyramid needs h >= 1")
    rows = []
    nxt = 1
    for width in range(h + 1, 0, -1):
        rows.append(list(range(nxt, nxt + width)))
        nxt += width
    edges = []
    for r in range(1, len(rows)):
        for i, v in enumerate(rows[r]):
            edges.append((rows[r - 1][i], v))
            edges.append((rows[r - 1][i + 1], v))
    return Dag(n=nxt - 1, edges=tuple(edges), max_indegree=2, name=f"pyramid:{h}")


def binary_tree_graph(h: int) -> Dag:
    """Complete binary tree of height h with edges toward the root; the
    2^h leaves are the sources and the root (vertex 2^(h+1)-1) is the sink."""
    if h < 1:
        raise InvalidParamError("binary tree needs h >= 1")
    n = (1 << (h + 1)) - 1
    # level order from leaves: vertex ids 1..2^h are leaves, the parent of
    # the pair (2i-1, 2i) at one level is the i-th vertex of the next
    edges = []
    level = list(range(1, (1 << h) + 1))
    nxt = (1 << h) + 1
    while len(level) > 1:
        parents = []
        for i in range(0, len(level), 2):
            edges.append((level[i], nxt))
            edges.append((level[i + 1], nxt))
            parents.append(nxt)
            nxt += 1
        level = parents
    return Dag(n=n, edges=tuple(edges), max_indegree=2, name=f"binary_tree:{h}")


def _bit_reverse(i: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def bit_reversal_graph(p: int) -> Dag:
    """Two rows of m = 2^p vertices: a bottom path b_1 -> ... -> b_m, a top
    path t_1 -> ... -> t_m, and cross edges b_{rev(i)} -> t_i where rev is
    the p-bit bit-reversal permutation; the sink is t_m.

    Bottom vertices are 1..m, top vertices m+1..2m.
    """
    if p < 1:
        raise InvalidParamError("bit reversal needs p >= 1")
    m = 1 << p
    edges = [(i, i + 1) for i in range(1, m)]
    edges += [(m + i, m + i + 1) for i in range(1, m)]
    for i in range(m):
        edges.append((_bit_reverse(i, p) + 1, m + i + 1))
    return Dag(n=2 * m, edges=tuple(edges), max_indegree=2, name=f"bit_reversal:{p}")


_FAMILIES = {
    "path": path_graph,
    "pyramid": pyramid_graph,
    "binary_tree": binary_tree_graph,
    "bit_reversal": bit_reversal_graph,
}


def make_graph(family: str, param: int) -> Dag:
    """Build a named family member; every generated graph passes validation."""
    if family not in _FAMILIES:
        raise InvalidParamError(
            f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
        )
    dag = _FAMILIES[family](param)
    validate_dag(dag)
    return dag

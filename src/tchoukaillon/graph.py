"""Sowing games on directed graphs.

A sowing graph is a directed graph with a nonempty set of Ruma vertices
(stores).  A sow picks up all stones on a vertex and drops one per step
along a directed walk that ends on a Ruma after exactly that many steps;
walks may wrap cycles, revisiting vertices.  Unplaying inverts a sow and
is how the winning boards are generated from the empty board.

Ruma labels count captured stones.  They are bookkeeping: board identity
in the game graph is the tuple of non-Ruma labels, and the store never
runs dry when unplaying.
"""

from __future__ import annotations

import functools
from itertools import groupby
from operator import itemgetter

from .checked import DEFAULT_BOARD_CAP, MAX_VERTICES, MAX_WALK_STEPS, _Frozen, as_uint


class IllegalMoveError(ValueError):
    """The requested sow or unplay violates the movement rules."""


class SowingGraph(_Frozen):
    """Directed graph with a distinguished nonempty Ruma vertex set.

    Vertices are 0..vertex_count-1.  Parallel edges are disallowed;
    self-loops are fine.  Derived on construction: ``successors`` maps
    each vertex to its sorted out-neighbours, and ``bins`` lists the
    non-Ruma vertices in id order, the displayed board coordinates.
    """

    __match_args__ = ("vertex_count", "edges", "ruma")
    __slots__ = __match_args__ + ("successors", "bins")

    def __init__(
        self, vertex_count: int, edges: frozenset[tuple[int, int]], ruma: frozenset[int]
    ) -> None:
        if as_uint(vertex_count, "vertex count") < 1:
            raise ValueError("a sowing graph needs at least one vertex")
        if vertex_count > MAX_VERTICES:
            raise OverflowError(f"a sowing graph of {vertex_count} vertices exceeds the budget of {MAX_VERTICES}")
        edge_list = []
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise ValueError(f"an edge is a (source, target) pair, got {edge!r}")
            edge_list.append((as_uint(edge[0], "edge source"), as_uint(edge[1], "edge target")))
        edges = frozenset(edge_list)
        if len(edges) < len(edge_list):
            raise ValueError("parallel edges are not allowed")
        out: dict[int, list[int]] = {v: [] for v in range(vertex_count)}
        for a, b in edges:
            if not (a < vertex_count and b < vertex_count):
                raise ValueError(f"edge ({a}, {b}) references a missing vertex")
            out[a].append(b)
        ruma = frozenset(as_uint(r, "Ruma vertex") for r in ruma)
        if not ruma:
            raise ValueError("the Ruma set must be nonempty")
        for r in ruma:
            if r >= vertex_count:
                raise ValueError(f"Ruma vertex {r} does not exist")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "ruma", ruma)
        object.__setattr__(self, "successors", {v: tuple(sorted(ws)) for v, ws in out.items()})
        object.__setattr__(self, "bins", tuple(v for v in range(vertex_count) if v not in ruma))

    def zero_board(self) -> "GraphBoard":
        return GraphBoard._trusted((0,) * self.vertex_count)

    def board_with_bins(self, bin_labels: tuple[int, ...]) -> "GraphBoard":
        """Board with the given non-Ruma labels (id order) and empty stores."""
        if len(bin_labels) != len(self.bins):
            raise ValueError(f"expected {len(self.bins)} bin labels, got {len(bin_labels)}")
        labels = [0] * self.vertex_count
        for v, count in zip(self.bins, bin_labels):
            labels[v] = count
        return GraphBoard(tuple(labels))

    def bin_labels(self, board: "GraphBoard") -> tuple[int, ...]:
        """Non-Ruma labels in id order; the game-graph identity of a board."""
        return tuple(board.labels[v] for v in self.bins)

    def stones(self, board: "GraphBoard") -> int:
        """Stones still on the board, excluding captures."""
        return sum(self.bin_labels(board))

    def to_json(self) -> dict[str, object]:
        return {
            "vertices": self.vertex_count,
            "edges": [list(e) for e in sorted(self.edges)],
            "ruma": sorted(self.ruma),
        }

    @classmethod
    def from_json(cls, data: object) -> "SowingGraph":
        if not isinstance(data, dict):
            raise ValueError("sowing graph JSON must be an object")
        for key in ("vertices", "edges", "ruma"):
            if key not in data:
                raise ValueError(f'sowing graph JSON lacks "{key}"')
        for key in ("edges", "ruma"):
            if not isinstance(data[key], list):
                raise ValueError(f'sowing graph JSON "{key}" must be an array')
        return cls(data["vertices"], data["edges"], data["ruma"])


class GraphBoard(_Frozen):
    """One non-negative label per vertex; Ruma labels are captured stones."""

    __slots__ = __match_args__ = ("labels",)

    def __init__(self, labels: tuple[int, ...]) -> None:
        labels = tuple(labels)
        for count in labels:
            as_uint(count, "vertex label")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, labels: tuple[int, ...]) -> "GraphBoard":
        # Labels the library derived itself: not re-checked.
        board = object.__new__(cls)
        object.__setattr__(board, "labels", labels)
        return board


@functools.total_ordering
class Move(_Frozen):
    """An unplay/sow descriptor: the emptied-or-filled vertex, its Ruma, the walk.

    Moves order as their ``(vertex, ruma, path)`` tuples.
    """

    __slots__ = __match_args__ = ("vertex", "ruma", "path")

    def __init__(self, vertex: int, ruma: int, path: tuple[int, ...]) -> None:
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "ruma", ruma)
        object.__setattr__(self, "path", path)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() < other._fields()


class GameEdge(_Frozen):
    """A sow move between discovered boards, indices into GameGraph.boards."""

    __slots__ = __match_args__ = ("source", "target", "moves")

    def __init__(self, source: int, target: int, moves: tuple[Move, ...]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "moves", moves)


class GameGraph(_Frozen):
    """Winning boards (discovery order) and the sow moves connecting them."""

    __slots__ = __match_args__ = ("boards", "edges", "truncated")

    def __init__(
        self, boards: tuple[GraphBoard, ...], edges: tuple[GameEdge, ...], truncated: bool = False
    ) -> None:
        object.__setattr__(self, "boards", boards)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "truncated", truncated)


def _check_walk(graph: SowingGraph, path: tuple[int, ...]) -> None:
    if len(path) < 2:
        raise IllegalMoveError("a sowing walk needs at least one edge")
    for a, b in zip(path, path[1:]):
        if (a, b) not in graph.edges:
            raise IllegalMoveError(f"({a}, {b}) is not an edge of the graph")


def sow_move(graph: SowingGraph, board: GraphBoard, v: int, path: tuple[int, ...]) -> GraphBoard:
    """Sow all stones from v along a walk ending on a Ruma.

    The walk's edge-length must equal the label of v; every vertex stepped
    on (Rumas included, revisits counted) gains one stone.
    """
    as_uint(v, "sown vertex")
    path = tuple(path)
    if v in graph.ruma:
        raise IllegalMoveError("cannot sow from a Ruma vertex")
    if not path or path[0] != v:
        raise IllegalMoveError("the walk must start at the sown vertex")
    if path[-1] not in graph.ruma:
        raise IllegalMoveError("the walk must end on a Ruma vertex")
    _check_walk(graph, path)
    stones = board.labels[v]
    if stones == 0:
        raise IllegalMoveError(f"vertex {v} has no stones to sow")
    if len(path) - 1 != stones:
        raise IllegalMoveError(f"walk length {len(path) - 1} does not match the {stones} stones on vertex {v}")
    labels = list(board.labels)
    labels[v] = 0
    for w in path[1:]:
        labels[w] += 1
    return GraphBoard._trusted(tuple(labels))


def unplay_move(
    graph: SowingGraph, board: GraphBoard, v: int, r: int, path: tuple[int, ...]
) -> GraphBoard:
    """Invert a sow: refill v with the walk's edge-length, picking stones back up.

    Each non-Ruma vertex stepped on loses one stone per visit (v itself
    included on cycle wraps, so its label must be exactly consumed);
    stones taken from a Ruma come out of its captures, which never block
    the move.
    """
    as_uint(v, "refilled vertex")
    as_uint(r, "Ruma vertex")
    path = tuple(path)
    if v in graph.ruma:
        raise IllegalMoveError("cannot unplay into a Ruma vertex")
    if r not in graph.ruma:
        raise IllegalMoveError(f"vertex {r} is not a Ruma")
    if not path or path[0] != v or path[-1] != r:
        raise IllegalMoveError("the walk must run from the refilled vertex to the Ruma")
    _check_walk(graph, path)
    labels = list(board.labels)
    for w in path[1:]:
        if w in graph.ruma:
            labels[w] = max(labels[w] - 1, 0)
        else:
            if labels[w] == 0:
                raise IllegalMoveError(f"vertex {w} has no stone to pick up")
            labels[w] -= 1
    if labels[v] != 0:
        raise IllegalMoveError(f"the walk must consume the label of vertex {v} exactly")
    labels[v] = len(path) - 1
    return GraphBoard._trusted(tuple(labels))


def _cycles(graph: SowingGraph) -> tuple[tuple[int, int] | None, list[bool]]:
    # One iterative Tarjan pass, each strongly connected component handled
    # as it is popped.  The finiteness witness is the smallest Ruma and the
    # smallest bin of the first popped component holding both, or None;
    # on_cycle[v] says v lies on a directed cycle: its component has
    # another vertex, or v has a self-loop.
    n = graph.vertex_count
    successors = graph.successors
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    on_cycle = [False] * n
    stack: list[int] = []
    witness = None
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, edge_pos = work.pop()
            if edge_pos == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            succ = successors[v]
            for edge_pos in range(edge_pos, len(succ)):
                w = succ[edge_pos]
                if index_of[w] == -1:
                    work += ((v, edge_pos + 1), (w, 0))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            else:
                if low[v] == index_of[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        on_stack[w] = False
                        on_cycle[w] = len(component) > 1 or (w, w) in graph.edges
                    rumas = [w for w in component if w in graph.ruma]
                    if witness is None and rumas and len(rumas) < len(component):
                        witness = min(rumas), min(w for w in component if w not in graph.ruma)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return witness, on_cycle


def has_finite_game_graph(graph: SowingGraph) -> tuple[bool, tuple[int, int] | None]:
    """Decide whether the graph has finitely many winning boards.

    Infinite exactly when some strongly connected component holds both a
    Ruma and a non-Ruma vertex (two co-reachable vertices always share a
    directed cycle).  The witness is such a pair, or None when finite.
    """
    witness, _ = _cycles(graph)
    return witness is None, witness


def _legal_unplays(
    labels: list[int],
    starts: tuple[int, ...],
    on_cycle: list[bool],
    successors: list[tuple[int, ...]],
    is_ruma: list[bool],
    max_length: int,
    budget: int,
) -> tuple[list[tuple], int]:
    # Every legal unplay on the board *labels*, walks of at most
    # max_length edges, as sorted (v, r, path, grown labels) tuples, and
    # the step budget left.  Depth-first over the walks from each start:
    # a walk steps on a bin only while that bin has a stone left to pick
    # up, Rumas never block, and a walk ending on a Ruma with v's own
    # label used up is legal.  *labels* is restored on return.
    found: list[tuple] = []
    for v in starts:
        if labels[v] and not on_cycle[v]:
            continue
        path = [v]
        pending = [iter(successors[v])]
        while pending:
            for w in pending[-1]:
                if is_ruma[w]:
                    path.append(w)
                    if not labels[v]:
                        labels[v] = len(path) - 1
                        found.append((v, w, tuple(path), tuple(labels)))
                        labels[v] = 0
                        budget -= len(path) + len(labels)
                elif labels[w]:
                    labels[w] -= 1
                    path.append(w)
                else:
                    continue
                budget -= 1
                if budget < 0:
                    raise RuntimeError(f"the unplay walk search exceeded its budget of {MAX_WALK_STEPS} steps")
                if len(path) <= max_length:
                    pending.append(iter(successors[w]))
                    break
                path.pop()
                if not is_ruma[w]:
                    labels[w] += 1
            else:
                pending.pop()
                last = path.pop()
                if path and not is_ruma[last]:
                    labels[last] += 1
    found.sort()
    return found, budget


def enumerate_winning_boards(graph: SowingGraph, cap: int = DEFAULT_BOARD_CAP) -> GameGraph:
    """Breadth-first closure of unplaying from the empty board.

    The finite case returns the complete game graph, or raises
    RuntimeError when it has more than *cap* boards.  The infinite case
    returns a truncated prefix: at most *cap* boards, with per-unmove
    walk lengths capped at cap * vertex_count.  Either case raises
    RuntimeError when the walk search passes its step budget.
    """
    if as_uint(cap, "board cap") < 1:
        raise ValueError("cap must be >= 1")
    # A bin holding stones is refilled only by a walk that comes back to it.
    witness, on_cycle = _cycles(graph)
    finite = witness is None
    n = graph.vertex_count
    is_ruma = [v in graph.ruma for v in range(n)]
    successors = [graph.successors[v] for v in range(n)]
    # Board labels are kept as full vertex tuples; Ruma labels stay 0,
    # since unplaying only ever takes captured stones back.
    keys = [(0,) * n]
    index = {keys[0]: 0}
    # One (source, target, v, r, path) per sow move found.
    sows: list[tuple] = []
    budget = MAX_WALK_STEPS
    yi = 0
    while yi < len(keys):
        labels = list(keys[yi])
        # Any longer walk would wrap a stone-free cycle, which a
        # criterion-finite graph does not offer along unplay walks.
        limit = (sum(labels) + 1) * (n + 1) if finite else cap * n
        found, budget = _legal_unplays(labels, graph.bins, on_cycle, successors, is_ruma, limit, budget)
        for v, r, path, key in found:
            grown = index.get(key)
            if grown is None:
                if len(keys) >= cap:
                    if finite:
                        raise RuntimeError(
                            f"the finite game graph has more than {cap} boards; "
                            "raise the board cap (--cap) to enumerate it"
                        )
                    continue
                grown = index[key] = len(keys)
                keys.append(key)
            sows.append((grown, yi, v, r, path))
        yi += 1
    # Targets were expanded in index order and each board's moves found in
    # (v, r, path) order, so a stable sort by source orders the edges.
    sows.sort(key=itemgetter(0))
    edges = tuple(
        GameEdge(source, target, tuple(Move(v, r, path) for _, _, v, r, path in moves))
        for (source, target), moves in groupby(sows, itemgetter(0, 1))
    )
    return GameGraph(tuple(GraphBoard._trusted(key) for key in keys), edges, truncated=not finite)


def make_path(length: int) -> SowingGraph:
    """Directed path of *length* bins feeding a single Ruma sink: the linear game, a one-spoke star."""
    if as_uint(length, "path length") < 1:
        raise ValueError("length must be >= 1")
    return make_star(1, length)


def make_cycle(length: int) -> SowingGraph:
    """Directed cycle on *length* vertices, one of which is the Ruma."""
    if as_uint(length, "cycle length") < 1:
        raise ValueError("length must be >= 1")
    # The edges are made as the graph reads them, after its vertex check.
    return SowingGraph(length, ((i, (i - 1) % length) for i in range(length)), frozenset({0}))


def make_star(spokes: int, length: int) -> SowingGraph:
    """Star of *spokes* directed paths of *length* bins, Ruma at the center."""
    if as_uint(spokes, "spoke count") < 1 or as_uint(length, "spoke length") < 1:
        raise ValueError("spokes and length must be >= 1")
    if spokes * length + 1 > MAX_VERTICES:
        raise OverflowError(f"a sowing graph of {spokes * length + 1} vertices exceeds the budget of {MAX_VERTICES}")
    edges = set()
    for s in range(spokes):
        base = s * length
        edges.add((base + 1, 0))
        for d in range(2, length + 1):
            edges.add((base + d, base + d - 1))
    return SowingGraph(spokes * length + 1, frozenset(edges), frozenset({0}))


def cycle_attained_counts(length: int, board_limit: int) -> list[int]:
    """Stone totals along the cycle game's unique unplay path.

    Each step unplays from the Ruma into the closest minimally labeled
    vertex, wrapping the cycle once per stone already on it.  Not every
    integer appears among the totals.
    """
    if as_uint(length, "cycle length") < 2:
        raise ValueError("cycle_attained_counts requires length >= 2")
    if as_uint(board_limit, "board limit") < 1:
        raise ValueError("board_limit must be >= 1")
    if length > MAX_VERTICES:
        raise OverflowError(f"a sowing graph of {length} vertices exceeds the budget of {MAX_VERTICES}")
    # Vertex id equals walk distance to the Ruma, so the closest minimally
    # labeled bin is min((label, id)).  Its walk wraps the cycle once per
    # stone on it: bins 1..v-1 give up label + 1 stones, every other bin
    # label, and v is refilled with the walk's v + label * length edges.
    labels = [0] * length
    totals = [0]
    while len(totals) < board_limit:
        label, v = min(zip(labels[1:], range(1, length)))
        for w in range(1, length):
            labels[w] -= label + 1 if w < v else label
        labels[v] = v + label * length
        totals.append(as_uint(totals[-1] + label + 1, "cycle stone total"))
    return totals


def game_graph_to_json(graph: SowingGraph, game: GameGraph) -> dict[str, object]:
    """JSON adjacency form of an enumerated game graph."""
    return {
        "truncated": game.truncated,
        "boards": [list(graph.bin_labels(b)) for b in game.boards],
        "edges": [
            {
                "from": edge.source,
                "to": edge.target,
                "moves": [
                    {"vertex": m.vertex, "ruma": m.ruma, "path": list(m.path)}
                    for m in edge.moves
                ],
            }
            for edge in game.edges
        ],
    }


def game_graph_to_dot(graph: SowingGraph, game: GameGraph) -> str:
    """DOT rendering with board bin-labels as node names."""

    names = ["[" + ",".join(map(str, graph.bin_labels(board))) + "]" for board in game.boards]
    lines = ["digraph sowing_game {"]
    lines += [f'  "{name}";' for name in names]
    for edge in game.edges:
        label = ",".join(f"v{m.vertex}" for m in edge.moves)
        lines.append(f'  "{names[edge.source]}" -> "{names[edge.target]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)

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
from itertools import chain
from operator import add, itemgetter, sub

from .checked import DEFAULT_BOARD_CAP, MAX_BOARD_BINS, MAX_VERTICES, MAX_WALK_STEPS, _Frozen, as_uint

# object.__setattr__, looked up once, for the constructors below.
_set = object.__setattr__


class IllegalMoveError(ValueError):
    """The requested sow or unplay violates the movement rules."""


def _check_vertex_budget(vertex_count: int) -> None:
    if vertex_count > MAX_VERTICES:
        raise OverflowError(f"a sowing graph of {vertex_count} vertices exceeds the budget of {MAX_VERTICES}")


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
        _check_vertex_budget(vertex_count)
        # One loop checks each edge's shape and bounds and files it under
        # its source.  An endpoint that is not an int in range goes through
        # as_uint, to raise its error.  Faults are reported in a fixed
        # order: an edge's shape or endpoint type (the first such edge),
        # then parallel edges, then an endpoint past the last vertex.
        out: list[list[int]] = [[] for _ in range(vertex_count)]
        pairs = []
        missing = False
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise ValueError(f"an edge is a (source, target) pair, got {edge!r}")
            a, b = edge
            pairs.append((a, b))
            if not (a.__class__ is int and b.__class__ is int and 0 <= a < vertex_count and 0 <= b < vertex_count):
                as_uint(a, "edge source")
                as_uint(b, "edge target")
                if not (a < vertex_count and b < vertex_count):
                    missing = True
                    continue
            out[a].append(b)
        edges = frozenset(pairs)
        if len(edges) < len(pairs):
            raise ValueError("parallel edges are not allowed")
        if missing:
            a, b = next((a, b) for a, b in edges if not (a < vertex_count and b < vertex_count))
            raise ValueError(f"edge ({a}, {b}) references a missing vertex")
        ruma = frozenset(as_uint(r, "Ruma vertex") for r in ruma)
        if not ruma:
            raise ValueError("the Ruma set must be nonempty")
        for r in ruma:
            if r >= vertex_count:
                raise ValueError(f"Ruma vertex {r} does not exist")
        self._store(vertex_count, edges, ruma, {v: tuple(sorted(ws)) for v, ws in enumerate(out)})

    @classmethod
    def _trusted(
        cls, vertex_count: int, edges: frozenset, ruma: frozenset, successors: dict[int, tuple[int, ...]]
    ) -> "SowingGraph":
        # A graph the library built itself, with its sorted successor
        # tuples in vertex order: not re-checked.
        graph = object.__new__(cls)
        graph._store(vertex_count, edges, ruma, successors)
        return graph

    def _store(
        self, vertex_count: int, edges: frozenset, ruma: frozenset, successors: dict[int, tuple[int, ...]]
    ) -> None:
        _set(self, "vertex_count", vertex_count)
        _set(self, "edges", edges)
        _set(self, "ruma", ruma)
        _set(self, "successors", successors)
        _set(self, "bins", tuple(v for v in range(vertex_count) if v not in ruma))

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
        _check_board(self, board)
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
        _set(self, "labels", labels)

    @classmethod
    def _trusted(cls, labels: tuple[int, ...]) -> "GraphBoard":
        # Labels the library derived itself: not re-checked.
        board = _new(cls)
        _set_labels(board, labels)
        return board


@functools.total_ordering
class Move(_Frozen):
    """An unplay/sow descriptor: the emptied-or-filled vertex, its Ruma, the walk.

    Moves order as their ``(vertex, ruma, path)`` tuples.
    """

    __slots__ = __match_args__ = ("vertex", "ruma", "path")

    def __init__(self, vertex: int, ruma: int, path: tuple[int, ...]) -> None:
        _set(self, "vertex", vertex)
        _set(self, "ruma", ruma)
        _set(self, "path", path)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() < other._fields()


class GameEdge(_Frozen):
    """A sow move between discovered boards, indices into GameGraph.boards."""

    __slots__ = __match_args__ = ("source", "target", "moves")

    def __init__(self, source: int, target: int, moves: tuple[Move, ...]) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "moves", moves)


class GameGraph(_Frozen):
    """Winning boards (discovery order) and the sow moves connecting them."""

    __slots__ = __match_args__ = ("boards", "edges", "truncated")

    def __init__(
        self, boards: tuple[GraphBoard, ...], edges: tuple[GameEdge, ...], truncated: bool = False
    ) -> None:
        _set(self, "boards", boards)
        _set(self, "edges", edges)
        _set(self, "truncated", truncated)


# The slot setters of a board and an edge, bound once: a game search
# builds one board per board found and one edge per sowing board and
# target, through object.__new__ and these, without a call to __init__.
_new = object.__new__
_set_labels = GraphBoard.__dict__["labels"].__set__
_set_source = GameEdge.__dict__["source"].__set__
_set_target = GameEdge.__dict__["target"].__set__
_set_moves = GameEdge.__dict__["moves"].__set__


def _check_board(graph: SowingGraph, board: GraphBoard) -> None:
    if len(board.labels) != graph.vertex_count:
        raise ValueError(f"a board of {len(board.labels)} labels does not fit a graph of {graph.vertex_count} vertices")


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
    _check_board(graph, board)
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
    _check_board(graph, board)
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
    # another vertex, or v has a self-loop.  work holds (v, the iterator
    # over v's successors, v's place on the component stack), so a visit
    # resumes where it broke off.  index_of[v] is -1 before v is visited
    # and n once its component is popped, which no low link exceeds, so a
    # settled vertex needs no on-stack mark.  A component of one vertex is
    # settled by a self-loop test, and only a larger one is listed.
    n = graph.vertex_count
    successors = graph.successors
    index_of = [-1] * n
    low = [0] * n
    on_cycle = [False] * n
    stack: list[int] = []
    witness = None
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors[root]), 0)]
        while work:
            v, succ, base = work[-1]
            for w in succ:
                x = index_of[w]
                if x < 0:
                    index_of[w] = low[w] = counter
                    counter += 1
                    work.append((w, iter(successors[w]), len(stack)))
                    stack.append(w)
                    break
                if x < low[v]:
                    low[v] = x
            else:
                work.pop()
                if low[v] < index_of[v]:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                elif len(stack) == base + 1:
                    stack.pop()
                    index_of[v] = n
                    on_cycle[v] = v in successors[v]
                else:
                    component = stack[base:]
                    del stack[base:]
                    for w in component:
                        index_of[w] = n
                        on_cycle[w] = True
                    rumas = [w for w in component if w in graph.ruma]
                    if witness is None and rumas and len(rumas) < len(component):
                        witness = min(rumas), min(w for w in component if w not in graph.ruma)
    return witness, on_cycle


def has_finite_game_graph(graph: SowingGraph) -> tuple[bool, tuple[int, int] | None]:
    """Decide whether the graph has finitely many winning boards.

    The rule applied: the game is called infinite when some strongly
    connected component holds both a Ruma and a non-Ruma vertex (two
    co-reachable vertices share a directed cycle, which unplay walks can
    wrap again and again).  The witness is such a pair, or None when the
    game is called finite.  The rule calls some infinite games finite: in
    ``SowingGraph(2, {(1, 0), (0, 0)}, {0})`` the bin feeds a Ruma with a
    self-loop, so every walk 1, 0, 0, ..., 0 is a legal unplay and the
    game is infinite, yet no component holds both kinds of vertex (see
    the finiteness item of ROADMAP.md).
    """
    witness, _ = _cycles(graph)
    return witness is None, witness


def _budget_refusal() -> RuntimeError:
    return RuntimeError(f"the unplay walk search exceeded its budget of {MAX_WALK_STEPS} steps")


def _cap_refusal(cap: int) -> RuntimeError:
    return RuntimeError(
        f"the finite game graph has more than {cap} boards; raise the board cap (--cap) to enumerate it"
    )


def _legal_unplays(
    labels: list[int],
    starts: tuple[int, ...],
    is_start: list[bool],
    on_cycle: list[bool],
    predecessors: list[list[int]],
    is_ruma: list[bool],
    rumas: frozenset[int],
    max_length: int,
    budget: int,
) -> tuple[list[tuple], int]:
    # Every legal unplay on the board *labels* from a vertex of *starts*
    # (is_start marks them), walks of at most max_length edges, as sorted
    # (v, r, path, grown labels) tuples, and the step budget left.
    # Depth-first backward from each Ruma over the predecessor lists, so
    # only walks that end on a Ruma are explored: a step onto a Ruma is
    # free, a step onto a bin takes one of its stones, and a step onto an
    # empty start records the walk from it.  A start holding stones is
    # recorded only once its own visits on the walk have used them up,
    # which needs a cycle through it.  *labels* is restored on return.
    # When every start holds stones and lies on no cycle, none can be
    # refilled, and the walks back from the Rumas would all be in vain.
    for v in starts:
        if not labels[v] or on_cycle[v]:
            break
    else:
        return [], budget
    found: list[tuple] = []
    for r in rumas:
        # The walk reversed: path[0] is the Ruma it ends on.
        path = [r]
        pending = [iter(predecessors[r])]
        while pending:
            for w in pending[-1]:
                if is_ruma[w]:
                    pass
                elif labels[w]:
                    # A bin holding stones is passed through, so the
                    # walk must go on back past it.
                    if not predecessors[w]:
                        continue
                    labels[w] -= 1
                elif is_start[w]:
                    walk = (w, *reversed(path))
                    labels[w] = len(path)
                    found.append((w, r, walk, tuple(labels)))
                    labels[w] = 0
                    budget -= 1 + len(walk) + len(labels)
                    if budget < 0:
                        raise _budget_refusal()
                    continue
                else:
                    continue
                budget -= 1
                if budget < 0:
                    raise _budget_refusal()
                path.append(w)
                if len(path) <= max_length:
                    pending.append(iter(predecessors[w]))
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


def _parts(graph: SowingGraph, on_cycle: list[bool], sink_rumas: bool) -> list[tuple[int, ...]]:
    # The bins of each independent part of the game, in id order.  When
    # every Ruma is a sink (no out-edge) and no vertex lies on a cycle, a
    # walk ends on the first Ruma it reaches and never leaves its start's
    # weakly connected component of the bin subgraph, so each component
    # plays its own game; otherwise the whole board is one part.  It is one
    # part as well when fewer than two bins feed a Ruma, as on a path: only
    # a part holding such a bin has moves, and the others stay empty.  The
    # components of a single bin are searched together, as one part: each
    # has at most two boards, and searching it costs about what the
    # product pass spends on a board.
    if any(on_cycle) or not sink_rumas:
        return [graph.bins]
    if len({a for a, b in graph.edges if b in graph.ruma}) < 2:
        return [graph.bins]
    # Union-find over the edges between bins, halving paths as it goes.
    root = list(range(graph.vertex_count))
    for a, b in graph.edges:
        if b not in graph.ruma:
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            root[a] = b
    members: dict[int, list[int]] = {}
    for v in graph.bins:
        r = v
        while root[r] != r:
            r = root[r]
        members.setdefault(r, []).append(v)
    parts = [tuple(part) for part in members.values() if len(part) > 1]
    singles = tuple(part[0] for part in members.values() if len(part) == 1)
    if singles:
        parts.append(singles)
    return parts if len(parts) > 1 else [graph.bins]


def _part_game(
    starts: tuple[int, ...],
    finite: bool,
    cap: int,
    on_cycle: list[bool],
    predecessors: list[list[int]],
    is_ruma: list[bool],
    rumas: frozenset[int],
    budget: int,
) -> tuple[list[tuple[int, ...]], list[list[tuple]], int]:
    # Breadth-first closure of unplaying from the empty board, walks
    # starting only on *starts*.  Returns the boards' full vertex labels
    # in discovery order; out[i], the sows from board i as (target,
    # (move,)), by target and then in (v, r, path) order; and the step
    # budget left.
    n = len(is_ruma)
    is_start = [False] * n
    for v in starts:
        is_start[v] = True
    # Ruma labels stay 0, since unplaying only ever takes captured stones back.
    keys = [(0,) * n]
    index = {keys[0]: 0}
    out: list[list[tuple]] = [[]]
    # walks holds the one (move,) of each distinct walk, shared by every
    # edge that uses it; a walk starts on this part's bins, so no other
    # part has it.
    walks: dict[tuple[int, ...], tuple[Move]] = {}
    yi = 0
    while yi < len(keys):
        labels = list(keys[yi])
        # Any longer walk would wrap a stone-free cycle, which a
        # criterion-finite graph does not offer along unplay walks.
        limit = (sum(labels) + 1) * (n + 1) if finite else cap * n
        found, budget = _legal_unplays(
            labels, starts, is_start, on_cycle, predecessors, is_ruma, rumas, limit, budget
        )
        for v, r, path, key in found:
            grown = index.get(key)
            if grown is None:
                if len(keys) >= cap:
                    if finite:
                        raise _cap_refusal(cap)
                    continue
                grown = index[key] = len(keys)
                keys.append(key)
                out.append([])
            walk = walks.get(path)
            if walk is None:
                walk = walks[path] = (Move(v, r, path),)
            out[grown].append((yi, walk))
        yi += 1
    return keys, out, budget


def _path_line(
    starts: tuple[int, ...],
    successors: dict[int, tuple[int, ...]],
    predecessors: list[list[int]],
    is_ruma: list[bool],
) -> tuple[int, ...] | None:
    # (r, v_1, ..., v_L) when the part's bins form a path into the Ruma r:
    # v_1's only out-edge goes to r and each v_(i+1)'s only to v_i.  The
    # caller has checked that no Ruma has an out-edge, so a bin's
    # predecessors are bins of its own part, and no other edge enters the
    # path.  None for any other part.
    if any(len(successors[v]) != 1 for v in starts):
        return None
    ends = [v for v in starts if is_ruma[successors[v][0]]]
    if len(ends) != 1:
        return None
    line = [successors[ends[0]][0], ends[0]]
    while len(line) <= len(starts) and len(predecessors[line[-1]]) == 1:
        line += predecessors[line[-1]]
    if predecessors[line[-1]] or len(line) != len(starts) + 1:
        return None
    return tuple(line)


def _path_game(
    line: tuple[int, ...], n: int, cap: int, budget: int
) -> tuple[list[tuple[int, ...]], list[list[tuple]], int]:
    # The game of a path part, line = (r, v_1, ..., v_L), returned as
    # _part_game returns it.  It is the linear game: a board has one
    # unplay while a bin is empty, which fills the leftmost empty bin v_p
    # with p stones along the walk v_p, ..., v_1, r, taking one stone from
    # each of v_1..v_(p-1), so the boards form one chain.  Each unplay is
    # charged what _legal_unplays charges for it: a step onto each of
    # v_1..v_(p-1), then 1 + len(walk) + n for the walk recorded, 2p + 1 + n
    # in all; the full last board, whose search returns at once, is free.
    # No bin lies on a cycle and no Ruma has an out-edge, so the game is
    # finite and a board past the cap is refused.
    # row[i] is the label of line[i]; row[0], the Ruma's, stays 0, as does
    # the sentinel row[L + 1] that ends the search for an empty bin.
    row = [0] * (len(line) + 1)
    # A board's vertex labels read off row in one call (n >= 2, so as a
    # tuple); a vertex off the path reads the Ruma's 0.
    where = [0] * n
    for i, v in enumerate(line):
        where[v] = i
    labels_of = itemgetter(*where)
    keys = [labels_of(row)]
    out: list[list[tuple]] = [[]]
    # moves[p]: the one (move,) of the walk from v_p, shared by its edges;
    # no other part has a walk from these bins.
    moves: list[tuple[Move] | None] = [None] * len(line)
    p = row.index(0, 1)
    while p < len(line):
        budget -= 2 * p + 1 + n
        if budget < 0:
            raise _budget_refusal()
        if len(keys) >= cap:
            raise _cap_refusal(cap)
        for i in range(1, p):
            row[i] -= 1
        row[p] = p
        keys.append(labels_of(row))
        walk = moves[p]
        if walk is None:
            path = line[p::-1]
            walk = moves[p] = (Move(line[p], line[0], path),)
        out.append([(len(keys) - 2, walk)])
        p = row.index(0, 1)
    return keys, out, budget


def _product_game(
    games: list[tuple], cap: int, budget: int
) -> tuple[list[tuple[int, ...]], list[list[tuple]]]:
    # The game of independent parts, breadth-first over its boards, each
    # a choice of one board per part.  A board's unplays are its parts'
    # unplays; the parts own disjoint vertices, so a stable sort by v
    # gives the order a search of the whole board finds them in, as far
    # as that order counts (see below), and the boards are discovered in
    # the same order.  A board is keyed by the mixed-radix number of its part
    # boards (part p's board is key // stride % size), so a move adds a
    # fixed step to the key and changes the labels of its own part only.
    # Each move costs the budget one step per part, less than a search of
    # the whole board pays for it.  Returns the boards' vertex labels and
    # the sows from each board, as _part_game does.
    # parts[p]: (row, stride, size), row[i] holding the unplays of part
    # p's board i as (v, key step, (move,), label change).  A part files
    # each move under the board that sows it, so a row runs by target, in
    # the order the part found them, each target's moves in (v, r, path)
    # order.  A move to a target found earlier may sort after one to a
    # target found later, and the row is not sorted back.  With the other
    # parts' boards held, the product finds one part's boards in the
    # part's own order (by induction over the product's levels, a board's
    # level being the sum of its parts'), so that earlier target is found
    # before this board is expanded.  Only the order of the new boards and
    # of each edge's walks counts, and both come out as from a sorted row.
    parts = []
    stride = 1
    for part_keys, part_out in games:
        row: list[list[tuple]] = [[] for _ in part_keys]
        for grown, sows in enumerate(part_out):
            for source, walk in sows:
                change = tuple(map(sub, part_keys[grown], part_keys[source]))
                row[source].append((walk[0].vertex, (grown - source) * stride, walk, change))
        parts.append((row, stride, len(part_keys)))
        stride *= len(part_keys)
    vertex = itemgetter(0)
    # The empty board: every part on its first board.
    codes = [0]
    boards = [games[0][0][0]]
    index = {0: 0}
    out: list[list[tuple]] = [[]]
    count = 1
    # codes grows as boards are found; the loop reaches each in turn.
    for yi, code in enumerate(codes):
        found = []
        for row, stride, size in parts:
            found += row[code // stride % size]
        budget -= len(found) * len(parts)
        if budget < 0:
            raise _budget_refusal()
        found.sort(key=vertex)
        board = boards[yi]
        for _, step, walk, change in found:
            key = code + step
            grown = index.get(key)
            if grown is None:
                if count >= cap:
                    raise _cap_refusal(cap)
                index[key] = count
                count += 1
                codes.append(key)
                boards.append(tuple(map(add, board, change)))
                out.append([(yi, walk)])
            else:
                out[grown].append((yi, walk))
    return boards, out


def enumerate_winning_boards(graph: SowingGraph, cap: int = DEFAULT_BOARD_CAP) -> GameGraph:
    """Breadth-first closure of unplaying from the empty board.

    The finite case returns the complete game graph, or raises
    RuntimeError when it has more than *cap* boards.  The infinite case
    returns a truncated prefix: at most *cap* boards, with per-unmove
    walk lengths capped at cap * vertex_count.  Either case raises
    RuntimeError when the walk search passes its step budget.

    A board's unplays are found by walking back from each Ruma over the
    graph's predecessor lists, built once per call, so the search extends
    only walks that end on a Ruma.  When no Ruma has an out-edge and no
    vertex lies on a cycle, each weakly connected component of the bins
    (a spoke of a star) plays its own game, and the game is their
    product: each part is built once and the product is built from the
    parts' moves, with the boards and edges in the order a search of the
    whole board gives.  A part whose bins form a path into a Ruma (every
    path, and every star spoke of two or more bins, in any vertex
    numbering) plays the linear game, and is built as its chain of
    boards without the walk search: each board's one unplay fills the
    leftmost empty bin.  It is charged the steps the search would spend
    on it, so refusals come where they would.  Each move is filed under
    the board that sows it as it is found, and the edges are read off
    those lists in one pass.
    """
    if as_uint(cap, "board cap") < 1:
        raise ValueError("cap must be >= 1")
    # A bin holding stones is refilled only by a walk that comes back to it.
    witness, on_cycle = _cycles(graph)
    finite = witness is None
    n = graph.vertex_count
    is_ruma = [v in graph.ruma for v in range(n)]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for v, w in graph.edges:
        predecessors[w].append(v)
    # When every Ruma is a sink, a part whose bins form a path plays the linear game.
    sink_rumas = not any(graph.successors[r] for r in graph.ruma)
    budget = MAX_WALK_STEPS
    games = []
    for starts in _parts(graph, on_cycle, sink_rumas):
        line = sink_rumas and _path_line(starts, graph.successors, predecessors, is_ruma)
        if line:
            keys, out, budget = _path_game(line, n, cap, budget)
        else:
            keys, out, budget = _part_game(
                starts, finite, cap, on_cycle, predecessors, is_ruma, graph.ruma, budget
            )
        games.append((keys, out))
    if len(games) == 1:
        keys, out = games[0]
    else:
        keys, out = _product_game(games, cap, budget)
    boards = []
    for key in keys:
        board = _new(GraphBoard)
        _set_labels(board, key)
        boards.append(board)
    # out[i] holds the sows from board i as (target, (move,)).  Targets
    # were expanded in index order and each one's moves found in
    # (v, r, path) order, so a list holds its edges in order and each
    # edge's walks side by side.  A one-move edge keeps its walk's shared
    # (move,); the walks of a longer edge are gathered by the edge's
    # index and joined once every edge is built.
    edges = []
    merged: dict[int, list[tuple[Move]]] = {}
    for source, sows in enumerate(out):
        last = -1
        for target, walk in sows:
            if target != last:
                edge = _new(GameEdge)
                _set_source(edge, source)
                _set_target(edge, target)
                _set_moves(edge, walk)
                edges.append(edge)
                last = target
            else:
                merged.setdefault(len(edges) - 1, [edge.moves]).append(walk)
    for i, walks_of_edge in merged.items():
        _set_moves(edges[i], tuple(chain.from_iterable(walks_of_edge)))
    return GameGraph(tuple(boards), tuple(edges), truncated=not finite)


def make_path(length: int) -> SowingGraph:
    """Directed path of *length* bins feeding a single Ruma sink: the linear game, a one-spoke star."""
    if as_uint(length, "path length") < 1:
        raise ValueError("length must be >= 1")
    return make_star(1, length)


def make_cycle(length: int) -> SowingGraph:
    """Directed cycle on *length* vertices, one of which is the Ruma."""
    if as_uint(length, "cycle length") < 1:
        raise ValueError("length must be >= 1")
    _check_vertex_budget(length)
    edges = [(i, (i - 1) % length) for i in range(length)]
    return SowingGraph._trusted(length, frozenset(edges), frozenset({0}), {a: (b,) for a, b in edges})


def make_star(spokes: int, length: int) -> SowingGraph:
    """Star of *spokes* directed paths of *length* bins, Ruma at the center."""
    if as_uint(spokes, "spoke count") < 1 or as_uint(length, "spoke length") < 1:
        raise ValueError("spokes and length must be >= 1")
    _check_vertex_budget(spokes * length + 1)
    # Bin d of spoke s is vertex s * length + d: bin 1 feeds the Ruma 0, bin d > 1 feeds bin d - 1.
    edges = [(v, v - 1 if (v - 1) % length else 0) for v in range(1, spokes * length + 1)]
    successors = {0: ()}
    successors.update((a, (b,)) for a, b in edges)
    return SowingGraph._trusted(spokes * length + 1, frozenset(edges), frozenset({0}), successors)


def cycle_attained_counts(length: int, board_limit: int) -> list[int]:
    """Stone totals along the cycle game's unique unplay path.

    Each step unplays from the Ruma into the closest minimally labeled
    vertex, wrapping the cycle once per stone already on it.  Not every
    integer appears among the totals.  Each board costs O(length), so
    board_limit * length, the cells of the boards' label table, must stay
    within the bin budget; past it OverflowError is raised before the
    first step.
    """
    if as_uint(length, "cycle length") < 2:
        raise ValueError("cycle_attained_counts requires length >= 2")
    if as_uint(board_limit, "board limit") < 1:
        raise ValueError("board_limit must be >= 1")
    _check_vertex_budget(length)
    if board_limit * length > MAX_BOARD_BINS:
        raise OverflowError(
            f"a table of {board_limit} boards by {length} vertices passes the budget of {MAX_BOARD_BINS} bins"
        )
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


def _bin_getter(graph: SowingGraph) -> itemgetter:
    # A board's bin labels, id order, as a tuple read off its labels in one
    # call: itemgetter of a single index gives the bare label, so one bin
    # or none is read as a slice.
    bins = graph.bins
    if len(bins) > 1:
        return itemgetter(*bins)
    return itemgetter(slice(bins[0], bins[0] + 1) if bins else slice(0))


def game_graph_to_json(graph: SowingGraph, game: GameGraph) -> dict[str, object]:
    """JSON adjacency form of an enumerated game graph."""
    bin_labels = _bin_getter(graph)
    return {
        "truncated": game.truncated,
        "boards": [list(bin_labels(b.labels)) for b in game.boards],
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

    bin_labels = _bin_getter(graph)
    names = ["[" + ",".join(map(str, bin_labels(board.labels))) + "]" for board in game.boards]
    lines = ["digraph sowing_game {"]
    lines += [f'  "{name}";' for name in names]
    # Each edge's label, kept by the identity of its moves tuple: the
    # edges of one walk share its (move,), so its text is built once.
    labels: dict[int, str] = {}
    for edge in game.edges:
        label = labels.get(id(edge.moves))
        if label is None:
            label = labels[id(edge.moves)] = ",".join(f"v{m.vertex}" for m in edge.moves)
        lines.append(f'  "{names[edge.source]}" -> "{names[edge.target]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)

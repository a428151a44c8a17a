"""Slow reference implementations of the graph game's search.

These are the straightforward forms that the library's engine replaced:
a breadth-first closure that enumerates every legal unplay walk per board
and replays each one through the public, fully checked ``unplay_move``,
a cycle-game step that materializes its walk of label * length edges,
a DOT export that renders both end names of every edge afresh, and the
two-pass cycle analysis that lists the sorted strongly connected
components first and then scans them for the finiteness witness and the
on-cycle marks.  The differential tests compare the engine against them.
"""

from __future__ import annotations

from collections import deque

from tchoukaillon import (
    GameEdge,
    GameGraph,
    GraphBoard,
    Move,
    SowingGraph,
    has_finite_game_graph,
    make_cycle,
    unplay_move,
)


def strongly_connected_components(graph: SowingGraph) -> list[list[int]]:
    """Iterative Tarjan: each component sorted, in the order they are popped."""
    n = graph.vertex_count
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
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
            advanced = False
            succ = graph.successors[v]
            while edge_pos < len(succ):
                w = succ[edge_pos]
                edge_pos += 1
                if index_of[w] == -1:
                    work.append((v, edge_pos))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def cycles_by_components(graph: SowingGraph) -> tuple[tuple[int, int] | None, list[bool]]:
    """The finiteness witness and on-cycle marks, scanned from the component list."""
    components = strongly_connected_components(graph)
    witness = None
    for component in components:
        rumas = [v for v in component if v in graph.ruma]
        others = [v for v in component if v not in graph.ruma]
        if rumas and others:
            witness = rumas[0], others[0]
            break
    on_cycle = [False] * graph.vertex_count
    for component in components:
        for v in component:
            on_cycle[v] = len(component) > 1 or v in graph.successors[v]
    return witness, on_cycle


def legal_unplays(graph: SowingGraph, board: GraphBoard, max_length: int) -> list[Move]:
    """Every (v, r, walk) whose unplay is legal on *board*, walks of at most *max_length* edges."""
    moves: list[Move] = []
    for v in graph.bins:
        remaining = list(board.labels)
        path = [v]
        pending = [iter(graph.successors[v])]
        while pending:
            step = next(pending[-1], None)
            if step is None:
                pending.pop()
                last = path.pop()
                if path and last not in graph.ruma:
                    remaining[last] += 1
                continue
            if step not in graph.ruma:
                if remaining[step] == 0:
                    continue
                remaining[step] -= 1
            path.append(step)
            if step in graph.ruma and remaining[v] == 0:
                moves.append(Move(v, step, tuple(path)))
            if len(path) - 1 < max_length:
                pending.append(iter(graph.successors[step]))
            else:
                last = path.pop()
                if last not in graph.ruma:
                    remaining[last] += 1
    moves.sort()
    return moves


def enumerate_by_replay(graph: SowingGraph, cap: int) -> GameGraph:
    """The game graph by breadth-first unplay, each move replayed through unplay_move."""
    finite, _ = has_finite_game_graph(graph)
    zero = graph.zero_board()
    boards = [zero]
    index = {graph.bin_labels(zero): 0}
    edge_moves: dict[tuple[int, int], list[Move]] = {}
    queue = deque([0])
    while queue:
        yi = queue.popleft()
        source = boards[yi]
        if finite:
            limit = (graph.stones(source) + 1) * (graph.vertex_count + 1)
        else:
            limit = cap * graph.vertex_count
        for move in legal_unplays(graph, source, limit):
            grown = unplay_move(graph, source, move.vertex, move.ruma, move.path)
            key = graph.bin_labels(grown)
            if key not in index:
                if len(boards) >= cap:
                    if finite:
                        raise RuntimeError(
                            f"the finite game graph has more than {cap} boards; "
                            "raise the board cap (--cap) to enumerate it"
                        )
                    continue
                index[key] = len(boards)
                boards.append(grown)
                queue.append(index[key])
            edge_moves.setdefault((index[key], yi), []).append(move)
    edges = tuple(GameEdge(source, target, tuple(moves)) for (source, target), moves in sorted(edge_moves.items()))
    return GameGraph(tuple(boards), edges, truncated=not finite)


def cycle_unplay(graph: SowingGraph, board: GraphBoard, length: int) -> GraphBoard:
    """One cycle-game unplay: the walk wraps the cycle once per stone on the refilled vertex."""
    # Vertex id equals walk distance to the Ruma, so min((label, id)) is
    # the closest minimally labeled vertex.
    label, v = min((board.labels[v], v) for v in graph.bins)
    path = [v]
    current = v
    for _ in range(v + label * length):
        current = current - 1 if current >= 1 else length - 1
        path.append(current)
    return unplay_move(graph, board, v, 0, tuple(path))


def cycle_counts_by_replay(length: int, board_limit: int) -> list[int]:
    """Stone totals of the cycle game, each unplay replayed edge by edge."""
    graph = make_cycle(length)
    board = graph.zero_board()
    totals = [0]
    while len(totals) < board_limit:
        board = cycle_unplay(graph, board, length)
        totals.append(graph.stones(board))
    return totals


def dot_by_edge(graph: SowingGraph, game: GameGraph) -> str:
    """DOT rendering that rebuilds each end's node name for every edge."""

    def name(board: GraphBoard) -> str:
        return "[" + ",".join(str(c) for c in graph.bin_labels(board)) + "]"

    lines = ["digraph sowing_game {"]
    for board in game.boards:
        lines.append(f'  "{name(board)}";')
    for edge in game.edges:
        label = ",".join(f"v{m.vertex}" for m in edge.moves)
        lines.append(
            f'  "{name(game.boards[edge.source])}" -> '
            f'"{name(game.boards[edge.target])}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)

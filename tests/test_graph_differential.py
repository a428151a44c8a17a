"""The graph game's search engine against the slow replay oracles.

Every enumeration must give byte-identical JSON and DOT exports to the
breadth-first closure that replays each legal walk through the checked
``unplay_move``, exported by the per-edge DOT renderer, and the
arithmetic cycle game must give the totals of the replayed walks.
Graphs whose bins fall into independent parts are built part by part
and as a product, and a part whose bins form a path is built as the
linear game without the walk search; the oracle searches them whole.  The walk search
itself, which runs backward from the Rumas, is compared board by board
with the oracle's forward search from every bin.
"""

import math
import pickle
import random

import pytest

import tchoukaillon.graph as graph_module
from tchoukaillon import (
    GraphBoard,
    SowingGraph,
    cycle_attained_counts,
    enumerate_winning_boards,
    game_graph_to_dot,
    game_graph_to_json,
    make_cycle,
    make_path,
    make_star,
    unplay_move,
)

from graph_oracle import cycle_counts_by_replay, dot_by_edge, enumerate_by_replay, legal_unplays

# Star sizes enumerated by the test suite and by the benchmark's graph workload.
STARS = sorted({(s, length) for s in (1, 2, 3) for length in (1, 2, 3, 4)} | {(2, 4), (4, 2), (1, 6)})


def engine(graph, cap):
    return enumerate_winning_boards(graph, cap=cap)


# (enumerate, render DOT) for the library and for the slow oracles.
ENGINE = (engine, game_graph_to_dot)
ORACLE = (enumerate_by_replay, dot_by_edge)


def exports(graph, side, cap):
    enumerate_game, to_dot = side
    try:
        game = enumerate_game(graph, cap)
    except RuntimeError as exc:
        return "RuntimeError", str(exc)
    return game_graph_to_json(graph, game), to_dot(graph, game)


def assert_same_game(graph, cap):
    assert exports(graph, ENGINE, cap) == exports(graph, ORACLE, cap)


@pytest.mark.parametrize("length", range(1, 17))
def test_paths(length):
    assert_same_game(make_path(length), 10_000)


@pytest.mark.parametrize("spokes,length", STARS)
def test_stars(spokes, length):
    assert_same_game(make_star(spokes, length), 10_000)


@pytest.mark.parametrize("length", range(1, 7))
def test_cycles_at_every_cap(length):
    for cap in range(1, 31):
        assert_same_game(make_cycle(length), cap)


@pytest.mark.parametrize(
    "graph",
    [
        SowingGraph(5, frozenset({(1, 0), (2, 1), (3, 2), (2, 4)}), frozenset({0})),
        SowingGraph(3, frozenset({(1, 0), (1, 2)}), frozenset({0, 2})),
        SowingGraph(2, frozenset({(1, 0), (0, 0)}), frozenset({0})),
        # two parts, one feeding the Ruma
        SowingGraph(5, frozenset({(1, 0), (2, 1), (4, 3)}), frozenset({0})),
        # parts {1, 3} and {2, 4} with interleaved ids, each feeding its own Ruma
        SowingGraph(6, frozenset({(1, 0), (3, 1), (3, 0), (2, 5), (4, 2)}), frozenset({0, 5})),
        # no bins: one board, exported with no labels
        SowingGraph(2, frozenset({(1, 0)}), frozenset({0, 1})),
    ],
)
def test_hand_built_graphs(graph):
    assert_same_game(graph, 10_000)


# Path parts in other guises, each played as the linear game without the
# walk search: vertex ids out of path order (a shuffled make_path(7)), a
# Ruma that is not vertex 0, a second Ruma off the path, and two paths
# into two Rumas, a product of two path parts.
PATH_SHAPED = [
    SowingGraph(4, frozenset({(2, 0), (3, 2), (1, 3)}), frozenset({0})),
    SowingGraph(8, frozenset({(5, 3), (0, 5), (7, 0), (2, 7), (6, 2), (1, 6), (4, 1)}), frozenset({3})),
    SowingGraph(5, frozenset({(4, 3), (0, 4), (2, 0), (1, 2)}), frozenset({3})),
    SowingGraph(6, frozenset({(1, 0), (2, 1), (3, 2), (4, 3)}), frozenset({0, 5})),
    SowingGraph(7, frozenset({(1, 0), (2, 1), (3, 2), (4, 6), (5, 4)}), frozenset({0, 6})),
]

# Shapes one edge or bin away from a path, which the walk search plays: a
# Ruma with a self-loop (an infinite game the finiteness rule calls finite,
# refused at the cap), a Ruma feeding a second Ruma, a Ruma feeding the far
# end of the path (a cycle, truncated), a Y, and a path beside an isolated bin.
NEAR_PATHS = [
    SowingGraph(4, frozenset({(1, 0), (2, 1), (3, 2), (0, 0)}), frozenset({0})),
    SowingGraph(5, frozenset({(1, 0), (2, 1), (3, 2), (0, 4)}), frozenset({0, 4})),
    SowingGraph(4, frozenset({(1, 0), (2, 1), (3, 2), (0, 3)}), frozenset({0})),
    SowingGraph(4, frozenset({(1, 0), (2, 1), (3, 1)}), frozenset({0})),
    SowingGraph(5, frozenset({(1, 0), (2, 1), (3, 2)}), frozenset({0})),
]


@pytest.mark.parametrize("graph", PATH_SHAPED)
def test_path_shapes_play_the_linear_game(graph, part_boards):
    assert_same_game(graph, 10_000)
    assert {builder for builder, _ in part_boards} == {"path"}


@pytest.mark.parametrize("graph", NEAR_PATHS)
def test_near_paths_take_the_walk_search(graph, part_boards):
    assert_same_game(graph, 40)
    assert {builder for builder, _ in part_boards} == {"search"}


@pytest.mark.parametrize("graph", PATH_SHAPED)
def test_path_shapes_at_the_cap(graph):
    boards = len(engine(graph, 10_000).boards)
    assert exports(graph, ENGINE, boards - 1)[0] == "RuntimeError"
    for cap in (boards - 1, boards):
        assert_same_game(graph, cap)


@pytest.mark.parametrize("graph", PATH_SHAPED[:4])
def test_path_shapes_spend_the_search_budget(graph, monkeypatch):
    # One path, so each unplay of p edges costs the walk search's 2p + 1 +
    # vertex_count steps: the game is built within exactly that budget,
    # and one step less is refused as the search refuses it.
    game = engine(graph, 10_000)
    steps = sum(2 * len(m.path) - 1 + graph.vertex_count for edge in game.edges for m in edge.moves)
    refusal = ("RuntimeError", f"the unplay walk search exceeded its budget of {steps - 1} steps")
    for budget, expected in ((steps, exports(graph, ORACLE, 10_000)), (steps - 1, refusal)):
        monkeypatch.setattr(graph_module, "MAX_WALK_STEPS", budget)
        assert exports(graph, ENGINE, 10_000) == expected
        with monkeypatch.context() as searched:
            searched.setattr(graph_module, "_path_line", lambda *args: None)
            assert exports(graph, ENGINE, 10_000) == expected


# Products whose searched part, the triangle bin -> bin -> Ruma plus the
# short cut bin -> Ruma, files sows out of (v, r, path) order: the row of
# its board with one stone on the middle bin lists the short cut first,
# whose target was found earlier, and then the walk through the middle
# bin, which sorts before it.  The other part is a single bin with a
# smaller id, or a path of two bins with larger ids.
ROWS_OUT_OF_ORDER = [
    SowingGraph(4, frozenset({(0, 3), (1, 2), (1, 3), (2, 3)}), frozenset({3})),
    SowingGraph(5, frozenset({(0, 1), (0, 2), (1, 2), (3, 2), (4, 3)}), frozenset({2})),
]


@pytest.mark.parametrize("graph", ROWS_OUT_OF_ORDER)
def test_product_takes_part_rows_as_filed(graph, monkeypatch):
    # The product expands a part's sows in the order the part filed them,
    # and still finds the boards and each edge's walks in the oracle's order.
    rows = []
    product_game = graph_module._product_game

    def recorded(games, *rest):
        for _, part_out in games:
            filed = [[] for _ in part_out]
            for sows in part_out:
                for source, walk in sows:
                    filed[source].append(walk)
            rows.extend(filed)
        return product_game(games, *rest)

    monkeypatch.setattr(graph_module, "_product_game", recorded)
    assert_same_game(graph, 10_000)
    assert any(row != sorted(row) for row in rows)


def test_finite_game_beyond_cap_raises_on_both():
    assert exports(make_star(3, 2), ENGINE, 10) == exports(make_star(3, 2), ORACLE, 10)


# The seeds of test_random_graphs that the forward walk search this engine
# replaced refused at the lowered budget.  The backward search spends the
# budget differently; it may answer more of them, but refuse no other.
FORWARD_REFUSED = frozenset({
    5, 8, 12, 16, 34, 39, 41, 45, 50, 65, 77, 80, 81, 83, 92, 96, 99, 106, 108, 118, 124, 131,
    133, 135, 144, 146, 150, 151, 155, 156, 157, 159, 170, 173, 188, 189, 191, 192, 195, 197,
    210, 218, 219, 227, 232, 244, 253, 261, 263, 271, 276, 285, 288, 295, 297, 314, 322, 324,
    332, 343, 345, 347, 389, 398,
})


def random_graph(rng, vertices):
    """One or two Rumas and each edge with probability 0.4, self-loops and Ruma out-edges included."""
    ruma = rng.sample(range(vertices), rng.randint(1, 2))
    edges = {(a, b) for a in range(vertices) for b in range(vertices) if rng.random() < 0.4}
    return SowingGraph(vertices, frozenset(edges), frozenset(ruma))


def test_random_graphs(monkeypatch):
    # Graphs of up to five vertices.  A lowered walk budget keeps refused
    # searches short; the oracle, which has no budget, runs only on the
    # others.
    monkeypatch.setattr(graph_module, "MAX_WALK_STEPS", 50_000)
    compared = 0
    refused = set()
    for seed in range(400):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(2, 5))
        cap = rng.randint(3, 12)
        got = exports(graph, ENGINE, cap)
        if got[0] == "RuntimeError" and "walk search" in got[1]:
            refused.add(seed)
            continue
        assert got == exports(graph, ORACLE, cap), f"seed {seed}"
        compared += 1
    assert compared >= 300
    assert refused <= FORWARD_REFUSED, sorted(refused - FORWARD_REFUSED)


def test_walk_search_board_by_board():
    # Random boards on random graphs, with a random set of starting bins
    # and walk-length limit: the engine's backward search must list the
    # oracle's forward walks from those bins, with the boards they grow,
    # and leave the labels as it found them.  Ruma labels stay 0, as in
    # the game search.
    held = narrowed = 0
    for seed in range(300):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(2, 5))
        n = graph.vertex_count
        is_ruma = [v in graph.ruma for v in range(n)]
        _, on_cycle = graph_module._cycles(graph)
        predecessors = [[a for a, b in sorted(graph.edges) if b == v] for v in range(n)]
        for _ in range(6):
            starts = graph.bins
            if len(starts) > 1 and rng.random() < 0.5:
                starts = tuple(sorted(rng.sample(starts, rng.randint(1, len(starts) - 1))))
            is_start = [v in starts for v in range(n)]
            labels = [0 if is_ruma[v] else rng.randint(0, 3) for v in range(n)]
            max_length = rng.randint(1, 7)
            board = GraphBoard(tuple(labels))
            found, _ = graph_module._legal_unplays(
                labels, starts, is_start, on_cycle, predecessors, is_ruma, graph.ruma, max_length, 10**9
            )
            assert tuple(labels) == board.labels, f"seed {seed}"
            expected = [
                (m.vertex, m.ruma, m.path, unplay_move(graph, board, m.vertex, m.ruma, m.path).labels)
                for m in legal_unplays(graph, board, max_length)
                if m.vertex in starts
            ]
            assert found == expected, f"seed {seed}"
            held += sum(board.labels[v] > 0 for v, *_ in found)
            narrowed += bool(found) and starts != graph.bins
    # moves from a bin that held stones, refilled by a walk wrapping a
    # cycle through it, and boards with moves from a subset of the bins
    assert held >= 1000 and narrowed >= 100


def factoring_graph(rng):
    """A graph of 2-4 acyclic parts whose vertex ids interleave, feeding 1-2 sink Rumas, and its parts' bins."""
    rumas = rng.randint(1, 2)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    ids = list(range(rumas + sum(sizes)))
    rng.shuffle(ids)
    ruma, rest = ids[:rumas], ids[rumas:]
    edges = set()
    parts = []
    for size in sizes:
        # Edges run back along the order, so the part is acyclic; each bin
        # after the first has one edge that keeps the part connected.  A
        # part whose bins feed no Ruma has only the empty board.
        order, rest = rest[:size], rest[size:]
        if rng.random() < 0.9:
            edges.add((order[0], rng.choice(ruma)))
        for j in range(1, size):
            edges.add((order[j], order[rng.randrange(j)]))
            edges.update((order[j], order[i]) for i in range(j) if rng.random() < 0.5)
            edges.update((order[j], r) for r in ruma if rng.random() < 0.5)
        parts.append(tuple(sorted(order)))
    return SowingGraph(len(ids), frozenset(edges), frozenset(ruma)), parts


def test_random_factoring_graphs(part_boards):
    # Each part's game is built once, one board per board of its own game:
    # walks start only on its bins, and a path part is the linear game; a
    # search of the whole board would start on every bin, once per board
    # of the product.  The parts of one bin are searched together, and
    # with fewer than two bins feeding a Ruma the whole board is the one
    # part.
    products = refusals = fewer = paths = merged = 0
    for seed in range(60):
        rng = random.Random(seed)
        graph, parts = factoring_graph(rng)
        singles = tuple(sorted(v for part in parts if len(part) == 1 for v in part))
        parts = [part for part in parts if len(part) > 1] + [singles] * bool(singles)
        if len(parts) < 2 or len({a for a, b in graph.edges if b in graph.ruma}) < 2:
            parts = [graph.bins]
        cap = rng.choice((40, 2000))
        part_boards.clear()
        try:
            game = engine(graph, cap)
        except RuntimeError as exc:
            assert exports(graph, ORACLE, cap) == ("RuntimeError", str(exc)), f"seed {seed}"
            assert {bins for _, bins in part_boards} <= set(parts), f"seed {seed}"
            refusals += 1
            continue
        assert (game_graph_to_json(graph, game), game_graph_to_dot(graph, game)) == exports(graph, ORACLE, cap)
        assert game == enumerate_by_replay(graph, cap), f"seed {seed}"
        assert pickle.loads(pickle.dumps(game)) == game
        part_game_boards = [{tuple(board.labels[v] for v in part) for board in game.boards} for part in parts]
        assert len(game.boards) == math.prod(map(len, part_game_boards)), f"seed {seed}"
        assert {bins for _, bins in part_boards} == set(parts), f"seed {seed}"
        assert len(part_boards) == sum(map(len, part_game_boards)), f"seed {seed}"
        products += 1
        fewer += len(part_boards) < len(game.boards)
        paths += any(builder == "path" for builder, _ in part_boards)
        # products with an edge of two or more walks, joined from the sows
        # filed under their sowing board
        merged += len(parts) > 1 and any(len(edge.moves) > 1 for edge in game.edges)
    assert products >= 25 and refusals >= 10 and fewer >= 20 and paths >= 10 and merged >= 5


@pytest.mark.parametrize("length,limit", [(3, 30), (4, 50), (5, 80), (6, 100), (2, 12)])
def test_cycle_totals(length, limit):
    assert cycle_attained_counts(length, limit) == cycle_counts_by_replay(length, limit)

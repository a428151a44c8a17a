"""The graph game's search engine against the slow replay oracles.

Every enumeration must give byte-identical JSON and DOT exports to the
breadth-first closure that replays each legal walk through the checked
``unplay_move``, exported by the per-edge DOT renderer, and the
arithmetic cycle game must give the totals of the replayed walks.
Graphs whose bins fall into independent parts are searched part by part
and built as a product; the oracle searches them whole.
"""

import math
import pickle
import random

import pytest

import tchoukaillon.graph as graph_module
from tchoukaillon import (
    SowingGraph,
    cycle_attained_counts,
    enumerate_winning_boards,
    game_graph_to_dot,
    game_graph_to_json,
    make_cycle,
    make_path,
    make_star,
)

from graph_oracle import cycle_counts_by_replay, dot_by_edge, enumerate_by_replay

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
    ],
)
def test_hand_built_graphs(graph):
    assert_same_game(graph, 10_000)


def test_finite_game_beyond_cap_raises_on_both():
    assert exports(make_star(3, 2), ENGINE, 10) == exports(make_star(3, 2), ORACLE, 10)


def test_random_graphs(monkeypatch):
    # Graphs of up to five vertices, one or two Rumas, self-loops and Ruma
    # out-edges allowed.  A lowered walk budget keeps refused searches
    # short; the oracle, which has no budget, runs only on the others.
    monkeypatch.setattr(graph_module, "MAX_WALK_STEPS", 50_000)
    compared = 0
    for seed in range(400):
        rng = random.Random(seed)
        vertices = rng.randint(2, 5)
        ruma = rng.sample(range(vertices), rng.randint(1, 2))
        edges = {(a, b) for a in range(vertices) for b in range(vertices) if rng.random() < 0.4}
        graph = SowingGraph(vertices, frozenset(edges), frozenset(ruma))
        cap = rng.randint(3, 12)
        got = exports(graph, ENGINE, cap)
        if got[0] == "RuntimeError" and "walk search" in got[1]:
            continue
        assert got == exports(graph, ORACLE, cap), f"seed {seed}"
        compared += 1
    assert compared >= 300


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


def test_random_factoring_graphs(monkeypatch):
    # Each part is searched once per board of its own game, walks starting
    # only on its bins; a search of the whole board would start on every
    # bin, once per board of the product.  The parts of one bin are
    # searched together, and with fewer than two bins feeding a Ruma the
    # whole board is the one part.
    searched = []

    def counted(labels, starts, *rest):
        searched.append(starts)
        return legal_unplays(labels, starts, *rest)

    legal_unplays = graph_module._legal_unplays
    monkeypatch.setattr(graph_module, "_legal_unplays", counted)
    products = refusals = fewer = 0
    for seed in range(60):
        rng = random.Random(seed)
        graph, parts = factoring_graph(rng)
        singles = tuple(sorted(v for part in parts if len(part) == 1 for v in part))
        parts = [part for part in parts if len(part) > 1] + [singles] * bool(singles)
        if len(parts) < 2 or len({a for a, b in graph.edges if b in graph.ruma}) < 2:
            parts = [graph.bins]
        cap = rng.choice((40, 2000))
        searched.clear()
        try:
            game = engine(graph, cap)
        except RuntimeError as exc:
            assert exports(graph, ORACLE, cap) == ("RuntimeError", str(exc)), f"seed {seed}"
            assert set(searched) <= set(parts), f"seed {seed}"
            refusals += 1
            continue
        assert (game_graph_to_json(graph, game), game_graph_to_dot(graph, game)) == exports(graph, ORACLE, cap)
        assert game == enumerate_by_replay(graph, cap), f"seed {seed}"
        assert pickle.loads(pickle.dumps(game)) == game
        part_boards = [{tuple(board.labels[v] for v in part) for board in game.boards} for part in parts]
        assert len(game.boards) == math.prod(map(len, part_boards)), f"seed {seed}"
        assert set(searched) == set(parts), f"seed {seed}"
        assert len(searched) == sum(map(len, part_boards)), f"seed {seed}"
        products += 1
        fewer += len(searched) < len(game.boards)
    assert products >= 25 and refusals >= 10 and fewer >= 20


@pytest.mark.parametrize("length,limit", [(3, 30), (4, 50), (5, 80), (6, 100), (2, 12)])
def test_cycle_totals(length, limit):
    assert cycle_attained_counts(length, limit) == cycle_counts_by_replay(length, limit)

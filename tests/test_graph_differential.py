"""The graph game's search engine against the slow replay oracles.

Every enumeration must give byte-identical JSON and DOT exports to the
breadth-first closure that replays each legal walk through the checked
``unplay_move``, exported by the per-edge DOT renderer, and the
arithmetic cycle game must give the totals of the replayed walks.
"""

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


@pytest.mark.parametrize("length,limit", [(3, 30), (4, 50), (5, 80), (6, 100), (2, 12)])
def test_cycle_totals(length, limit):
    assert cycle_attained_counts(length, limit) == cycle_counts_by_replay(length, limit)

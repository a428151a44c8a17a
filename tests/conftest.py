"""Fixtures shared by the graph tests."""

import pytest

import tchoukaillon.graph as graph_module


@pytest.fixture
def part_boards(monkeypatch):
    """A list that records each board a part game of the graph engine builds.

    An entry is (builder, the part's bins in id order): "path" for a
    board of a path part, built as the linear game (``graph._path_game``,
    recorded once the part's game is built), and "search" for a board
    whose unplays the walk search found (``graph._legal_unplays``).
    """
    boards = []
    legal_unplays, path_game = graph_module._legal_unplays, graph_module._path_game

    def searched(labels, starts, *rest):
        boards.append(("search", starts))
        return legal_unplays(labels, starts, *rest)

    def chained(line, *rest):
        keys, sows, budget = path_game(line, *rest)
        boards.extend([("path", tuple(sorted(line[1:])))] * len(keys))
        return keys, sows, budget

    monkeypatch.setattr(graph_module, "_legal_unplays", searched)
    monkeypatch.setattr(graph_module, "_path_game", chained)
    return boards

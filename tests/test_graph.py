import json
import time

import pytest

import tchoukaillon.graph as graph_module
from tchoukaillon import (
    Board,
    GraphBoard,
    IllegalMoveError,
    SowingGraph,
    board_from_stones,
    cycle_attained_counts,
    enumerate_winning_boards,
    game_graph_to_dot,
    game_graph_to_json,
    has_finite_game_graph,
    make_cycle,
    make_path,
    make_star,
    min_stones,
    sow_move,
    unplay_move,
)

from golden import CYCLE3_TOTALS, CYCLE4_BINS, CYCLE4_TOTALS
from graph_oracle import cycle_unplay


def path_with_sink() -> SowingGraph:
    # three bins feeding the ruma, plus a dangling non-ruma sink off bin 2
    return SowingGraph(5, frozenset({(1, 0), (2, 1), (3, 2), (2, 4)}), frozenset({0}))


def two_rumas() -> SowingGraph:
    return SowingGraph(3, frozenset({(1, 0), (1, 2)}), frozenset({0, 2}))


class TestSowingGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            SowingGraph(2, frozenset({(0, 5)}), frozenset({0}))
        with pytest.raises(ValueError):
            SowingGraph(2, frozenset({(0, 1)}), frozenset())
        with pytest.raises(ValueError):
            SowingGraph(2, frozenset({(0, 1)}), frozenset({7}))

    def test_self_loop_allowed(self):
        SowingGraph(1, frozenset({(0, 0)}), frozenset({0}))

    def test_json_round_trip(self):
        g = make_cycle(4)
        assert SowingGraph.from_json(g.to_json()) == g
        assert g.to_json() == {
            "vertices": 4,
            "edges": [[0, 3], [1, 0], [2, 1], [3, 2]],
            "ruma": [0],
        }

    def test_json_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            SowingGraph.from_json({"vertices": 2, "edges": [[1, 0], [1, 0]], "ruma": [0]})

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"vertices": 2.9, "edges": [[1, 0]], "ruma": [0]}, "vertex count"),
            ({"vertices": True, "edges": [], "ruma": [0]}, "vertex count"),
            ({"vertices": 2, "edges": [[1.5, 0]], "ruma": [0]}, "edge source"),
            ({"vertices": 2, "edges": [[1, "0"]], "ruma": [0]}, "edge target"),
            ({"vertices": 2, "edges": [[1, 0]], "ruma": [None]}, "Ruma vertex"),
            ({"vertices": 2, "edges": [[1, 0, 1]], "ruma": [0]}, "pair"),
            ({"vertices": 2, "edges": [[1, 0]], "ruma": 0}, "ruma"),
            ({"vertices": 2, "edges": [[1, 0]]}, "ruma"),
            # endpoints: negative, a bool, past 128 bits, past the last vertex
            ({"vertices": 2, "edges": [[-1, 0]], "ruma": [0]}, "edge source must be non-negative"),
            ({"vertices": 2, "edges": [[1, True]], "ruma": [0]}, "edge target must be an integer, got bool"),
            ({"vertices": 2, "edges": [[2**128, 0]], "ruma": [0]}, "edge source exceeds the 128-bit limit"),
            ({"vertices": 2, "edges": [[1, 0], [0, 2]], "ruma": [0]}, r"edge \(0, 2\) references a missing vertex"),
            # several faults: an endpoint's type before a missing vertex
            # earlier in the list, and parallel edges before it too
            ({"vertices": 2, "edges": [[1, 5], [1, "0"]], "ruma": [0]}, "edge target must be an integer"),
            ({"vertices": 2, "edges": [[1, 5], [1, 0], [1, 0]], "ruma": [0]}, "parallel edges"),
        ],
    )
    def test_json_rejects_malformed_fields(self, doc, field):
        # Only a value past 128 bits is an OverflowError; every other fault a plain ValueError.
        error = OverflowError if "128-bit" in field else ValueError
        with pytest.raises(error, match=field) as caught:
            SowingGraph.from_json(doc)
        assert caught.type is error

    def test_board_helpers(self):
        g = make_cycle(4)
        b = g.board_with_bins((1, 2, 0))
        assert g.bin_labels(b) == (1, 2, 0)
        assert g.stones(b) == 3

    @pytest.mark.parametrize("length", [1, 2, 7, 199])
    def test_path_is_bins_feeding_the_ruma_in_a_line(self, length):
        g = make_path(length)
        assert (g.vertex_count, g.ruma) == (length + 1, frozenset({0}))
        assert g.edges == {(i, i - 1) for i in range(1, length + 1)}
        assert g == make_star(1, length)


class TestMoves:
    @pytest.mark.parametrize("labels", [(0, 1, 0, 7), (0,)], ids=["longer", "shorter"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, b: sow_move(g, b, 1, (1, 0)),
            lambda g, b: unplay_move(g, b, 1, 0, (1, 0)),
            lambda g, b: g.bin_labels(b),
            lambda g, b: g.stones(b),
        ],
        ids=["sow_move", "unplay_move", "bin_labels", "stones"],
    )
    def test_board_of_another_vertex_count_is_refused(self, labels, call):
        # One label per vertex: a longer board is not cut short, nor a shorter one read past its end.
        with pytest.raises(ValueError, match=f"board of {len(labels)} labels does not fit a graph of 3 vertices"):
            call(make_path(2), GraphBoard(labels))

    def test_sow_along_a_path(self):
        g = make_path(3)
        after = sow_move(g, g.board_with_bins((0, 1, 3)), 3, (3, 2, 1, 0))
        assert g.bin_labels(after) == (1, 2, 0)
        assert after.labels[0] == 1  # one stone captured

    def test_sow_wrapping_the_cycle(self):
        g = make_cycle(4)
        after = sow_move(g, g.board_with_bins((5, 0, 2)), 1, (1, 0, 3, 2, 1, 0))
        assert g.bin_labels(after) == (1, 1, 3)
        assert after.labels[0] == 2  # wrapping past the store captures twice

    def test_sow_rejects_empty_vertex(self):
        g = make_path(3)
        with pytest.raises(IllegalMoveError):
            sow_move(g, g.zero_board(), 1, (1, 0))

    def test_sow_rejects_wrong_length_and_endpoint(self):
        g = make_path(3)
        board = g.board_with_bins((0, 1, 3))
        with pytest.raises(IllegalMoveError):
            sow_move(g, board, 2, (2, 1))  # ends off the ruma
        with pytest.raises(IllegalMoveError):
            sow_move(g, board, 3, (3, 2, 1))  # wrong length

    def test_unplay_first_move(self):
        g = make_path(4)
        after = unplay_move(g, g.zero_board(), 1, 0, (1, 0))
        assert g.bin_labels(after) == (1, 0, 0, 0)

    def test_unplay_matches_linear_game(self):
        g = make_path(6)
        board = g.zero_board()
        for n in range(1, min_stones(7)):
            core = board_from_stones(n)
            p = next(i for i in range(1, 7) if g.bin_labels(board)[i - 1] == 0)
            path = tuple(range(p, -1, -1))
            board = unplay_move(g, board, p, 0, path)
            assert Board(g.bin_labels(board)) == core

    def test_unplay_cycle_examples(self):
        g = make_cycle(4)
        after = unplay_move(g, g.board_with_bins((1, 2, 0)), 3, 0, (3, 2, 1, 0))
        assert g.bin_labels(after) == (0, 1, 3)
        after = unplay_move(g, g.board_with_bins((1, 1, 3)), 1, 0, (1, 0, 3, 2, 1, 0))
        assert g.bin_labels(after) == (5, 0, 2)

    def test_unplay_requires_exact_consumption(self):
        g = make_cycle(4)
        board = g.board_with_bins((1, 1, 3))
        with pytest.raises(IllegalMoveError):
            unplay_move(g, board, 1, 0, (1, 0))  # leaves a stone on vertex 1

    def test_unplay_requires_stones_on_the_walk(self):
        g = make_path(3)
        with pytest.raises(IllegalMoveError):
            unplay_move(g, g.zero_board(), 2, 0, (2, 1, 0))

    def test_round_trip(self):
        g = make_cycle(4)
        board = g.board_with_bins((4, 2, 2))
        path = (2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0)
        grown = unplay_move(g, board, 2, 0, path)
        assert g.bin_labels(grown) == (1, 10, 0)
        assert g.bin_labels(sow_move(g, grown, 2, path)) == (4, 2, 2)


class TestFiniteness:
    def test_path_and_star_finite(self):
        assert has_finite_game_graph(make_path(5)) == (True, None)
        assert has_finite_game_graph(make_star(3, 2)) == (True, None)
        assert has_finite_game_graph(path_with_sink()) == (True, None)

    def test_cycle_infinite_with_witness(self):
        finite, witness = has_finite_game_graph(make_cycle(4))
        assert not finite
        assert witness == (0, 1)

    def test_two_rumas_finite(self):
        assert has_finite_game_graph(two_rumas())[0]

    def test_ruma_self_loop_is_finite(self):
        g = SowingGraph(2, frozenset({(1, 0), (0, 0)}), frozenset({0}))
        assert has_finite_game_graph(g)[0]


class TestEnumeration:
    @pytest.mark.parametrize("length", range(1, 7))
    def test_path_specializes_to_linear_game(self, length):
        g = make_path(length)
        game = enumerate_winning_boards(g)
        assert not game.truncated
        got = {Board(g.bin_labels(b)) for b in game.boards}
        assert got == {board_from_stones(n) for n in range(min_stones(length + 1))}

    def test_path_game_graph_is_a_path(self):
        g = make_path(4)
        game = enumerate_winning_boards(g)
        sources = [e.source for e in game.edges]
        assert len(game.edges) == len(game.boards) - 1
        assert sorted(sources) == sorted(set(sources))  # one sow per non-zero board

    @pytest.mark.parametrize("spokes", [1, 2, 3])
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_star_product_law(self, spokes, length):
        game = enumerate_winning_boards(make_star(spokes, length))
        assert len(game.boards) == min_stones(length + 1) ** spokes

    def test_star_two_singleton_spokes_grid(self):
        g = make_star(2, 1)
        game = enumerate_winning_boards(g)
        assert {g.bin_labels(b) for b in game.boards} == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert len(game.edges) == 4

    def test_cycle_enumeration_truncates_to_published_boards(self):
        g = make_cycle(4)
        game = enumerate_winning_boards(g, cap=9)
        assert game.truncated
        assert [g.bin_labels(b) for b in game.boards] == CYCLE4_BINS
        assert [sum(bins) for bins in (g.bin_labels(b) for b in game.boards)] == CYCLE4_TOTALS
        # the game tree is a path: every discovered board has one unplay
        # successor, so the edges chain the boards in discovery order
        assert [(e.source, e.target) for e in game.edges] == [(i + 1, i) for i in range(8)]

    def test_finite_graphs_stay_below_cap(self):
        for g in (make_path(4), make_star(2, 2), path_with_sink(), two_rumas()):
            game = enumerate_winning_boards(g, cap=10_000)
            assert not game.truncated

    def test_infinite_graph_always_truncated(self):
        # an infinite game graph can only ever be explored in part, whether
        # the board cap or the per-unmove walk cap binds first
        game = enumerate_winning_boards(make_cycle(3), cap=25)
        assert game.truncated
        assert len(game.boards) <= 25
        game = enumerate_winning_boards(make_cycle(4), cap=5)
        assert game.truncated
        assert len(game.boards) == 5

    def test_sow_undoes_every_recorded_move(self):
        cases = [
            (make_path(4), 10_000),
            (make_star(2, 2), 10_000),
            (make_cycle(4), 12),
            (two_rumas(), 10_000),
        ]
        for g, cap in cases:
            game = enumerate_winning_boards(g, cap=cap)
            assert game.edges
            for edge in game.edges:
                for move in edge.moves:
                    shrunk = sow_move(g, game.boards[edge.source], move.vertex, move.path)
                    assert g.bin_labels(shrunk) == g.bin_labels(game.boards[edge.target])

    def test_non_ruma_sink_stays_empty(self):
        g = path_with_sink()
        game = enumerate_winning_boards(g)
        sink_position = g.bins.index(4)
        assert len(game.boards) > 1
        assert all(g.bin_labels(b)[sink_position] == 0 for b in game.boards)

    def test_two_rumas_merge_move_descriptors(self):
        g = two_rumas()
        game = enumerate_winning_boards(g)
        assert len(game.boards) == 2
        (edge,) = game.edges
        assert len(edge.moves) == 2  # same boards, either ruma


class TestCycleCounts:
    def test_four_cycle(self):
        assert cycle_attained_counts(4, 9) == CYCLE4_TOTALS

    def test_limit_one(self):
        assert cycle_attained_counts(5, 1) == [0]

    def test_three_cycle_frozen_and_replayable(self):
        assert cycle_attained_counts(3, 20) == CYCLE3_TOTALS

    def test_not_every_integer_attained(self):
        assert 6 not in cycle_attained_counts(4, 30)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            cycle_attained_counts(1, 5)

    def test_boards_are_clearable(self):
        # independent oracle: depth-first search over forward sows
        length = 3
        g = make_cycle(length)

        def sow_path(v, stones):
            if stones < 1 or (v - stones) % length != 0:
                return None
            path, cur = [v], v
            for _ in range(stones):
                cur = cur - 1 if cur >= 1 else length - 1
                path.append(cur)
            return tuple(path)

        def clearable(board, memo):
            key = g.bin_labels(board)
            if sum(key) == 0:
                return True
            if key in memo:
                return memo[key]
            memo[key] = False
            for v in g.bins:
                path = sow_path(v, board.labels[v])
                if path is not None and clearable(sow_move(g, board, v, path), memo):
                    memo[key] = True
                    break
            return memo[key]

        board = g.zero_board()
        memo: dict = {}
        assert clearable(board, memo)
        for _ in range(19):
            board = cycle_unplay(g, board, length)
            assert clearable(board, memo)


def walk_blowup() -> SowingGraph:
    # Bin 0 and two Rumas with self-loops: the number of unplay walks
    # grows about tenfold with each step of the board cap.
    return SowingGraph(3, frozenset({(0, 0), (0, 2), (1, 0), (2, 0), (2, 1), (2, 2)}), frozenset({1, 2}))


class TestBudgets:
    def test_finite_game_beyond_cap_names_the_cap(self):
        # make_star(3, 2) is finite with 64 boards
        with pytest.raises(RuntimeError, match=r"more than 10 boards.*--cap"):
            enumerate_winning_boards(make_star(3, 2), cap=10)

    def test_walk_budget_refuses_promptly(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="walk search exceeded its budget"):
            enumerate_winning_boards(walk_blowup(), cap=12)
        assert time.perf_counter() - start < 5

    def test_walk_budget_admits_small_caps(self):
        assert len(enumerate_winning_boards(walk_blowup(), cap=5).boards) == 5

    def test_walk_budget_admits_large_star(self):
        game = enumerate_winning_boards(make_star(4, 5), cap=30_000)
        assert len(game.boards) == min_stones(6) ** 4

    def test_large_star_searches_its_spokes(self, part_boards):
        # the star is the product of its spokes: each spoke's 12 boards are
        # built once, as the linear game, not each of the 12^4 = 20,736
        # boards of the star searched
        game = enumerate_winning_boards(make_star(4, 5), cap=30_000)
        assert len(game.boards) == 20_736
        assert len(part_boards) == 4 * min_stones(6) == 48
        assert sorted(set(part_boards)) == [("path", tuple(range(1 + 5 * s, 6 + 5 * s))) for s in range(4)]

    def test_product_budget_boundary(self, monkeypatch):
        # make_star(4, 5) costs 305,272 steps: 1,144 for its spokes' chains
        # and 4 per product move, one per spoke; a step less and the
        # product pass is refused
        monkeypatch.setattr(graph_module, "MAX_WALK_STEPS", 305_272)
        assert len(enumerate_winning_boards(make_star(4, 5), cap=30_000).boards) == 20_736
        monkeypatch.setattr(graph_module, "MAX_WALK_STEPS", 305_271)
        with pytest.raises(RuntimeError, match=r"^the unplay walk search exceeded its budget of 305271 steps$"):
            enumerate_winning_boards(make_star(4, 5), cap=30_000)

    @pytest.mark.parametrize(
        "graph,cap,steps",
        [(make_path(16), 10_000, 2_418), (make_star(3, 1), 10_000, 84), (make_cycle(5), 30, 766)],
    )
    def test_walk_steps(self, monkeypatch, graph, cap, steps):
        # steps counted by the walk budget, a measure of the search's work
        # that does not depend on machine load; the search walks back from
        # the Ruma, so on a path or a star of one-bin spokes every step
        # lies on a recorded walk, and a path, built as the linear game
        # without the search, is charged what the search would spend
        left = []

        def counted(build):
            def run(*args):
                keys, sows, budget = build(*args)
                left.append(budget)
                return keys, sows, budget

            return run

        for name in ("_part_game", "_path_game"):
            monkeypatch.setattr(graph_module, name, counted(getattr(graph_module, name)))
        game = enumerate_winning_boards(graph, cap=cap)
        assert [graph_module.MAX_WALK_STEPS - budget for budget in left] == [steps]
        if not game.truncated:
            # each recorded walk: a step per edge, then its path and labels copied
            walked = sum(2 * len(m.path) - 1 + graph.vertex_count for edge in game.edges for m in edge.moves)
            assert walked == steps

    def test_walk_budget_counts_product_moves(self):
        # the first 2^20 boards of 20 two-bin spokes hold about 20M moves;
        # each costs one step per spoke, so the search is refused, as a
        # search of the whole board is, before it holds them all
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="walk search exceeded its budget"):
            enumerate_winning_boards(make_star(20, 2), cap=2**20)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SowingGraph(10**9, frozenset(), frozenset({0})),
            lambda: SowingGraph.from_json({"vertices": 2**16 + 1, "edges": [], "ruma": [0]}),
            lambda: make_path(2**16),
            lambda: make_cycle(10**9),
            lambda: make_star(2**8, 2**8),
            lambda: cycle_attained_counts(10**9, 2),
        ],
    )
    def test_vertex_budget(self, build):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="vertices exceeds the budget"):
            build()
        assert time.perf_counter() - start < 0.5

    def test_vertex_budget_admits_its_limit(self):
        # the graph builds its successor lists on construction: time both
        start = time.perf_counter()
        assert has_finite_game_graph(SowingGraph(2**16, frozenset({(1, 0)}), frozenset({0}))) == (True, None)
        assert time.perf_counter() - start < 3

    def test_cycle_totals_overflow_promptly(self):
        # on two vertices each unplay doubles the refilled label
        with pytest.raises(OverflowError, match="cycle stone total"):
            cycle_attained_counts(2, 200)

    @pytest.mark.parametrize("length, limit", [(300, 10**6), (2, 2**23 + 1), (100, 10**9)])
    def test_cycle_totals_past_the_bin_budget_are_refused(self, length, limit):
        # each board costs a pass over the cycle's labels: boards times
        # vertices is held to the bin budget, checked before the first step
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"a table of {limit} boards by {length} vertices passes the budget"):
            cycle_attained_counts(length, limit)
        assert time.perf_counter() - start < 0.5

    def test_cycle_totals_at_the_bin_budget_reach_the_total_limit(self):
        with pytest.raises(OverflowError, match="cycle stone total"):
            cycle_attained_counts(2, 2**23)


class TestExports:
    def test_dot_contains_board_names(self):
        g = make_path(2)
        game = enumerate_winning_boards(g)
        dot = game_graph_to_dot(g, game)
        assert dot.startswith("digraph sowing_game {")
        assert '"[0,2]" -> "[1,0]" [label="v2"];' in dot

    def test_json_adjacency_round_trips_through_serialization(self):
        g = make_star(2, 1)
        game = enumerate_winning_boards(g)
        doc = json.loads(json.dumps(game_graph_to_json(g, game)))
        assert doc["truncated"] is False
        assert doc["boards"][0] == [0, 0]
        assert len(doc["edges"]) == 4
        for edge in doc["edges"]:
            for move in edge["moves"]:
                grown = unplay_move(
                    g,
                    g.board_with_bins(tuple(doc["boards"][edge["to"]])),
                    move["vertex"],
                    move["ruma"],
                    tuple(move["path"]),
                )
                assert list(g.bin_labels(grown)) == doc["boards"][edge["from"]]


class TestGraphBoard:
    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            GraphBoard((1, -2))

    def test_rejects_bool_labels(self):
        with pytest.raises(ValueError, match="vertex label"):
            GraphBoard((1, True))

"""Boards the library builds are known to be winning, and checked once.

``board_from_stones``, ``unplay``, ``play``, ``enumerate_boards`` and
the reconstructions (through ``board_from_stones``) mark their boards
as winning, so ``unplay`` and ``play`` accept them without the O(length)
check.  Each marked board must pass that check and equal the residue
walk of its stone count, the unique winning board; a board built by
hand is still checked, once, and the mark never shows in equality,
hashing, the repr or pickling.
"""

import copy
import math
import pickle
import random

import pytest

from tchoukaillon import (
    EMPTY_BOARD,
    Board,
    PartialConstraint,
    board_from_increasing,
    board_from_stones,
    enumerate_boards,
    increasing_remainder_board,
    is_winning,
    play,
    prime_reconstruct,
    reconstruct,
    reconstruct_minimal,
    unplay,
)
from tchoukaillon import core

from linear_oracle import residue_walk


def assert_known_winning(board):
    assert board._winning is True, board
    assert core._winning_bins(board.bins), board
    assert board.bins == residue_walk(board.stones), board


def chain(board, steps):
    """The boards of `steps` unplays from *board*, then of as many plays back."""
    boards = []
    for _ in range(steps):
        board = unplay(board)
        boards.append(board)
    for _ in range(steps):
        board, _ = play(board)
        boards.append(board)
    return boards


class TestMarkedBoardsWin:
    def test_board_from_stones(self):
        rng = random.Random(3)
        seeded = [int(math.exp(rng.uniform(0, math.log(10**10)))) for _ in range(40)]
        for n in [*range(2000), *seeded]:
            assert_known_winning(board_from_stones(n))

    def test_unplay_and_play(self):
        for n in (0, 1, 2, 15, 29, 1000, 12345, 10**6):
            for board in chain(board_from_stones(n), 30):
                assert_known_winning(board)

    def test_play_to_the_empty_board(self):
        board = board_from_stones(300)
        while board.length:
            board, _ = play(board)
            assert_known_winning(board)

    def test_enumerate_boards(self):
        for length in range(16):
            for board in enumerate_boards(length):
                assert_known_winning(board)
        assert_known_winning(EMPTY_BOARD)

    def test_enumerate_boards_of_length_2000(self):
        boards = list(enumerate_boards(2000))
        for board in boards[:: len(boards) // 20]:
            assert_known_winning(board)

    @pytest.mark.parametrize(
        "solve,entries",
        [
            (reconstruct, {3: 1, 7: 2}),
            (reconstruct, {3: 1, 7: 2, 9: 3}),
            (reconstruct, {12: 1}),
            (reconstruct_minimal, {3: 1, 7: 2}),
            (reconstruct_minimal, {4: 1, 7: 0}),
            (prime_reconstruct, {5: 2, 7: 3, 11: 4}),
        ],
    )
    def test_reconstructions(self, solve, entries):
        n, board = solve(PartialConstraint(entries))
        assert board.stones == n
        assert_known_winning(board)

    @pytest.mark.parametrize("solve", [reconstruct, reconstruct_minimal, prime_reconstruct])
    def test_empty_constraint_reconstructions(self, solve):
        n, board = solve(PartialConstraint({}))
        assert board.stones == n
        assert_known_winning(board)


class TestHandBuiltBoards:
    @pytest.mark.parametrize("bins", [(1, 1), (2,), (0, 1), (1, 2, 0, 2, 4, 5), (0, 0, 3)])
    def test_non_winning_boards_are_refused(self, bins):
        board = Board(bins)
        # A second call meets the remembered answer and still refuses.
        for _ in range(2):
            with pytest.raises(ValueError, match="unplay is defined only for winning boards"):
                unplay(board)
            with pytest.raises(ValueError, match="play is defined only for winning boards"):
                play(board)
        assert not is_winning(board)

    def test_a_lift_stays_unknown(self):
        # A valid lift need not be a winning board, so its board is checked.
        board = board_from_increasing(increasing_remainder_board(29, 6))
        assert board._winning is None
        assert is_winning(board) == core._winning_bins(board.bins)

    def test_checked_once(self, monkeypatch):
        calls = []
        slow = core._winning_bins

        def counting(bins):
            calls.append(bins)
            return slow(bins)

        monkeypatch.setattr(core, "_winning_bins", counting)
        board = Board((1, 2, 0, 2, 4, 6))
        assert board._winning is None
        for _ in range(3):
            assert is_winning(board)
        assert unplay(board) == Board((0, 1, 3, 2, 4, 6))
        assert play(board) == (Board((0, 2, 0, 2, 4, 6)), 1)
        assert calls == [(1, 2, 0, 2, 4, 6)]

    def test_chain_from_a_million_skips_the_slow_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "_winning_bins", lambda bins: calls.append(bins) or True)
        start = board_from_stones(10**6)
        boards = chain(start, 20)
        assert boards[19] == board_from_stones(10**6 + 20)
        assert boards[-1] == start
        assert calls == []


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle{p}": lambda board, p=p: pickle.loads(pickle.dumps(board, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


class TestMarkIsNotAField:
    @pytest.mark.parametrize("n", [0, 1, 15, 1000, 10**6])
    def test_equal_hash_and_repr(self, n):
        trusted = board_from_stones(n)
        built = Board(trusted.bins)
        assert (trusted._winning, built._winning) == (True, None)
        assert trusted == built and hash(trusted) == hash(built)
        assert repr(trusted) == repr(built) == f"Board(bins={trusted.bins!r})"
        is_winning(built)
        assert repr(built) == repr(trusted)

    @pytest.mark.parametrize("clone", CLONES.values(), ids=list(CLONES))
    def test_round_trips(self, clone):
        for board in (board_from_stones(29), unplay(board_from_stones(1000)), Board((1, 1))):
            again = clone(board)
            assert again == board and hash(again) == hash(board)
            assert is_winning(again) == core._winning_bins(board.bins)
        assert pickle.dumps(board_from_stones(29)) == pickle.dumps(Board(board_from_stones(29).bins))

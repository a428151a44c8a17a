import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from tchoukaillon import core

from tchoukaillon import (
    Board,
    board_from_stones,
    is_winning,
    leftmost_empty,
    minimal_period,
    play,
    play_sequence,
    unplay,
)
from tchoukaillon.checked import UINT128_MAX, as_uint
from tchoukaillon.core import _MAX_PERIOD_INDEX

from golden import INITIAL_BOARDS, PLAY_SEQUENCE_6


class TestBoard:
    def test_trailing_zeros_trimmed(self):
        assert Board((1, 2, 0)).bins == (1, 2)
        assert Board((0, 0)).bins == ()
        assert Board() == Board((0,))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Board((1, -1))

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    def test_rejects_non_integer_bins(self, bad):
        with pytest.raises(ValueError, match="bin count"):
            Board((bad,))

    def test_trims_many_trailing_zeros_in_linear_time(self):
        start = time.perf_counter()
        board = Board((1,) + (0,) * 100_000)
        assert time.perf_counter() - start < 0.5
        assert board == Board((1,))

    def test_accessors(self):
        b = Board((1, 2, 0, 2, 4, 6))
        assert b.stones == 15
        assert b.length == 6
        assert b.bin(3) == 0
        assert b.bin(7) == 0
        with pytest.raises(ValueError):
            b.bin(0)

    def test_json_round_trip(self):
        b = Board((1, 2, 0, 2, 4, 6))
        assert Board.from_json(b.to_json()) == b
        assert b.to_json() == [1, 2, 0, 2, 4, 6]


class TestBoardFromStones:
    def test_fifteen(self):
        assert board_from_stones(15).bins == (1, 2, 0, 2, 4, 6)

    def test_zero(self):
        assert board_from_stones(0) == Board()

    def test_twentynine(self):
        assert board_from_stones(29).bins == (1, 1, 3, 4, 2, 4, 6, 8)

    def test_golden_table(self):
        for n, length, padded in INITIAL_BOARDS:
            b = board_from_stones(n)
            assert b.length == length
            assert tuple(b.bin(i) for i in range(1, 7)) == padded

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            board_from_stones(-1)

    @pytest.mark.parametrize("bad", [True, 15.0, "15"])
    def test_rejects_non_integer(self, bad):
        with pytest.raises(ValueError, match="stone count"):
            board_from_stones(bad)

    def test_bin_budget_refuses_before_building(self):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="budget"):
            board_from_stones(2**128 - 1)
        assert time.perf_counter() - start < 1e-3

    def test_bin_budget_admits_the_largest_board_in_use(self):
        # prime_reconstruct({29: 3, 31: 5}) builds the board with this many
        # stones, ~9.0M bins; too slow to build in the suite.
        n = 25_860_925_490_400
        assert 2 * math.isqrt(n) + 1 <= core._MAX_BOARD_BINS

    def test_derived_boards_are_not_rechecked(self, monkeypatch):
        checked = []

        def counting(value, what):
            checked.append(what)
            return as_uint(value, what)

        monkeypatch.setattr(core, "as_uint", counting)
        board = board_from_stones(10**6)
        assert unplay(play(board)[0]) == board
        assert checked == ["stone count"]


class TestUnplay:
    @pytest.mark.parametrize(
        "before,after",
        [
            ((1, 2, 0, 2, 4, 6), (0, 1, 3, 2, 4, 6)),
            ((), (1,)),
            ((1,), (0, 2)),
        ],
    )
    def test_examples(self, before, after):
        assert unplay(Board(before)) == Board(after)

    def test_rejects_non_winning(self):
        with pytest.raises(ValueError):
            unplay(Board((1, 1)))

    def test_matches_direct_construction(self):
        b = Board()
        for n in range(1, 500):
            b = unplay(b)
            assert b == board_from_stones(n)


class TestPlay:
    def test_examples(self):
        assert play(Board((0, 1, 3))) == (Board((1, 2)), 3)
        assert play(Board((1,))) == (Board(), 1)

    def test_cross_check_with_construction(self):
        after, played = play(board_from_stones(15))
        assert after == board_from_stones(14)
        assert played == 1

    def test_rejects_empty_and_non_winning(self):
        with pytest.raises(ValueError):
            play(Board())
        with pytest.raises(ValueError):
            play(Board((1, 1)))

    def test_conserves_one_stone(self):
        for n in range(1, 300):
            b = board_from_stones(n)
            after, _ = play(b)
            assert after.stones == b.stones - 1
            assert unplay(b).stones == b.stones + 1


class TestLeftmostEmpty:
    @pytest.mark.parametrize(
        "bins,expected",
        [((1, 2, 0, 2, 4, 6), 3), ((), 1), ((1, 1, 3), 4)],
    )
    def test_examples(self, bins, expected):
        assert leftmost_empty(Board(bins)) == expected


class TestPlaySequence:
    def test_four(self):
        assert play_sequence(4) == [3, 1, 2, 1]

    def test_zero(self):
        assert play_sequence(0) == []

    def test_six_matches_simulation(self):
        # oracle: actually play the board down to empty
        b = board_from_stones(6)
        simulated = []
        while b.length:
            b, played = play(b)
            simulated.append(played)
        assert simulated == PLAY_SEQUENCE_6
        assert play_sequence(6) == simulated

    def test_simulation_oracle_range(self):
        for n in range(1, 60):
            b = board_from_stones(n)
            simulated = []
            while b.length:
                b, played = play(b)
                simulated.append(played)
            assert play_sequence(n) == simulated

    def test_cap(self):
        with pytest.raises(ValueError):
            play_sequence(100, cap=99)

    def test_rejects_bool(self):
        with pytest.raises(ValueError, match="stone count"):
            play_sequence(True)


class TestIsWinning:
    def test_examples(self):
        assert is_winning(Board((1, 2, 0, 2, 4, 6)))
        assert not is_winning(Board((1, 1)))
        assert is_winning(Board())

    def test_rejects_overfull_bin(self):
        assert not is_winning(Board((2,)))

    def test_all_constructed_boards_win(self):
        for n in range(400):
            assert is_winning(board_from_stones(n))


class TestMinimalPeriod:
    @pytest.mark.parametrize("i,expected", [(1, 2), (2, 6), (3, 12), (4, 60), (5, 60), (6, 420)])
    def test_small(self, i, expected):
        assert minimal_period(i) == expected

    def test_overflow_reports_limit(self):
        limit = _MAX_PERIOD_INDEX
        assert math.lcm(*range(2, limit + 2)) <= UINT128_MAX < math.lcm(*range(2, limit + 3))
        assert minimal_period(limit) == math.lcm(*range(2, limit + 2))  # fits
        with pytest.raises(OverflowError, match=str(limit)):
            minimal_period(limit + 1)
        with pytest.raises(OverflowError, match=f"minimal_period\\(10{'0' * 30}\\)"):
            minimal_period(10**31)

    def test_prefix_periodicity(self):
        # columns repeat with exactly this period; any proper-divisor period
        # would make some maximal proper divisor a period too
        for i in range(1, 5):
            period = minimal_period(i)
            prefixes = [
                tuple(board_from_stones(n).bin(j) for j in range(1, i + 1))
                for n in range(3 * period)
            ]
            assert all(prefixes[n] == prefixes[n + period] for n in range(2 * period))
            for p in {2, 3, 5, 7}:
                if period % p:
                    continue
                d = period // p
                assert any(prefixes[n] != prefixes[n + d] for n in range(2 * period))


def test_prefix_sums_track_stone_count_exhaustive():
    for n in range(10_001):
        b = board_from_stones(n)
        total = 0
        for i in range(1, b.length + 1):
            total += b.bins[i - 1]
            assert total % (i + 1) == n % (i + 1)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=0, max_value=10**8))
def test_prefix_sums_track_stone_count(n):
    b = board_from_stones(n)
    total = 0
    for i in range(1, b.length + 1):
        total += b.bins[i - 1]
        assert total % (i + 1) == n % (i + 1)


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=0, max_value=10**8))
def test_upper_sums_divisible(n):
    b = board_from_stones(n)
    suffix = 0
    for i in range(b.length, 0, -1):
        suffix += b.bins[i - 1]
        assert suffix % i == 0


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=10**6))
def test_play_unplay_inverse(n):
    b = board_from_stones(n)
    assert play(unplay(b))[0] == b
    assert unplay(play(b)[0]) == b

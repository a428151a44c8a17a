import math
import time

import pytest

from tchoukaillon import (
    Board,
    board_from_stones,
    check_bounds,
    enumerate_boards,
    is_winning,
    min_stones,
    min_stones_sequence,
)

from golden import INITIAL_BOARDS, MIN_STONES_PREFIX


class TestEnumerateBoards:
    def test_length_six_matches_golden_rows(self):
        expected = [Board(padded) for n, length, padded in INITIAL_BOARDS if length == 6]
        assert list(enumerate_boards(6)) == expected

    def test_length_one(self):
        assert list(enumerate_boards(1)) == [Board((1,))]

    def test_length_five(self):
        assert list(enumerate_boards(5)) == [board_from_stones(10), board_from_stones(11)]

    def test_length_zero_yields_empty_board(self):
        assert list(enumerate_boards(0)) == [Board()]

    def test_all_yielded_are_winning_with_exact_length(self):
        for length in range(1, 10):
            for b in enumerate_boards(length):
                assert b.length == length
                assert is_winning(Board(b.bins))

    def test_lengths_past_the_recursion_limit(self):
        # A walk with one generator frame per bin passes the recursion limit here.
        boards = list(enumerate_boards(2000))
        stones = [board.stones for board in boards]
        assert stones == sorted(stones) and stones[0] == min_stones(2000)
        assert all(board.length == 2000 for board in boards)
        assert all(is_winning(Board(board.bins)) for board in boards[:: len(boards) // 20])

    @pytest.mark.parametrize("length", [4000, 10**5, 2**24 + 1, 10**12])
    def test_budget_refuses_promptly(self, length):
        # 4000 has 5,026 boards: 20.1M bins in all, past the 2^24 budget
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"boards of length {length} pass the budget"):
            list(enumerate_boards(length))
        # the boards are counted first, so the call itself refuses
        with pytest.raises(OverflowError, match=f"boards of length {length} pass the budget"):
            enumerate_boards(length)
        assert time.perf_counter() - start < 0.5

    def test_budget_refuses_the_longest_length_min_stones_admits(self):
        # min_stones(2^24 + 1) would refuse with its own "board length ...
        # beyond" message; the count must not go through it.
        with pytest.raises(OverflowError, match=f"the boards of length {2**24} pass the budget of {2**24} bins"):
            enumerate_boards(2**24)

    def test_completeness_against_stone_count_oracle(self):
        # the boards of length l are exactly those with min_stones(l) <= n < min_stones(l+1)
        for length in range(1, 9):
            expected = {
                board_from_stones(n)
                for n in range(min_stones(length), min_stones(length + 1))
            }
            assert set(enumerate_boards(length)) == expected

    def test_yield_order_is_increasing_stones(self):
        for length in range(1, 12):
            stones = [b.stones for b in enumerate_boards(length)]
            assert stones == sorted(stones)


class TestMinStones:
    def test_six(self):
        assert min_stones(6) == 12

    def test_prefix(self):
        assert min_stones_sequence(7) == MIN_STONES_PREFIX
        assert min_stones_sequence(1) == [1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            min_stones(0)

    @pytest.mark.parametrize("bad", [True, 6.0, "6"])
    def test_rejects_non_integer(self, bad):
        with pytest.raises(ValueError, match="board length"):
            min_stones(bad)

    def test_equals_minimum_over_enumeration(self):
        for length in range(1, 13):
            boards = list(enumerate_boards(length))
            assert min_stones(length) == min(b.stones for b in boards)
            assert boards[0].stones == min_stones(length)

    def test_budget_admits_the_longest_board(self):
        length = 2**24
        value = min_stones(length)
        assert abs(value * math.pi / length**2 - 1) < 1e-3
        assert check_bounds(length)[1] == value

    def test_budget_refuses_before_the_loop(self):
        with pytest.raises(OverflowError, match="budget"):
            min_stones(2**24 + 1)
        # Unrefused, length 10^12 costs about 10^8 loop steps; 50 ms
        # still leaves room for a descheduled test process.
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="budget"):
            min_stones(10**12)
        assert time.perf_counter() - start < 0.05

    def test_sequence_budget_refuses_before_the_first_term(self):
        # Unrefused, it would compute every term up to 2^24 first.
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"board length {10**12} is beyond the budget of {2**24} bins"):
            min_stones_sequence(10**12)
        with pytest.raises(OverflowError, match="budget"):
            min_stones_sequence(2**24 + 1)
        assert time.perf_counter() - start < 0.5

    def test_sequence_cap_refuses_before_the_first_term(self):
        # Inside the length budget, 2^24 terms would take about three days.
        start = time.perf_counter()
        for length in (2**15 + 1, 2**24):
            with pytest.raises(ValueError, match=f"max_length={length} above the cap of {2**15} terms"):
                min_stones_sequence(length)
        assert time.perf_counter() - start < 0.05

    def test_sequence_cap_is_a_parameter(self):
        assert min_stones_sequence(7, cap=7) == MIN_STONES_PREFIX
        with pytest.raises(ValueError, match="cap of 6 terms"):
            min_stones_sequence(7, cap=6)
        with pytest.raises(ValueError, match="term cap must be an integer"):
            min_stones_sequence(7, cap=7.0)
        # The length budget is checked first, so its message stays.
        with pytest.raises(OverflowError, match="budget"):
            min_stones_sequence(2**24 + 1, cap=2**30)


class TestBounds:
    def test_six(self):
        assert check_bounds(6) == (12, 12, 21)

    def test_two(self):
        assert check_bounds(2) == (2, 2, 3)

    def test_hold_up_to_two_thousand(self):
        for length in range(2, 2001):
            lower, value, upper = check_bounds(length)
            assert lower <= value <= upper

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            check_bounds(1)

    def test_budget_refuses_before_the_loop(self):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="budget"):
            check_bounds(10**12)
        assert time.perf_counter() - start < 0.05


def test_quadratic_ratio_approaches_one_over_pi():
    # measured: ~1.016 at 100 and ~1.0008 at 1000
    ratio_100 = min_stones(100) * math.pi / 100**2
    ratio_1000 = min_stones(1000) * math.pi / 1000**2
    assert abs(ratio_1000 - 1) < abs(ratio_100 - 1)
    assert abs(ratio_1000 - 1) < 0.05

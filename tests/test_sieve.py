import time

import pytest

from tchoukaillon import (
    board_from_stones,
    first_played_bin,
    leftmost_empty,
    min_stones,
    min_stones_sequence,
    play,
    sieve_stage,
    sieve_step,
)

from golden import SIEVE_ROWS
from linear_oracle import sieve_stage_by_scan


class TestFirstPlayedBin:
    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 3), (12, 6), (2, 2)])
    def test_examples(self, n, expected):
        assert first_played_bin(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            first_played_bin(0)

    def test_matches_play_and_leftmost_empty(self):
        # three routes to the same value: the harvestable scan, the bin
        # actually played, and the leftmost empty bin one stone earlier
        for n in range(1, 400):
            direct = first_played_bin(n)
            _, played = play(board_from_stones(n))
            assert direct == played
            assert direct == leftmost_empty(board_from_stones(n - 1))

    # The first elements of sieve stages 2^24 + 1 and 2^26: their first
    # played bins lie past the bin budget, and the walk stops there.
    @pytest.mark.parametrize("n", [89_596_304_206_522, 1_433_540_247_836_322])
    def test_walk_past_the_bin_budget_is_refused(self, n):
        with pytest.raises(OverflowError, match=f"first played bin of {n} stones lies past the budget"):
            first_played_bin(n)

    def test_walk_to_the_last_budgeted_bin(self):
        assert first_played_bin(min_stones(2**24)) == 2**24


class TestSieveStage:
    @pytest.mark.parametrize("k", sorted(SIEVE_ROWS))
    def test_published_rows(self, k):
        assert sieve_stage(k, 9) == SIEVE_ROWS[k]

    def test_stage_one_is_all_integers(self):
        assert sieve_stage(1, 10) == list(range(1, 11))

    def test_membership(self):
        elements = sieve_stage(4, 50)
        assert all(first_played_bin(n) >= 4 for n in elements)
        excluded = set(range(1, elements[-1] + 1)) - set(elements)
        assert all(first_played_bin(n) < 4 for n in excluded)

    def test_scan_cap(self):
        with pytest.raises(RuntimeError):
            sieve_stage(8, 50, scan_cap=30)

    def test_first_elements_are_min_stones(self):
        firsts = [sieve_stage(k, 1)[0] for k in range(1, 21)]
        assert firsts == min_stones_sequence(20)

    def test_min_stones_is_the_head_of_the_scanned_stage(self):
        # the smallest n whose first played bin is >= L, found by testing every n
        for length in range(1, 31):
            assert min_stones(length) == sieve_stage_by_scan(length, 1, 10**6)[0], length

    @pytest.mark.parametrize("k,count", [(10**30, 3), (1800, 1), (10**6, 999_998)])
    def test_past_the_default_cap_is_refused_promptly(self, k, count):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=f"exceeded after 0 of {count} elements of stage {k}$"):
            sieve_stage(k, count)
        assert time.perf_counter() - start < 0.05

    def test_tile_past_32_bits_is_refused_before_it_is_built(self):
        # Past stage 6 the stage is tiled in 4-byte entries; the last of
        # these 10^9 elements of stage 7 is 7,000,000,008 > 2^32 - 1.
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="^stage 7 up to 7000000008 passes the 32-bit entries"):
            sieve_stage(7, 10**9, scan_cap=2**40)
        assert time.perf_counter() - start < 0.5


class TestSieveStep:
    def test_published_transition(self):
        assert sieve_step(SIEVE_ROWS[2], 2)[:6] == SIEVE_ROWS[3][:6]
        assert sieve_step(SIEVE_ROWS[4], 4)[:7] == SIEVE_ROWS[5][:7]

    def test_empty(self):
        assert sieve_step([], 3) == []

    def test_leaves_its_argument(self):
        stage = [1, 2, 3, 4, 5]
        assert sieve_step(stage, 1) == [2, 4]
        assert stage == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_consistency_with_direct_scan(self, k):
        stepped = sieve_step(sieve_stage(k, 100), k)
        assert stepped == sieve_stage(k + 1, len(stepped))

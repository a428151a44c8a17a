"""The linear layer's arithmetic fast paths against the per-element oracles.

``board_from_stones`` walks runs of bins, ``min_stones`` runs of equal
ceiling steps, ``sieve_stage`` tiles a stage from its period or sieves
a tiled stage 6, ``play_sequence`` labels every stone count from a
60-entry row and a tiled stage 6, ``min_stones_sequence`` runs the
position rule from a tiled stage 6 up to the scan cap and the climb past
it, and ``enumerate_boards`` one loop over the bins,
and refuses at the call the lengths whose boards pass the bin budget;
each must agree exactly with the slow form it replaced, kept in
``linear_oracle``.
"""

import math
import random
import time
import tracemalloc

import pytest

from tchoukaillon import length as length_module
from tchoukaillon import (
    board_from_stones,
    check_bounds,
    enumerate_boards,
    min_stones,
    min_stones_sequence,
    minimal_period,
    play_sequence,
    sieve_stage,
)

from linear_oracle import (
    enumerate_boards_by_countdown,
    enumerate_boards_by_recursion,
    first_empty_bin_of,
    min_stones_by_loop,
    play_sequence_by_walks,
    play_sequence_from_stage_two,
    residue_walk,
    sieve_stage_by_scan,
    sieve_stage_from_stage_two,
)


def test_boards_up_to_twenty_thousand():
    for n in range(20_001):
        assert board_from_stones(n).bins == residue_walk(n), n


def test_boards_seeded_up_to_ten_to_the_twelve():
    rng = random.Random(7)
    for _ in range(60):
        n = int(math.exp(rng.uniform(0, math.log(10**12))))
        assert board_from_stones(n).bins == residue_walk(n), n


def test_boards_where_the_length_changes():
    # min_stones(L) is the smallest n whose board has L bins, so the last
    # run ends exactly at the last bin on either side of it.
    for length in range(1, 301):
        n = min_stones(length)
        for m in (n - 1, n, n + 1):
            assert board_from_stones(m).bins == residue_walk(m), m
        assert board_from_stones(n).length == length


def test_min_stones_up_to_three_thousand():
    for length in range(1, 3001):
        assert min_stones(length) == min_stones_by_loop(length), length


def test_min_stones_seeded_up_to_ten_to_the_five():
    rng = random.Random(11)
    for _ in range(20):
        length = rng.randint(1, 10**5)
        assert min_stones(length) == min_stones_by_loop(length), length


def test_min_stones_sequence_across_the_tile_start_and_the_hand_off():
    # Terms 1-5 are a table and stage 6 is tiled from term 6 on; at the
    # default scan cap term 1771 (999,634) is the last one sieved.
    loop = [min_stones_by_loop(length) for length in range(1, 1781)]
    assert loop[1770] <= 10**6 < loop[1771]
    for max_length in [*range(1, 81), *range(1765, 1781)]:
        assert min_stones_sequence(max_length) == loop[:max_length], max_length


@pytest.mark.parametrize("scan_cap", [59, 60, 61, 119, 1000, 3000])
def test_min_stones_sequence_hands_off_at_any_scan_cap(monkeypatch, scan_cap):
    # A small cap empties the tiled stage early, so the climb takes over
    # at a different term for each cap, within one period or many.  At
    # 3000 stage 48 keeps 50 members below the cap, and its step drops
    # two of them: the first and the last, whose term is then climbed.
    loop = [min_stones_by_loop(length) for length in range(1, 301)]
    monkeypatch.setattr(length_module, "SCAN_CAP", scan_cap)
    for max_length in range(1, 301):
        assert min_stones_sequence(max_length) == loop[:max_length], max_length


def test_check_bounds_closed_form():
    for length in range(2, 400):
        lower = sum(length - 2 * i for i in range(length // 2 + 1))
        assert check_bounds(length) == (lower, min_stones_by_loop(length), length * (length + 1) // 2)


@pytest.mark.parametrize("k", range(1, 13))
def test_sieve_stage_every_prefix(k):
    # Every count for the short periods; for k = 7..9 every 11th count,
    # which is prime to the number of members per period (60, 105, 280)
    # and so still ends a prefix at every position within a period; past
    # that a few counts.
    expected = sieve_stage_by_scan(k, 3000, 10**6)
    counts = range(1, 3001, 1 if k <= 6 else 11) if k <= 9 else (1, 2, 3, 10, 11, 100, 1001, 2999)
    for count in counts:
        assert sieve_stage(k, count) == expected[:count], count
    assert sieve_stage(k, 3000) == expected


@pytest.mark.parametrize("k", range(1, 10))
def test_sieve_scan_cap_refusals(k):
    period = minimal_period(max(k - 1, 1))
    for scan_cap in sorted({0, 1, 2, 7, 30, period - 1, period, period + 1, 3 * period + 5, 5000}):
        for count in (1, 2, 5, 40, 200, 1000, 3000):
            try:
                expected = sieve_stage_by_scan(k, count, scan_cap)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as got:
                    sieve_stage(k, count, scan_cap=scan_cap)
                assert str(got.value) == str(exc)
            else:
                assert sieve_stage(k, count, scan_cap=scan_cap) == expected


def test_sieve_huge_stage_is_refused_promptly():
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as got:
        sieve_stage(10**30, 3, scan_cap=1000)
    assert time.perf_counter() - start < 0.5
    assert str(got.value) == f"scan cap 1000 exceeded after 0 of 3 elements of stage {10**30}"


def test_sieve_huge_count_is_refused_promptly():
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="after 500000 of"):
        sieve_stage(2, 10**30)
    assert time.perf_counter() - start < 0.5


def test_play_sequence_is_the_leftmost_empty_bin_one_stone_earlier():
    n = 5000
    assert play_sequence(n) == [first_empty_bin_of(k) for k in range(n - 1, -1, -1)]


def test_play_sequence_every_n_up_to_three_thousand():
    # Clearing n stones passes through every board below n, so the walks
    # for each n are the tail of the walks for 3000.
    walks = play_sequence_by_walks(3000)
    for n in range(3001):
        assert play_sequence(n) == walks[3000 - n :], n


def test_play_sequence_of_a_hundred_thousand_is_a_list_of_ints():
    # bench/run.py hashes answers through freeze, which knows list, not array.
    n = 10**5
    got = play_sequence(n)
    assert type(got) is list and {type(move) for move in got} == {int}
    assert got == play_sequence_by_walks(n)


def test_play_sequence_against_the_sieve_from_stage_two():
    # Every residue of n mod 60 at sizes the walks cannot reach.
    rng = random.Random(5)
    for n in [10**6, *(60 * rng.randrange(10, 1700) + r for r in range(60))]:
        assert play_sequence(n) == play_sequence_from_stage_two(n), n


@pytest.mark.parametrize("k", [7, 8, 9, 13, 60, 400, 1500])
def test_sieve_stage_past_stage_six_against_the_sieve_from_stage_two(k):
    # Counts that end a prefix within one period of stage 6 and far past it.
    scan_cap = 2 * 10**6
    counts = (1, 2, 9, 10, 11, 59, 60, 61, 997, scan_cap // (2 * k))
    for count in counts:
        expected = sieve_stage_from_stage_two(k, sieve_stage(k, count, scan_cap)[-1])
        assert len(expected) == count and sieve_stage(k, count, scan_cap) == expected, count


def peak_over_held(call) -> float:
    """tracemalloc's peak during call() over the bytes its result holds."""
    call()  # a first call's imports are not the call's own cost
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak / held


def test_play_sequence_builds_its_list_once():
    # The result holds one reference per move.  A list built twice peaks
    # near twice that, and a sieve from the n/2 even positions at 1.35 times.
    assert peak_over_held(lambda: play_sequence(10**5)) < 1.25


def test_sieve_stage_holds_no_list_of_its_stage():
    # The last element is near 960,000.  Sieving the even numbers up to it
    # as a list of ints peaks at 20.5 MB for a 3.3 MB result.
    assert peak_over_held(lambda: sieve_stage(12, 80000)) < 2


def test_enumerate_boards_every_length_up_to_four_hundred():
    for length in range(401):
        got = [board.bins for board in enumerate_boards(length)]
        assert got == list(enumerate_boards_by_recursion(length)), length



@pytest.mark.parametrize("budget", [1, 30, 200, 1000, 2000])
def test_enumerate_boards_refuses_at_the_call_what_the_countdown_refused(monkeypatch, budget):
    # The countdown refuses part way through the boards; the library, which
    # counts them first, must refuse the same lengths before the first one.
    monkeypatch.setattr(length_module, "MAX_BOARD_BINS", budget)
    outcomes = set()
    for length in range(61):
        try:
            expected = list(enumerate_boards_by_countdown(length, budget))
        except OverflowError as refusal:
            with pytest.raises(OverflowError) as raised:
                enumerate_boards(length)
            assert str(raised.value) == str(refusal), length
            outcomes.add("refused")
        else:
            assert [board.bins for board in enumerate_boards(length)] == expected, length
            outcomes.add("admitted")
    assert outcomes == {"admitted", "refused"}

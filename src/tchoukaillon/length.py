"""Boards indexed by length instead of stone count.

Fixing the length and working from the far bin toward the Ruma yields
every winning board of that length, and the minimum stone count over
them has a closed nested-ceiling form.
"""

from __future__ import annotations

from collections.abc import Iterator

from .checked import MAX_BOARD_BINS, SEQUENCE_CAP, UINT128_MAX, as_uint
from .core import EMPTY_BOARD, Board, _stage_element, _winning_board


def enumerate_boards(length: int) -> Iterator[Board]:
    """All winning boards of exactly this length, in increasing stone order.

    Built right to left: the last bin is forced to ``length``; at bin i the
    admissible counts are the values in [0, i] that keep the upper partial
    sum divisible by i (two choices when i divides the suffix sum, else one).
    Depth-first with the smaller count explored first, which makes the
    output order coincide with increasing total stones.  The walk keeps
    the bins where it took 0 but could take i, and resumes from the last.

    The boards of length L are those of n in [min_stones(L),
    min_stones(L+1)), so their number is known up front: OverflowError is
    raised at the call, before any board is built, when they would take
    more than 2^24 bins in all.
    """
    if as_uint(length, "board length") == 0:
        return iter((EMPTY_BOARD,))
    # Every length has a board, so one past the budget needs no count.
    if length > MAX_BOARD_BINS or length * (
        _stage_element(length + 1, 1, UINT128_MAX) - _stage_element(length, 1, UINT128_MAX)
    ) > MAX_BOARD_BINS:
        raise OverflowError(f"the boards of length {length} pass the budget of {MAX_BOARD_BINS} bins")
    return _walk(length)


def _walk(length: int) -> Iterator[Board]:
    bins = [0] * length
    bins[length - 1] = length
    branches: list[tuple[int, int]] = []  # (bin, suffix sum above it)
    i, suffix = length - 1, length
    while True:
        while i:
            count = (-suffix) % i
            if count == 0:
                branches.append((i, suffix))
            bins[i - 1] = count
            suffix += count
            i -= 1
        # The last bin holds length stones, so the bins need no trim.
        yield _winning_board(tuple(bins))
        if not branches:
            return
        i, suffix = branches.pop()
        bins[i - 1] = i
        suffix += i
        i -= 1


def min_stones(length: int) -> int:
    """Minimum stone count over winning boards of the given length.

    Evaluates the nested-ceiling product right to left: starting from
    ``length``, repeatedly raise to the next multiple of i for
    i = length-1 down to 1: the climb to the first element of sieve
    stage ``length``.  Raises OverflowError for a length beyond the bin
    budget.
    """
    if as_uint(length, "board length") < 1:
        raise ValueError("min_stones requires length >= 1")
    if length > MAX_BOARD_BINS:
        raise OverflowError(f"board length {length} is beyond the budget of {MAX_BOARD_BINS} bins")
    return as_uint(_stage_element(length, 1, UINT128_MAX), "minimum stone count")


def min_stones_sequence(max_length: int, cap: int = SEQUENCE_CAP) -> list[int]:
    """min_stones(1), ..., min_stones(max_length) (OEIS A002491).

    Refused up front, before any term: OverflowError for a length beyond
    the bin budget, as min_stones does, and ValueError for more than
    *cap* terms.  Inside the bin budget every term is below 2^47.
    """
    if as_uint(max_length, "board length") < 1:
        raise ValueError("min_stones_sequence requires max_length >= 1")
    if max_length > MAX_BOARD_BINS:
        raise OverflowError(f"board length {max_length} is beyond the budget of {MAX_BOARD_BINS} bins")
    if max_length > as_uint(cap, "term cap"):
        raise ValueError(f"min_stones_sequence refuses max_length={max_length} above the cap of {cap} terms")
    return [_stage_element(length, 1, UINT128_MAX) for length in range(1, max_length + 1)]


def check_bounds(length: int) -> tuple[int, int, int]:
    """(lower, min_stones(length), upper) with lower <= value <= upper.

    The lower bound sums the forced far-end counts length - 2i; the upper
    bound is the full-board total length(length+1)/2.  Raises
    OverflowError for a length beyond the bin budget, as min_stones does.
    """
    if as_uint(length, "board length") < 2:
        raise ValueError("check_bounds requires length >= 2")
    half = length // 2
    lower = (half + 1) * (length - half)
    upper = length * (length + 1) // 2
    value = min_stones(length)
    return lower, value, as_uint(upper, "upper bound")

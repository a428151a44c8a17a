"""Boards indexed by length instead of stone count.

Fixing the length and working from the far bin toward the Ruma yields
every winning board of that length, and the minimum stone count over
them has a closed nested-ceiling form.
"""

from __future__ import annotations

from collections.abc import Iterator

from .checked import as_uint
from .core import _MAX_BOARD_BINS, Board


def enumerate_boards(length: int) -> Iterator[Board]:
    """All winning boards of exactly this length, in increasing stone order.

    Built right to left: the last bin is forced to ``length``; at bin i the
    admissible counts are the values in [0, i] that keep the upper partial
    sum divisible by i (two choices when i divides the suffix sum, else one).
    Depth-first with the smaller count explored first, which makes the
    output order coincide with increasing total stones.
    """
    if as_uint(length, "board length") == 0:
        yield Board()
        return
    bins = [0] * length
    bins[length - 1] = length

    def descend(i: int, suffix: int) -> Iterator[Board]:
        if i == 0:
            yield Board._trusted(tuple(bins))
            return
        forced = (-suffix) % i
        for count in ((0, i) if forced == 0 else (forced,)):
            bins[i - 1] = count
            yield from descend(i - 1, suffix + count)

    yield from descend(length - 1, length)


def min_stones(length: int) -> int:
    """Minimum stone count over winning boards of the given length.

    Evaluates the nested-ceiling product right to left: starting from
    ``length``, repeatedly raise to the next multiple of i for
    i = length-1 down to 1.  The value at index i is q*i, and stepping to
    i-1 adds m = ceil(q/(i-1)) to q; runs of equal m are taken in one
    step.  Raises OverflowError for a length beyond the bin budget.
    """
    if as_uint(length, "board length") < 1:
        raise ValueError("min_stones requires length >= 1")
    if length > _MAX_BOARD_BINS:
        raise OverflowError(f"board length {length} is beyond the budget of {_MAX_BOARD_BINS} bins")
    q, i = 1, length
    while i > 1:
        m = -(-q // (i - 1))
        # The slack m*(i-1) - q is at most i-2, so steps <= i/2: a run
        # never passes index 1.
        steps = (m * (i - 1) - q) // (2 * m) + 1
        if steps == 1:
            break
        q += steps * m
        i -= steps
    # Near the Ruma the runs have length 1: finish one index at a time.
    for j in range(i - 1, 0, -1):
        q += -(-q // j)
    return as_uint(q, "minimum stone count")


def min_stones_sequence(max_length: int) -> list[int]:
    """The sequence min_stones(1), ..., min_stones(max_length) (OEIS A002491)."""
    if as_uint(max_length, "board length") < 1:
        raise ValueError("min_stones_sequence requires max_length >= 1")
    return [min_stones(length) for length in range(1, max_length + 1)]


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

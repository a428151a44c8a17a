"""Boards indexed by length instead of stone count.

Fixing the length and working from the far bin toward the Ruma yields
every winning board of that length, and the minimum stone count over
them has a closed nested-ceiling form.
"""

from __future__ import annotations

from collections.abc import Iterator

from .checked import as_uint
from .core import Board


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
    i = length-1 down to 1.
    """
    if as_uint(length, "board length") < 1:
        raise ValueError("min_stones requires length >= 1")
    value = length
    for i in range(length - 1, 0, -1):
        value = -(-value // i) * i
    return as_uint(value, "minimum stone count")


def min_stones_sequence(max_length: int) -> list[int]:
    """The sequence min_stones(1), ..., min_stones(max_length) (OEIS A002491)."""
    if as_uint(max_length, "board length") < 1:
        raise ValueError("min_stones_sequence requires max_length >= 1")
    return [min_stones(length) for length in range(1, max_length + 1)]


def check_bounds(length: int) -> tuple[int, int, int]:
    """(lower, min_stones(length), upper) with lower <= value <= upper.

    The lower bound sums the forced far-end counts length - 2i; the upper
    bound is the full-board total length(length+1)/2.
    """
    if as_uint(length, "board length") < 2:
        raise ValueError("check_bounds requires length >= 2")
    lower = sum(length - 2 * i for i in range(length // 2 + 1))
    upper = length * (length + 1) // 2
    value = min_stones(length)
    return lower, value, as_uint(upper, "upper bound")

"""Slow reference implementations of the linear layer.

These are the per-element forms that the library's arithmetic replaced:
the residue walk one bin at a time, the nested ceiling one index at a
time, the sieve as a scan over every stone count, the leftmost empty
bin of the board one stone smaller, and the boards of one length by
recursion.  The differential tests compare the library against them.
"""

from __future__ import annotations

from collections.abc import Iterator


def residue_walk(n: int) -> tuple[int, ...]:
    """Bins of the winning board with n stones: bin i gets the remaining stones mod i+1."""
    bins = []
    i = 2
    while n:
        count = n % i
        bins.append(count)
        n -= count
        i += 1
    return tuple(bins)


def min_stones_by_loop(length: int) -> int:
    """The nested ceiling: from ``length``, raise to the next multiple of i for i = length-1 .. 1."""
    value = length
    for i in range(length - 1, 0, -1):
        value = -(-value // i) * i
    return value


def first_played_bin_by_walk(n: int) -> int:
    """Smallest i whose bin holds exactly i stones, walking bins until it is found."""
    remaining = n
    i = 1
    while True:
        count = remaining % (i + 1)
        if count == i:
            return i
        remaining -= count
        i += 1


def first_empty_bin_of(n: int) -> int:
    """Leftmost empty bin of the winning board with n stones."""
    remaining = n
    i = 1
    while True:
        count = remaining % (i + 1)
        if count == 0:
            return i
        remaining -= count
        i += 1


def sieve_stage_by_scan(k: int, count: int, scan_cap: int) -> list[int]:
    """First *count* elements of stage k, testing every n = 1, 2, ... up to *scan_cap*."""
    out: list[int] = []
    n = 0
    while len(out) < count:
        n += 1
        if n > scan_cap:
            raise RuntimeError(
                f"scan cap {scan_cap} exceeded after {len(out)} of {count} elements of stage {k}"
            )
        if k == 1 or first_played_bin_by_walk(n) >= k:
            out.append(n)
    return out


def enumerate_boards_by_recursion(length: int) -> Iterator[tuple[int, ...]]:
    """Bins of every winning board of this length, one generator frame per bin.

    Right to left from the last bin, forced to ``length``: bin i takes the
    counts in [0, i] that keep the suffix sum divisible by i, smaller first.
    """
    if length == 0:
        yield ()
        return
    bins = [0] * length
    bins[length - 1] = length

    def descend(i: int, suffix: int) -> Iterator[tuple[int, ...]]:
        if i == 0:
            yield tuple(bins)
            return
        forced = (-suffix) % i
        for count in ((0, i) if forced == 0 else (forced,)):
            bins[i - 1] = count
            yield from descend(i - 1, suffix + count)

    yield from descend(length - 1, length)

"""The linear Tchoukaillon game.

A board is a finite vector of bin stone-counts with bin 1 next to the
Ruma (the store).  For every total n there is exactly one board that can
be cleared by legal sowing; this module builds that board directly,
plays and unplays it, and exposes the periodicity of the bin columns.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .checked import _Frozen, as_uint

PLAY_SEQUENCE_CAP = 10_000_000

# Longest board board_from_stones builds: it admits n up to about 7e13
# stones (~1.5e7 bins).  A board near the 128-bit limit has ~1e19 bins.
_MAX_BOARD_BINS = 1 << 24

# The largest i with lcm(2..i+1), the period of bins 1..i, inside 128 bits.
_MAX_PERIOD_INDEX = 87


def _trim(bins: tuple[int, ...]) -> tuple[int, ...]:
    end = len(bins)
    while end and bins[end - 1] == 0:
        end -= 1
    return bins if end == len(bins) else bins[:end]


class Board(_Frozen):
    """Immutable stone counts per bin, stored with no trailing zeros.

    ``bins[0]`` is bin 1 (adjacent to the Ruma).  Trailing zero bins are
    trimmed on construction, so equality and hashing see one canonical
    representation per board.
    """

    __slots__ = __match_args__ = ("bins",)

    def __init__(self, bins: tuple[int, ...] = ()) -> None:
        bins = tuple(bins)
        for count in bins:
            as_uint(count, "bin count")
        object.__setattr__(self, "bins", _trim(bins))

    @classmethod
    def _trusted(cls, bins: tuple[int, ...]) -> "Board":
        # Bins the library derived itself: trimmed, but not re-checked.
        board = object.__new__(cls)
        object.__setattr__(board, "bins", _trim(bins))
        return board

    @property
    def stones(self) -> int:
        """Total number of stones on the board."""
        return sum(self.bins)

    @property
    def length(self) -> int:
        """Index of the last nonempty bin; 0 for the empty board."""
        return len(self.bins)

    def bin(self, i: int) -> int:
        """Stones in 1-based bin *i*; bins beyond the stored length are empty."""
        if as_uint(i, "bin index") < 1:
            raise ValueError("bins are numbered from 1")
        return self.bins[i - 1] if i <= len(self.bins) else 0

    def to_json(self) -> list[int]:
        """Serialized form: plain list of bin counts, 1-based order, no trailing zeros."""
        return list(self.bins)

    @classmethod
    def from_json(cls, data: object) -> "Board":
        if not isinstance(data, list):
            raise ValueError("board JSON must be an array of bin counts")
        return cls(tuple(data))


EMPTY_BOARD = Board()


def _bin_runs(n: int) -> Iterator[range]:
    # Before bin i the remaining stones are i*q, with q = n before bin 1.
    # With m = ceil(q/(i+1)), bin i holds first = (i+1)*m - q and q drops
    # by m.  While m holds, each bin exceeds the one before by 2m; it
    # holds for (i - first) // (2m - 1) + 1 bins.  The last run, with
    # m = 1, is the forced tail ..., L-4, L-2, L.
    i, q = 1, n
    while q:
        m = -(-q // (i + 1))
        first = (i + 1) * m - q
        steps = (i - first) // (2 * m - 1) + 1
        yield range(first, first + 2 * m * steps, 2 * m)
        i += steps
        q -= steps * m


def board_from_stones(n: int) -> Board:
    """The unique winning board with *n* stones, built without unplaying.

    Bin i receives ``(n - sum of earlier bins) mod (i + 1)``, which keeps
    every prefix sum congruent to n modulo i + 1.  Consecutive bins form
    arithmetic runs, so the walk takes O(n^(1/3)) steps for the ~sqrt(pi*n)
    bins.  Raises OverflowError, before building anything, when the board
    could exceed the bin budget.
    """
    as_uint(n, "stone count")
    # A board of length L holds at least L + (L-2) + (L-4) + ... >= L^2/4
    # stones (the lower bound of length.check_bounds), so L <= 2*isqrt(n) + 1.
    bound = 2 * math.isqrt(n) + 1
    if bound > _MAX_BOARD_BINS:
        raise OverflowError(
            f"the board with {n} stones may have up to {bound} bins, "
            f"beyond the budget of {_MAX_BOARD_BINS}"
        )
    return Board._trusted(tuple(itertools.chain.from_iterable(_bin_runs(n))))


def leftmost_empty(board: Board) -> int:
    """Index of the first empty bin, counting bins past the stored length as empty."""
    for i, count in enumerate(board.bins, start=1):
        if count == 0:
            return i
    return board.length + 1


def is_winning(board: Board) -> bool:
    """True iff the board can be cleared by legal sowing.

    Characterization: every bin satisfies ``bins[i] <= i`` and every
    upper partial sum ``bins[i] + ... + bins[length]`` is divisible by i.
    """
    suffix = 0
    for i in range(board.length, 0, -1):
        count = board.bins[i - 1]
        if count > i:
            return False
        suffix += count
        if suffix % i:
            return False
    return True


def unplay(board: Board) -> Board:
    """The winning board with one more stone.

    Takes a stone from the Ruma and one from each bin before the leftmost
    empty bin p, dropping all p collected stones into bin p.
    """
    if not is_winning(board):
        raise ValueError("unplay is defined only for winning boards")
    p = leftmost_empty(board)
    bins = list(board.bins) + [0] * (p - board.length)
    for j in range(p - 1):
        bins[j] -= 1
    bins[p - 1] = p
    return Board._trusted(tuple(bins))


def play(board: Board) -> tuple[Board, int]:
    """Sow the harvestable bin closest to the Ruma; returns (board, bin played).

    Exactly one stone reaches the Ruma.  Only nonempty winning boards have
    a legal move.
    """
    if board.length == 0:
        raise ValueError("cannot play the empty board")
    if not is_winning(board):
        raise ValueError("play is defined only for winning boards")
    target = next(i for i in range(1, board.length + 1) if board.bins[i - 1] == i)
    bins = list(board.bins)
    bins[target - 1] = 0
    for j in range(target - 1):
        bins[j] += 1
    return Board._trusted(tuple(bins)), target


def _first_played_bin(n: int) -> int:
    # Smallest i whose bin holds exactly i stones, for n >= 1 (the last
    # bin always does); the board is walked only up to that bin.
    remaining = n
    i = 1
    while True:
        count = remaining % (i + 1)
        if count == i:
            return i
        remaining -= count
        i += 1


def first_played_bin(n: int) -> int:
    """The bin played first when clearing the winning board with n stones.

    Equals the smallest i whose bin holds exactly i stones; the last bin
    always does, so the scan terminates.
    """
    if as_uint(n, "stone count") < 1:
        raise ValueError("first_played_bin requires n >= 1")
    return _first_played_bin(n)


def play_sequence(n: int, cap: int = PLAY_SEQUENCE_CAP) -> list[int]:
    """The bins played, in order, to clear the winning board with *n* stones.

    Move k clears one stone, so the sequence has length n.  The board with
    k stones first plays the bin that unplaying refilled, the leftmost
    empty bin of the board with k - 1 stones.  Refuses n above *cap* to
    bound memory.
    """
    as_uint(n, "stone count")
    if n > as_uint(cap, "move cap"):
        raise ValueError(f"play_sequence refuses n={n} above the cap of {cap} moves")
    return [_first_played_bin(k) for k in range(n, 0, -1)]


def _stage_element(k: int, count: int, limit: int) -> int:
    # The count-th element of sieve stage k, or some value past *limit*
    # if it is.  Keeping c elements of stage j+1 takes the first
    # c + ceil(c/j) of stage j, the last of them kept, so q climbs from
    # count by q += ceil(q/j) for j = k-1 down to 1, in runs of equal step.
    q, i = count, k
    while i > 1 and q <= limit:
        m = -(-q // (i - 1))
        # The slack m*(i-1) - q is at most i-2, so steps <= i/2: a run
        # never passes index 1.
        steps = (m * (i - 1) - q) // (2 * m) + 1
        if steps == 1:
            break
        q += steps * m
        i -= steps
    # Each step left multiplies q by at least (j+1)/j, so the climb ends
    # at q*i or above.  Below the limit the loop below stays short: the
    # break left a slack under 2m, so q > i - 3 and i < sqrt(limit) + 3.
    if q * i > limit:
        return q * i
    # Near the Ruma the runs have length 1: finish one index at a time.
    for j in range(i - 1, 0, -1):
        q += -(-q // j)
    return q


def minimal_period(i: int) -> int:
    """Exact period of the first *i* bin columns as a function of n: lcm(2..i+1)."""
    if as_uint(i, "column count") < 1:
        raise ValueError("minimal_period requires i >= 1")
    if i > _MAX_PERIOD_INDEX:
        raise OverflowError(
            f"minimal_period({i}) exceeds 128 bits; the largest supported index is {_MAX_PERIOD_INDEX}"
        )
    return math.lcm(*range(2, i + 2))

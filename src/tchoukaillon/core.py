"""The linear Tchoukaillon game.

A board is a finite vector of bin stone-counts with bin 1 next to the
Ruma (the store).  For every total n there is exactly one board that can
be cleared by legal sowing; this module builds that board directly,
plays and unplays it, and exposes the periodicity of the bin columns.
"""

from __future__ import annotations

import itertools
import math

from .checked import MAX_BOARD_BINS, MAX_PERIOD_INDEX, PLAY_SEQUENCE_CAP, _Frozen, as_uint


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

    A board also records whether it is known to be winning.  This is not
    a field: equality, hashing, the repr, pickling and copying use
    ``bins`` alone.  The boards built by :func:`board_from_stones`,
    :func:`unplay`, :func:`play` and ``length.enumerate_boards`` are
    winning by construction and say so; a board built with ``Board(...)``
    starts unknown, and :func:`is_winning` checks it once and remembers.
    """

    __match_args__ = ("bins",)
    __slots__ = __match_args__ + ("_winning",)

    def __init__(self, bins: tuple[int, ...] = ()) -> None:
        bins = tuple(bins)
        for count in bins:
            as_uint(count, "bin count")
        object.__setattr__(self, "bins", _trim(bins))
        object.__setattr__(self, "_winning", None)

    @classmethod
    def _trusted(cls, bins: tuple[int, ...], winning: bool | None = None) -> "Board":
        # Bins the library derived itself that may end in empty bins
        # (play, crt.board_from_increasing): trimmed, but not re-checked.
        # *winning* is True only where the construction proves it.
        board = _new(cls)
        _set_bins(board, _trim(bins))
        _set_winning(board, winning)
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


# The slot setters of a board, bound once: the builders of winning boards
# make one per call, through object.__new__ and these, without __init__.
_new = object.__new__
_set_bins = Board.__dict__["bins"].__set__
_set_winning = Board.__dict__["_winning"].__set__


def _winning_board(bins: tuple[int, ...]) -> Board:
    # A winning board whose bins the library derived, ending in a nonzero
    # bin or empty, as board_from_stones, unplay and length's walk build
    # them: neither trimmed nor re-checked.
    board = _new(Board)
    _set_bins(board, bins)
    _set_winning(board, True)
    return board


EMPTY_BOARD = _winning_board(())


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
    if bound > MAX_BOARD_BINS:
        raise OverflowError(
            f"the board with {n} stones may have up to {bound} bins, "
            f"beyond the budget of {MAX_BOARD_BINS}"
        )
    # Before bin i the remaining stones are i*q, with q = n before bin 1.
    # With m = ceil(q/(i+1)), bin i holds first = (i+1)*m - q and q drops
    # by m.  While m holds, each bin exceeds the one before by 2m; it
    # holds for (i - first) // (2m - 1) + 1 bins, one bin when
    # i - first < 2m - 1.  The last run, with m = 1, is the forced tail
    # ..., L-4, L-2, L.  Near the Ruma the runs are single bins, which go
    # into one list; from the first longer run on, each run stays a range
    # until the one tuple is built.
    head: list[int] = []
    runs: list[range] = []
    i, q = 1, n
    while q:
        k = i + 1
        m = -(-q // k)
        first = k * m - q
        span = 2 * m - 1
        if i - first < span and not runs:
            head.append(first)
            i, q = k, q - m
        else:
            steps = (i - first) // span + 1
            runs.append(range(first, first + (span + 1) * steps, span + 1))
            i += steps
            q -= steps * m
    # The last bin holds as many stones as its index, so no bin is trimmed.
    return _winning_board(tuple(itertools.chain(head, *runs)))


def leftmost_empty(board: Board) -> int:
    """Index of the first empty bin, counting bins past the stored length as empty."""
    for i, count in enumerate(board.bins, start=1):
        if count == 0:
            return i
    return board.length + 1


def _winning_bins(bins: tuple[int, ...]) -> bool:
    # The one O(length) check: bins[i] <= i and every upper partial sum
    # bins[i] + ... + bins[length] divisible by i.
    suffix = 0
    for i in range(len(bins), 0, -1):
        count = bins[i - 1]
        if count > i:
            return False
        suffix += count
        if suffix % i:
            return False
    return True


def is_winning(board: Board) -> bool:
    """True iff the board can be cleared by legal sowing.

    Characterization: every bin satisfies ``bins[i] <= i`` and every
    upper partial sum ``bins[i] + ... + bins[length]`` is divisible by i.
    Boards from :func:`board_from_stones`, :func:`unplay`, :func:`play`
    and ``length.enumerate_boards`` are known to be winning and answer in
    O(1); any other board is checked in O(length) on the first call and
    keeps the answer.
    """
    winning = board._winning
    if winning is None:
        winning = _winning_bins(board.bins)
        _set_winning(board, winning)
    return winning


def unplay(board: Board) -> Board:
    """The winning board with one more stone.

    Takes a stone from the Ruma and one from each bin before the leftmost
    empty bin p, dropping all p collected stones into bin p.  Raises
    ValueError unless :func:`is_winning` holds, which costs O(1) on a
    board the library built; the result is known to be winning.
    """
    if not is_winning(board):
        raise ValueError("unplay is defined only for winning boards")
    p = leftmost_empty(board)
    bins = board.bins
    filled = tuple(count - 1 for count in bins[: p - 1]) + (p,)
    # The last bin is p or the board's own last bin, neither of them empty.
    return _winning_board(filled + bins[p:])


def play(board: Board) -> tuple[Board, int]:
    """Sow the harvestable bin closest to the Ruma; returns (board, bin played).

    Exactly one stone reaches the Ruma.  Only nonempty winning boards have
    a legal move; like :func:`unplay`, the check costs O(1) on a board the
    library built, and the result is known to be winning.
    """
    if board.length == 0:
        raise ValueError("cannot play the empty board")
    if not is_winning(board):
        raise ValueError("play is defined only for winning boards")
    bins = board.bins
    target = next(i for i in range(1, len(bins) + 1) if bins[i - 1] == i)
    sown = tuple(count + 1 for count in bins[: target - 1]) + (0,)
    return Board._trusted(sown + bins[target:], winning=True), target


def first_played_bin(n: int) -> int:
    """The bin played first when clearing the winning board with n stones.

    Equals the smallest i whose bin holds exactly i stones; the last bin
    always does, so the scan terminates.  Bin i holds what is left of n
    mod (i + 1), and the board is walked only up to that bin.  The walk
    is counted against the bin budget, so a bin past it raises
    OverflowError.
    """
    if as_uint(n, "stone count") < 1:
        raise ValueError("first_played_bin requires n >= 1")
    remaining = n
    for i in range(1, MAX_BOARD_BINS + 1):
        count = remaining % (i + 1)
        if count == i:
            return i
        remaining -= count
    raise OverflowError(f"the first played bin of {n} stones lies past the budget of {MAX_BOARD_BINS} bins")


# Whether n lies in sieve stage 6, and if not its first played bin, depends
# on bins 1-5 of its board, whose period is lcm(2..6) = 60.
_PERIOD = 60


def _first_period() -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    # Sieve one period, 1..60, down to stage 6: the first played bin of
    # each residue mod 60 that leaves by then (0 for the stage-6 residues),
    # and the members of stages 1-6 in the period.
    labels = [0] * _PERIOD
    stages = []
    stage = list(range(1, _PERIOD + 1))
    for k in range(1, 6):
        stages.append(tuple(stage))
        for n in stage[:: k + 1]:
            labels[n % _PERIOD] = k
        del stage[:: k + 1]
    stages.append(tuple(stage))
    return tuple(labels), tuple(stages)


# _STAGES[5] is (12, 18, 22, 30, 34, 42, 48, 54, 58, 60), and the first
# members of stages 1-5, min_stones(1..5), are (1, 2, 4, 6, 10).
_LABELS, _STAGES = _first_period()
_FIRST_TERMS = tuple(stage[0] for stage in _STAGES[:5])


def _stage6_tile(bound: int):
    # Stage 6 up to *bound*, in whole periods, as two arrays that are
    # always cut together: member i is tops[i] + residues[i], the start of
    # its period and its residue.  One array of the period starts fills
    # every column of tops, so the tile makes one Python int per period,
    # not one per member.
    from array import array  # loaded only by callers that list terms or elements

    residues = _STAGES[5]
    width, periods = len(residues), -(-bound // _PERIOD)
    starts = array("I", range(0, _PERIOD * periods, _PERIOD))
    tops = array("I", [0]) * (width * periods)
    for j in range(width):
        tops[j::width] = starts
    return tops, array("B", residues) * periods


def play_sequence(n: int, cap: int = PLAY_SEQUENCE_CAP) -> list[int]:
    """The bins played, in order, to clear the winning board with *n* stones.

    Move k clears one stone, so the sequence has length n, and entry
    n - x is the first played bin of the board with x stones.  Those are
    labelled by the sieve: stage k+1 drops every (k+1)-th element of
    stage k, starting with the first, and the x dropped there are the
    ones whose first played bin is k.  Down to stage 6 the labels repeat
    with period 60, so one 60-entry row, turned to n mod 60, is repeated
    into the one n-entry list and cut to length.  Only the n/6 members of
    stage 6 are sieved on, held as output positions in an array; a stage
    of about n/k elements is sliced twice per step until it has at most
    k + 1 left, which take the labels k, k + 1, ... in order: about
    2*sqrt(n) steps, for O(n log n) slice work in C plus n/6 Python
    stores.  Memory is the result, one 8-byte reference per move, and
    the stage, 4 bytes per position: 104 MB of peak RSS and about 0.3 s
    in a fresh process at the default cap of 10^7 moves.  Refuses n
    above *cap*.
    """
    as_uint(n, "stone count")
    if n > as_uint(cap, "move cap"):
        raise ValueError(f"play_sequence refuses n={n} above the cap of {cap} moves")
    from array import array  # loaded only by callers that list moves

    # Entry n - x is _LABELS[x % 60] wherever x leaves by stage 6.
    shift = n % _PERIOD
    out = list(_LABELS[shift::-1] + _LABELS[:shift:-1]) * -(-n // _PERIOD)
    del out[n:]
    # Stage 6 up to n, as the negative positions -x, which index entry
    # n - x: whole periods, then cut at n.  Up to 64 periods are listed
    # member by member; more are filled one column per residue, which
    # costs more per call and less per member.
    residues = _STAGES[5]
    width, periods = len(residues), -(-n // _PERIOD)
    if periods <= 64:
        stage = array("i", [top - r for top in range(0, -_PERIOD * periods, -_PERIOD) for r in residues])
    else:
        stage = array("i", [0]) * (width * periods)
        for j, residue in enumerate(residues):
            stage[j::width] = array("i", list(range(-residue, -_PERIOD * periods - 1, -_PERIOD)))
    del stage[width * (n // _PERIOD) + _LABELS[1 : shift + 1].count(0) :]
    k = 6
    while len(stage) > k + 1:
        for p in stage[:: k + 1]:
            out[p] = k
        del stage[:: k + 1]
        k += 1
    # Once stage k has at most k + 1 members, each step drops only the
    # first, so the members left are labelled k, k + 1, ... in order.
    for k, p in enumerate(stage, k):
        out[p] = k
    return out


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
    if i > MAX_PERIOD_INDEX:
        raise OverflowError(
            f"minimal_period({i}) exceeds 128 bits; the largest supported index is {MAX_PERIOD_INDEX}"
        )
    return math.lcm(*range(2, i + 2))

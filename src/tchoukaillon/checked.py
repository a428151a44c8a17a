"""The one input check: exact non-negative integers within 128 bits.

Stone counts, bin counts, sizes, indices and vertex labels are exact
integers, and the library promises a 128-bit unsigned range.  Every
public entry point passes such a value through :func:`as_uint` once;
objects the library derives itself are built without re-checking.
Results that could leave the range (periods, minimum stone counts) go
through the same check, so they raise OverflowError instead of
silently growing.

The work limits are defined here too, in one table.

The library's value classes derive from :class:`_Frozen`, which gives
them equality, hashing, a repr, immutability and pickling from their
fields; a copy of one is the value itself.
"""

from __future__ import annotations

UINT128_MAX = 2**128 - 1

# The work limits: what each bounds, the error past it (OverflowError
# unless named) and the calls that check it.  A call checks a limit
# before the work where its arguments give the amount, and as the work
# goes where marked "counted".  A *_CAP is the default of its
# call's cap parameter; the others are fixed.
PLAY_SEQUENCE_CAP = 10_000_000  # moves listed, ValueError: core.play_sequence
MAX_BOARD_BINS = 1 << 24        # bins built: core.board_from_stones, length, crt remainders, cli table;
#                                 bins walked, counted: core.first_played_bin;
#                                 boards times vertices: graph.cycle_attained_counts
MAX_PERIOD_INDEX = 87           # i with lcm(2..i+1) in 128 bits: core.minimal_period, crt
SEQUENCE_CAP = 1 << 15          # terms, ValueError: length.min_stones_sequence
SCAN_CAP = 1_000_000            # stone counts, RuntimeError: sieve.sieve_stage
COMPLETION_CAP = 1_000_000      # completions, counted, RuntimeError: crt.reconstruct_minimal
MAX_SEARCH_NODES = 1 << 20      # nodes per completion, counted, RuntimeError: crt.complete_constraints
CONDITIONS_CAP = 1 << 17        # prefix index: crt.consistency_conditions, allowable_check
FACTORING_CAP = 1 << 24         # index factored: crt.prime_power_divisors
DEFAULT_BOARD_CAP = 10_000      # boards, counted, RuntimeError: graph.enumerate_winning_boards
MAX_VERTICES = 1 << 16          # vertices: graph.SowingGraph, make_star, cycle_attained_counts
MAX_WALK_STEPS = 1 << 22        # walk steps, counted, RuntimeError: graph.enumerate_winning_boards
#
# Why these values:
# - PLAY_SEQUENCE_CAP: 10^7 moves are an 80 MB list; the sieve fills it
#   in about 0.8 s at 115 MB peak RSS (CPython 3.11, 2-core VM).
# - MAX_BOARD_BINS: n up to about 7e13 stones (~1.5e7 bins); the board of
#   n near 2^128 would have ~1e19.
# - MAX_PERIOD_INDEX: lcm(2..i+1) is the period of bins 1..i; crt's
#   search leaves 128 bits at its shifted index MAX_PERIOD_INDEX + 2 = 89.
#   crt builds its merge-step table once at import, for the shifted
#   indices 2..MAX_PERIOD_INDEX + 1 = 88; the step of 89 is the refusal.
# - SEQUENCE_CAP: a term costs about L^(2/3) steps; 32,768 take about 3 s.
# - CONDITIONS_CAP: ~3.4 conditions per index: 441,212 pairs, 37 MB, 1 s.
# - MAX_SEARCH_NODES: counted from the last completion yielded (or the
#   start), so reconstruct_minimal's completion cap stays exact.  The
#   search runs 1.1M-2.6M nodes/s, so a refusal takes 0.4-0.9 s
#   (reconstruct({16: 3, 34: 10}), CPython 3.11.7, 2-CPU Xeon whose speed
#   varied by about 2x between runs); the largest
#   gap between completions in the tests and the benchmark's reconstruct
#   workload is under 500 nodes.
# - FACTORING_CAP: at most sqrt(i) = 4,096 trial divisions.
# - MAX_VERTICES: a few lists per vertex, and a label per vertex per board
#   in the game search; the finiteness check takes about 0.3 s and 35 MB
#   at 2^16 vertices, 6 s and 300 MB at 2^20 (CPython 3.11, 2-core VM).
# - MAX_WALK_STEPS: one step per walk extension, plus len(path) +
#   vertex_count per legal walk recorded (both are copied), plus one per
#   part for each move of a game built as a product of independent parts
#   (fewer than the len(path) + vertex_count a search of the whole
#   board pays for the same move).  Walks are followed back from the
#   Rumas, so only walks that end on a Ruma are extended; Rumas never
#   block a walk, so walks can grow exponentially in number with length.
#   A path part (a path, a star spoke of two or more bins) is built as
#   the linear game without the search, and is charged what the search
#   would spend: 2p + 1 + vertex_count per unplay of p edges, nothing for
#   its full last board.  make_star(4, 5) at cap 30000 takes 305,272:
#   1,144 for its spokes and 4 per product move; a search of every board
#   would take 2,004,464.  make_path(16) takes 2,418, each step on a
#   recorded walk.


def as_uint(value: object, what: str) -> int:
    """Return *value* if it is an int in [0, 2^128 - 1].

    Raises ValueError, naming *what*, for anything but an ``int``
    (``bool``, float, str and None included) and for a negative value;
    raises OverflowError above 2^128 - 1.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__} {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    if value > UINT128_MAX:
        raise OverflowError(f"{what} exceeds the 128-bit limit ({value} > {UINT128_MAX})")
    return value


class _Frozen:
    """Immutable value built from its fields, named in ``__match_args__``.

    A subclass declares ``__slots__`` (its fields, then anything derived
    from them) and an ``__init__`` that checks its arguments and stores
    each slot once through ``object.__setattr__``; a derived slot may
    instead cache an answer computed later (``Board`` remembers whether
    it is winning).  Values the library derives itself, one per board or
    edge of a search, skip ``__init__``: they are made by
    ``object.__new__`` and stored through each slot's own setter, bound
    once at import (``GameEdge.__dict__["source"].__set__``).  Equality,
    hashing and the repr use the fields in order; instances of different
    classes are never equal.  Assignment and deletion raise
    AttributeError.  A copy, shallow or deep, is the value itself, as for
    ``tuple`` and ``frozenset``, so a board keeps its known-winning mark.
    Pickle rebuilds the value through the constructor, which checks the
    fields again: unpickled bytes are input.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self, memo: dict | None = None) -> _Frozen:
        return self

    __deepcopy__ = __copy__

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()

"""Remainder boards, non-coprime congruence solving, and board reconstruction.

This module speaks the shifted bin convention used for remainder
arithmetic: bins are indexed from 2, so ``m[i]`` here corresponds to
bin i-1 of :mod:`tchoukaillon.core`.  The conversion happens exactly once,
at the calls into ``core``.

A winning board's prefix sums are residues of its stone count: with n
stones, n = m_2 + ... + m_j (mod j) for every j.  A prefix m_2..m_i is
allowable (every prime-power window condition holds) exactly when these
congruences for j <= i can be solved, so one search serves every
reconstruction: it assigns bins in increasing index order, carries the
solution of the congruences so far, and offers each bin only the counts
that keep them solvable.  Every congruence, in the search and in
:func:`crt_solve`, is folded in by the same merge step, in two parts: one
that depends on the moduli alone (a gcd, a modular inverse and the
checked period) and one line that folds in the value.  The search's
running modulus at index i is lcm(2..i-1) on every branch, so it makes
the first part once per index, and a node costs one multiply-add.  The
reconstructions solve each completion the search yields from the prefix
it shares with the completion before.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate

from .checked import COMPLETION_CAP, CONDITIONS_CAP, FACTORING_CAP, MAX_BOARD_BINS, MAX_PERIOD_INDEX
from .checked import MAX_SEARCH_NODES, _Frozen, as_uint
from .core import Board, board_from_stones

CONSTRAINT_INDEXING = "paper-section-4"


class Infeasible(Exception):
    """No integer satisfies the request; ``witness`` explains why."""

    def __init__(self, message: str, witness: object = None) -> None:
        super().__init__(message)
        self.witness = witness


class Congruence(_Frozen):
    """``n = residue (mod modulus)`` with the residue normalized to [0, modulus)."""

    __slots__ = __match_args__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int) -> None:
        as_uint(residue, "residue")
        if as_uint(modulus, "modulus") < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if residue >= modulus:
            raise ValueError(f"residue {residue} not in [0, {modulus})")
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "modulus", modulus)

    def __str__(self) -> str:
        return f"n = {self.residue} (mod {self.modulus})"


class RemainderBoard(_Frozen):
    """Residues of a stone count modulo 2, 3, ..., k."""

    __slots__ = __match_args__ = ("residues", "n")

    def __init__(self, residues: tuple[int, ...], n: int | None = None) -> None:
        residues = tuple(residues)
        if n is not None:
            as_uint(n, "stone count")
        for offset, value in enumerate(residues):
            modulus = offset + 2
            if not as_uint(value, f"residue mod {modulus}") < modulus:
                raise ValueError(f"residue {value} out of range for modulus {modulus}")
            if n is not None and n % modulus != value:
                raise ValueError(f"residue {value} does not match {n} mod {modulus}")
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "n", n)

    @classmethod
    def _trusted(cls, residues: tuple[int, ...], n: int | None) -> "RemainderBoard":
        # Residues the library derived itself: not re-checked.
        board = object.__new__(cls)
        object.__setattr__(board, "residues", residues)
        object.__setattr__(board, "n", n)
        return board

    @property
    def max_modulus(self) -> int:
        return len(self.residues) + 1

    def residue(self, modulus: int) -> int:
        if not 2 <= modulus <= self.max_modulus:
            raise ValueError(f"modulus {modulus} outside stored range 2..{self.max_modulus}")
        return self.residues[modulus - 2]


class IncreasingRemainderBoard(_Frozen):
    """The minimal weakly increasing lift of a remainder board.

    Entry i (for i = 2..k) is congruent to n modulo i and is the smallest
    such value weakly above entry i-1.  Successive differences recover
    the bins of the winning board.
    """

    __slots__ = __match_args__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = tuple(values)
        previous = 0
        for offset, value in enumerate(values):
            modulus = offset + 2
            if not 0 <= as_uint(value, f"entry at modulus {modulus}") - previous < modulus:
                raise ValueError(
                    f"entry {value} at modulus {modulus} must lie within "
                    f"[{previous}, {previous + modulus})"
                )
            previous = value
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "IncreasingRemainderBoard":
        # Entries the library derived itself: not re-checked.
        lift = object.__new__(cls)
        object.__setattr__(lift, "values", values)
        return lift

    @property
    def max_modulus(self) -> int:
        return len(self.values) + 1

    def value(self, modulus: int) -> int:
        if not 2 <= modulus <= self.max_modulus:
            raise ValueError(f"modulus {modulus} outside stored range 2..{self.max_modulus}")
        return self.values[modulus - 2]


class PartialConstraint(_Frozen):
    """Required stone counts for a subset of bins, in the shifted convention.

    Keys are bin indices >= 2; values must satisfy 0 <= m[i] < i.  Accepts
    a mapping or an iterable of (index, count) pairs and stores a sorted
    tuple.
    """

    __slots__ = __match_args__ = ("entries",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> None:
        pairs = sorted(
            (as_uint(index, "constraint index"), as_uint(count, f"count at index {index}"))
            for index, count in (entries.items() if isinstance(entries, Mapping) else entries)
        )
        seen = set()
        for index, count in pairs:
            if index < 2:
                raise ValueError(f"constraint indices start at 2, got {index}")
            if index in seen:
                raise ValueError(f"duplicate constraint for index {index}")
            if count >= index:
                raise ValueError(f"count {count} out of range [0, {index}) at index {index}")
            seen.add(index)
        object.__setattr__(self, "entries", tuple(pairs))

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def to_json(self) -> dict[str, object]:
        doc: dict[str, object] = {"indexing": CONSTRAINT_INDEXING}
        for index, count in self.entries:
            doc[str(index)] = count
        return doc

    @classmethod
    def from_json(cls, data: object) -> "PartialConstraint":
        if not isinstance(data, dict):
            raise ValueError("constraint JSON must be an object")
        doc = dict(data)
        indexing = doc.pop("indexing", None)
        if indexing != CONSTRAINT_INDEXING:
            raise ValueError(f'constraint JSON must carry "indexing": "{CONSTRAINT_INDEXING}"')
        for key in doc:
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise ValueError(f"constraint index must be a decimal integer, got {key!r}")
        return cls((int(key), value) for key, value in doc.items())


def _check_modulus(k: int) -> None:
    if as_uint(k, "modulus") < 2:
        raise ValueError("remainder boards start at modulus 2")
    if k - 1 > MAX_BOARD_BINS:
        raise OverflowError(f"a remainder board to modulus {k} passes the budget of {MAX_BOARD_BINS} bins")


def remainder_board(n: int, k: int) -> RemainderBoard:
    """Residues of n modulo 2..k."""
    as_uint(n, "stone count")
    _check_modulus(k)
    return RemainderBoard._trusted(tuple(n % i for i in range(2, k + 1)), n)


def increasing_remainder_board(n: int, k: int) -> IncreasingRemainderBoard:
    """Minimal weakly increasing sequence matching n modulo 2..k."""
    as_uint(n, "stone count")
    _check_modulus(k)
    values = []
    previous = 0
    for i in range(2, k + 1):
        previous += (n - previous) % i
        values.append(previous)
    return IncreasingRemainderBoard._trusted(tuple(values))


def board_from_increasing(lift: IncreasingRemainderBoard) -> Board:
    """Recover bins as successive differences of an increasing remainder board."""
    diffs = []
    previous = 0
    for value in lift.values:
        diffs.append(value - previous)
        previous = value
    # A lift need not come from a winning board, so the board stays unknown.
    return Board._trusted(tuple(diffs))


def shifted_prefix(board: Board, k: int) -> tuple[int, ...]:
    """Bins 1..k-1 of a core board, re-indexed to the shifted convention m_2..m_k."""
    if as_uint(k, "prefix index") < 2:
        raise ValueError("prefixes start at index 2")
    if k - 1 > MAX_BOARD_BINS:
        raise OverflowError(f"a prefix to index {k} passes the budget of {MAX_BOARD_BINS} bins")
    bins = board.bins[: k - 1]
    return bins + (0,) * (k - 1 - len(bins))


def board_from_shifted(values: Iterable[int]) -> Board:
    """Interpret (m_2, ..., m_k) as core bins 1..k-1."""
    return Board(tuple(values))


def _violating_pair(system: list[Congruence]) -> tuple[Congruence, Congruence]:
    # The first clashing pair (p, q) in index order, for a system that
    # clashes.  Fold it again, keeping the solution of each prefix, up to
    # the first congruence f that clashes with its prefix.  Congruences
    # that agree pairwise agree as a system, so p < f <= q, and q clashes
    # with one of system[:t+1] exactly when it clashes with prefix[t], their
    # solution: a bisection over the prefix solutions finds each q's first p.
    # The probe is the gcd test alone, as a merge could pass the period budget.
    prefix = [(system[0].residue, system[0].modulus)]
    for congruence in system[1:]:
        merged = _merge(*prefix[-1], congruence.residue, congruence.modulus)
        if merged is None:
            break
        prefix.append(merged)
    p = q = f = len(prefix)
    for j in range(f, len(system)):
        if p == 0:
            break  # no later pair comes first
        value, i = system[j].residue, system[j].modulus
        lo, hi = 0, p
        while lo < hi:
            mid = (lo + hi) // 2
            residue, modulus = prefix[mid]
            if (value - residue) % math.gcd(modulus, i):
                hi = mid
            else:
                lo = mid + 1
        if lo < p:
            p, q = lo, j
    return system[p], system[q]


def _step(modulus: int, i: int) -> tuple[int, int, int, int]:
    # The part of folding n = value (mod i) into n = residue (mod modulus)
    # that depends on the moduli alone: g = gcd(modulus, i), step = i / g,
    # the inverse of modulus / g modulo step, and the merged period, which
    # must stay within 128 bits.  The part that depends on the values is one
    # line, in _merge and in the search: for residue in [0, modulus) and
    # value = residue (mod g), the merged residue is
    # residue + modulus * ((value - residue) / g * inverse % step).
    g = math.gcd(modulus, i)
    step = i // g
    return g, step, pow(modulus // g, -1, step), as_uint(modulus * step, "congruence system period")


def _merge(residue: int, modulus: int, value: int, i: int) -> tuple[int, int] | None:
    # The merged (residue, period), or None when the two congruences clash
    # modulo their gcd.  The clash is tested first, so it is reported even
    # where the period would pass 128 bits.
    if (value - residue) % math.gcd(modulus, i):
        return None
    g, step, inverse, period = _step(modulus, i)
    return residue + modulus * ((value - residue) // g * inverse % step), period


def crt_solve(system: Iterable[Congruence]) -> tuple[int, int]:
    """Solve simultaneous congruences with arbitrary (non-coprime) moduli.

    Returns (minimal non-negative solution, lcm of the moduli).  Raises
    Infeasible with a violating pair of congruences when residues clash
    modulo a common divisor, and OverflowError when the lcm leaves the
    128-bit range.
    """
    system = list(system)
    if not system:
        raise ValueError("empty congruence system")
    residue, modulus = system[0].residue, system[0].modulus
    for congruence in system[1:]:
        merged = _merge(residue, modulus, congruence.residue, congruence.modulus)
        if merged is None:
            pair = _violating_pair(system)
            raise Infeasible(
                f"congruences disagree: {pair[0]} vs {pair[1]} "
                f"(mod gcd {math.gcd(pair[0].modulus, pair[1].modulus)})",
                witness=pair,
            )
        residue, modulus = merged
    return residue, modulus


def prime_power_divisors(i: int, cap: int = FACTORING_CAP) -> list[int]:
    """Nontrivial proper divisors of i that are prime powers, ascending.

    Factors i once: each prime p up to the square root of what is left
    contributes p, p^2, ... while they divide i, and a prime factor left
    over contributes itself.  The list is empty exactly when i is prime
    (or below 2).  Raises OverflowError, before dividing, for an index
    above *cap*.
    """
    if as_uint(i, "index") > as_uint(cap, "index cap"):
        raise OverflowError(f"index {i} is beyond the budget of {cap} for factoring")
    return _prime_powers(i)


def _prime_powers(i: int) -> list[int]:  # for an index the caller has bounded
    found, rest = [], i
    for p in range(2, i):
        if p * p > rest:
            break
        power = p
        while rest % p == 0:
            found.append(power)
            rest //= p
            power *= p
    if rest > 1:
        found.append(rest)
    return sorted(d for d in found if d < i)


def consistency_conditions(k: int, cap: int = CONDITIONS_CAP) -> list[tuple[int, int]]:
    """All window conditions (i, d) active on prefixes m_2..m_k.

    Condition (i, d) requires m_i + m_{i-1} + ... + m_{i-d+1} to be
    divisible by d, for each nontrivial proper prime-power divisor d of i.
    There are about 3.4 per index, so a prefix index above *cap* is
    refused with OverflowError before any is listed.
    """
    if as_uint(k, "prefix index") < 2:
        raise ValueError("prefixes start at index 2")
    if k > as_uint(cap, "prefix cap"):
        raise OverflowError(f"the window conditions up to index {k} pass the budget of {cap} indices")
    return [(i, d) for i in range(2, k + 1) for d in _prime_powers(i)]


def allowable_check(values: Iterable[int]) -> tuple[bool, list[tuple[int, int]]]:
    """Check every window condition on a full prefix m_2..m_k.

    Returns (all hold, list of violated (i, d) pairs).  A prefix that
    reaches past index ``CONDITIONS_CAP`` is refused with OverflowError,
    as :func:`consistency_conditions` refuses it, before any count is read.
    """
    values = tuple(values)
    k = len(values) + 1
    if k > CONDITIONS_CAP:
        raise OverflowError(f"the window conditions up to index {k} pass the budget of {CONDITIONS_CAP} indices")
    for offset, count in enumerate(values):
        index = offset + 2
        if as_uint(count, f"count at index {index}") >= index:
            raise ValueError(f"count {count} out of range [0, {index}) at index {index}")
    total = list(accumulate(values, initial=0))  # total[j] sums values[:j]
    conditions = ((i, d) for i in range(2, k + 1) for d in _prime_powers(i))
    violations = [(i, d) for i, d in conditions if (total[i - 1] - total[i - d - 1]) % d]
    return not violations, violations


def complete_constraints(pc: PartialConstraint) -> Iterator[tuple[int, ...]]:
    """All allowable full prefixes m_2..m_K extending the constraint.

    K is the highest constrained index; the empty constraint has K = 0
    and the one completion ().

    Assigns indices in increasing order, smaller counts first, so the
    order is deterministic.  Each node carries the prefix total and the
    solution n = residue (mod lcm(2..i-1)) of the congruences so far;
    index i may take exactly the counts c with total + c = residue modulo
    g = gcd(lcm(2..i-1), i), which by the allowable-realizable theorem are
    exactly the counts whose window conditions hold.  A constrained index
    keeps its count only if it is among them.  The modulus at index i is
    the same on every branch, so g, the inverse that folds a count in and
    the next period are made once per index, on first reaching it; a node
    then folds in each count with one multiply-add.  Yields nothing when
    the constraint is infeasible, and raises OverflowError on reaching
    index 89, where lcm(2..89) leaves the 128-bit range.  A branch that
    clashes only at a late constrained index can backtrack through
    exponentially many prefixes, so the search raises RuntimeError once it
    visits more than MAX_SEARCH_NODES nodes before its next completion.

    A window the constraint pins whole is checked first: the search
    notices a broken one only at its last index, after trying every
    allowable prefix below it.  Windows ending at 89 or above are left to
    the search, which raises OverflowError at 89 before it reaches them.
    """
    fixed = pc.as_dict()
    for i, _ in pc.entries:
        if i - 1 <= MAX_PERIOD_INDEX and i - 1 in fixed:
            for d in _prime_powers(i):
                window = range(i - d + 1, i + 1)
                if all(j in fixed for j in window) and sum(fixed[j] for j in window) % d:
                    return
    top = pc.max_index
    values: list[int] = []
    steps: list[tuple[int, int, int, int]] = []  # steps[i - 2]: _step(lcm(2..i-1), i)
    nodes = 0

    def extend(i: int, total: int, residue: int, modulus: int) -> Iterator[tuple[int, ...]]:
        nonlocal nodes
        if i > top:
            nodes = 0
            yield tuple(values)
            return
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise RuntimeError(f"the completion search exceeded its budget of {MAX_SEARCH_NODES} nodes")
        if len(steps) < i - 1:
            steps.append(_step(modulus, i))
        g, step, inverse, period = steps[i - 2]
        choices = range((residue - total) % g, i, g)
        if i in fixed:
            choices = (fixed[i],) if fixed[i] in choices else ()
        for count in choices:
            values.append(count)
            t = (total + count - residue) // g * inverse % step
            yield from extend(i + 1, total + count, residue + modulus * t, period)
            values.pop()

    yield from extend(2, 0, 0, 1)


def _solve_completions(completions: Iterable[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], int, int]]:
    # Each completion with (minimal solution, period) of its congruences
    # n = m_2 + ... + m_j (mod j).  Completions in search order share all
    # but their last few counts, so the fold of each prefix is kept on a
    # stack, and a completion is folded only from the first index where it
    # differs from the one before.
    previous: tuple[int, ...] = ()
    folded = [(0, 1, 0)]  # folded[j]: (residue, period, total) over the first j counts
    for completion in completions:
        j = min(len(completion), len(previous))
        while completion[:j] != previous[:j]:
            j -= 1
        del folded[j + 1 :]
        residue, modulus, total = folded[-1]
        for i, count in enumerate(completion[j:], j + 2):
            total += count
            residue, modulus = _merge(residue, modulus, total, i)
            folded.append((residue, modulus, total))
        previous = completion
        yield completion, residue, modulus


def reconstruct(pc: PartialConstraint) -> tuple[int, Board]:
    """A winning board agreeing with the constraint, from the first completion.

    The result is minimal for that completion's congruence system, not
    necessarily over all completions; see :func:`reconstruct_minimal`.
    """
    for _, n, _ in _solve_completions(complete_constraints(pc)):
        return n, board_from_stones(n)
    raise Infeasible(f"no allowable completion extends {pc.as_dict()}", witness=pc)


def reconstruct_minimal(pc: PartialConstraint, cap: int = COMPLETION_CAP) -> tuple[int, Board]:
    """The smallest stone count whose winning board agrees with the constraint
    and is long enough to contain every constrained bin.

    A constraint of 0 at the top index means that bin is empty on the
    board, not that the board stops short of it; this only matters when
    the highest constrained count is 0, since any nonzero constraint
    forces the board out that far anyway.

    Minimizes the congruence solution over every allowable completion; by
    the lcm periodicity of agreement, per-completion minimal solutions
    suffice.  The one class member too short to contain the top bin is
    the board equal to the completion itself, recognizable by its stone
    total.  Raises RuntimeError if more than *cap* completions exist;
    *cap* must be an integer in the 128-bit range, checked before the
    search.
    """
    as_uint(cap, "completion cap")
    best_n: int | None = None
    for count, (completion, n, period) in enumerate(_solve_completions(complete_constraints(pc)), 1):
        if count > cap:
            raise RuntimeError(f"completion cap {cap} exceeded for {pc.as_dict()}")
        if completion[-1:] == (0,) and n == sum(completion):
            n += period
        if best_n is None or n < best_n:
            best_n = n
    if best_n is None:
        raise Infeasible(f"no allowable completion extends {pc.as_dict()}", witness=pc)
    return best_n, board_from_stones(best_n)


def prime_reconstruct(pc: PartialConstraint) -> tuple[int, Board]:
    """Reconstruction for constraints whose indices are all prime.

    Such constraints never conflict, and the search never backtracks on
    them: a prime index p shares no factor with lcm(2..p-1), so any count
    fits there, and an unconstrained index always has a fitting count.
    The result is that of :func:`reconstruct`, which takes the smallest
    fitting count at every unconstrained index.

    An index from 89 on is not tested: the search refuses the constraint
    with OverflowError at index 89 first.
    """
    for index, _ in pc.entries:
        if index - 1 <= MAX_PERIOD_INDEX and _prime_powers(index):
            raise ValueError(f"prime_reconstruct requires prime indices, got {index}")
    return reconstruct(pc)

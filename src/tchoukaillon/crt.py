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
that keep them solvable.  Every congruence, in the search and in the
one fold of :func:`crt_solve`, is folded in by the same merge step, in two
parts: one that depends on the moduli alone (a gcd, a modular inverse and
the checked period) and one line that folds in the value.  The running
modulus at index i is lcm(2..i-1) on every branch, so the first part
depends on i alone: the table of it for indices 2..88 is built once at
import, and a node of the search costs one multiply-add.  The search is
one loop over an explicit stack that holds a record only where an index
has a count left to try, and it solves each completion's congruences at
its last node, so :func:`reconstruct` reads n straight from it.  Only
:func:`reconstruct_minimal` solves the completions again, from the prefix
each shares with the one before, with the same table.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate, compress
from operator import ne

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


def _violating_pair(
    system: list[Congruence], f: int, changes: list[tuple[int, int, int]]
) -> tuple[Congruence, Congruence]:
    # The first clashing pair (p, q) in index order.  The fold stopped at
    # the first congruence f that clashes with its prefix, and changes[k]
    # = (t, residue, period) solves system[:u+1] for t <= u < f up to the
    # next change point.  Congruences that agree pairwise agree as a
    # system, so p < f <= q, and q clashes with one of system[:u+1] exactly
    # when it clashes with their solution.  That solution changes only at
    # the change points, so the first u whose solution q clashes with is
    # one of them, and it is q's first p: a bisection over the change
    # points finds it.  The probe is the gcd test alone, as a merge could
    # pass the period budget.
    p = q = f
    before = len(changes)  # the change points before p
    for j in range(f, len(system)):
        if not before:
            break  # no later pair comes first
        value, i = system[j].residue, system[j].modulus
        lo, hi = 0, before
        while lo < hi:
            mid = (lo + hi) // 2
            _, residue, period = changes[mid]
            if (value - residue) % math.gcd(period, i):
                hi = mid
            else:
                lo = mid + 1
        if lo < before:
            before = lo
            p, q = changes[lo][0], j
    return system[p], system[q]


def _step(modulus: int, i: int, g: int) -> tuple[int, int, int, int]:
    # The part of folding n = value (mod i) into n = residue (mod modulus)
    # that depends on the moduli alone, given g = gcd(modulus, i): g,
    # step = i / g, the inverse of modulus / g modulo step, and the merged
    # period, which must stay within 128 bits.  The part that depends on the
    # values is one line, in crt_solve's fold, the search and the solver:
    # for residue in [0, modulus) and value = residue (mod g), the merged
    # residue is residue + modulus * ((value - residue) / g * inverse % step).
    step = i // g
    return g, step, pow(modulus // g, -1, step), as_uint(modulus * step, "congruence system period")


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
    # changes[k] = (t, residue, period): the solution of system[:t+1], kept
    # only where it changes.  A merge whose modulus i divides the period
    # leaves residue and period as they were; any other at least doubles
    # the period within 128 bits, so there are at most 128 entries.  The
    # clash is tested before the step is made, so it is reported even
    # where the period would pass 128 bits.
    residue, modulus = system[0].residue, system[0].modulus
    changes = [(0, residue, modulus)]
    for t in range(1, len(system)):
        value, i = system[t].residue, system[t].modulus
        g = math.gcd(modulus, i)
        if (value - residue) % g:
            pair = _violating_pair(system, t, changes)
            raise Infeasible(
                f"congruences disagree: {pair[0]} vs {pair[1]} "
                f"(mod gcd {math.gcd(pair[0].modulus, pair[1].modulus)})",
                witness=pair,
            )
        _, step, inverse, period = _step(modulus, i, g)
        if step > 1:
            residue += modulus * ((value - residue) // g * inverse % step)
            modulus = period
            changes.append((t, residue, modulus))
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
    keeps its count only if it is among them.  Yields nothing when
    the constraint is infeasible, and raises OverflowError on reaching
    index 89, where lcm(2..89) leaves the 128-bit range.  A branch that
    clashes only at a late constrained index can backtrack through
    exponentially many prefixes, so the search raises RuntimeError once it
    visits more than MAX_SEARCH_NODES nodes before its next completion.

    A window the constraint pins whole is checked first: the search
    notices a broken one only at its last index, after trying every
    allowable prefix below it.  Windows ending at 89 or above are left to
    the search, which raises OverflowError at 89 before it reaches them.

    The search also solves each completion's congruences at its last
    node; this generator passes on the completions alone.
    """
    for completion, _, _ in _search(pc):
        yield completion


def _search(pc: PartialConstraint) -> Iterator[tuple[tuple[int, ...], int, int]]:
    # The completions of complete_constraints, each with (minimal solution,
    # period) of its congruences n = m_2 + ... + m_j (mod j), from one loop
    # over an explicit stack.  The modulus at index i is lcm(2..i-1) on
    # every branch, so g, the inverse that folds a count in and the next
    # period come from the table built once at import, and a count is
    # folded in with one multiply-add.  Index i is offered
    # range((residue - total) % g, i, g).  Only an unconstrained index with
    # g < i has more than one count (g divides i, so then at least two); it
    # pushes a branch record [index, next count, total, residue, modulus].
    # Every other index takes its one count, or at a constrained index
    # none, and pushes nothing: that covers each index that is not a prime
    # power, where g = i.  After a completion or a dead end the loop
    # resumes the last record, truncating the values to its depth, and
    # drops the record when it takes its last count.
    fixed = pc.as_dict()
    for i, _ in pc.entries:
        if i - 1 <= MAX_PERIOD_INDEX and i - 1 in fixed:
            for d in _prime_powers(i):
                window = range(i - d + 1, i + 1)
                if all(j in fixed for j in window) and sum(fixed[j] for j in window) % d:
                    return
    top = pc.max_index
    if not top:
        yield (), 0, 1
        return
    budget, steps, last = MAX_SEARCH_NODES, _STEPS, len(_STEPS) + 1
    values: list[int] = []
    branches: list[list[int]] = []
    nodes = 0
    i, total, residue, modulus = 2, 0, 0, 1
    while True:
        nodes += 1
        if nodes > budget:
            raise RuntimeError(f"the completion search exceeded its budget of {budget} nodes")
        # Past the table, making the step of index 89 raises OverflowError.
        g, step, inverse, period = steps[i - 2] if i <= last else _step(modulus, i, math.gcd(modulus, i))
        count = (residue - total) % g
        pinned = fixed.get(i)
        if pinned is None:
            if count + g < i:
                branches.append([i, count + g, total, residue, modulus])
        elif pinned % g == count and i < top:
            count = pinned
        else:
            if pinned % g == count:  # the top index: a completion
                values.append(pinned)
                nodes = 0
                yield tuple(values), residue + modulus * ((total + pinned - residue) // g * inverse % step), period
            if not branches:
                return
            branch = branches[-1]
            i, count, total, residue, modulus = branch
            g, step, inverse, period = steps[i - 2]
            if count + g < i:
                branch[1] = count + g
            else:
                branches.pop()
            del values[i - 2 :]
        values.append(count)
        total += count
        residue += modulus * ((total - residue) // g * inverse % step)
        modulus = period
        i += 1


def _steps(top: int) -> list[tuple[int, int, int, int]]:
    # The step of each index i = 2..top over the modulus lcm(2..i-1).
    steps, modulus = [], 1
    for i in range(2, top + 1):
        steps.append(_step(modulus, i, math.gcd(modulus, i)))
        modulus = steps[-1][3]
    return steps


_STEPS = tuple(_steps(MAX_PERIOD_INDEX + 1))  # _STEPS[i - 2]: the step of index i, for i = 2..88


def _solve_completions(completions: Iterable[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], int, int]]:
    # Each completion with (minimal solution, period) of its congruences
    # n = m_2 + ... + m_j (mod j).  The search knows these already; this
    # second fold stays for reconstruct_minimal alone, which draws its
    # completions through the module attribute complete_constraints, so
    # that a tracer replacing that attribute sees and counts every one.
    # Completions in search order share all but their last few counts, so
    # the fold of each prefix is kept on a stack, and a completion is
    # folded only from the first index where it differs from the one
    # before, found by one C-level scan.  As in the search, each fold takes
    # its index's step from the table built once at import, so it is one
    # multiply-add.  The completions are allowable, so every fold is
    # solvable.
    previous: tuple[int, ...] = ()
    folded = [(0, 1, 0)]  # folded[j]: (residue, period, total) over the first j counts
    for completion in completions:
        shared = min(len(completion), len(previous))
        j = next(compress(range(shared), map(ne, completion, previous)), shared)
        del folded[j + 1 :]
        residue, modulus, total = folded[-1]
        for (g, step, inverse, period), value in zip(_STEPS[j : len(completion)], completion[j:]):
            total += value
            residue += modulus * ((total - residue) // g * inverse % step)
            modulus = period
            folded.append((residue, modulus, total))
        previous = completion
        yield completion, residue, modulus


def reconstruct(pc: PartialConstraint) -> tuple[int, Board]:
    """A winning board agreeing with the constraint, from the first completion.

    The result is minimal for that completion's congruence system, not
    necessarily over all completions; see :func:`reconstruct_minimal`.
    n is the solution the search has folded by that completion's last
    node.
    """
    for _, n, _ in _search(pc):
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

"""Slow reference implementations of the reconstruction search.

These are the forms that the library's congruence-carrying search
replaced: backtracking over every count 0..i-1 at each index, pruned by
re-summing each prime-power window that ends there; a solve that builds
one ``Congruence`` per prefix sum and folds them pairwise; the greedy
fill for prime-index constraints, which takes at each composite index the
smallest count meeting its window congruences; the prime-power
divisors found by testing every d < i, where the library factors i once;
and the window check that re-sums each window, where the library takes
differences of one running prefix sum.  ``complete_recursive`` is the
library's congruence-carrying search written with one recursive
generator per index, each completion passed up through every level,
node budget included; the library runs it as one loop over an explicit
stack.
The differential tests compare the library against them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from tchoukaillon import Board, Congruence, Infeasible, PartialConstraint, board_from_stones
from tchoukaillon import crt
from tchoukaillon.checked import as_uint
from tchoukaillon.checked import COMPLETION_CAP, MAX_PERIOD_INDEX
from tchoukaillon.crt import _STEPS, _prime_powers, _solve_completions, _step


def _violating_pair(system: list[Congruence]) -> tuple[Congruence, Congruence]:
    for p in range(len(system)):
        for q in range(p + 1, len(system)):
            g = math.gcd(system[p].modulus, system[q].modulus)
            if (system[p].residue - system[q].residue) % g:
                return system[p], system[q]
    raise AssertionError("merge failed but all pairs are compatible")


def crt_solve_pairwise(system: Iterable[Congruence]) -> tuple[int, int]:
    """Fold the congruences left to right; on a clash, name the first clashing pair."""
    system = list(system)
    if not system:
        raise ValueError("empty congruence system")
    residue, modulus = system[0].residue, system[0].modulus
    for congruence in system[1:]:
        g = math.gcd(modulus, congruence.modulus)
        if (congruence.residue - residue) % g:
            pair = _violating_pair(system)
            raise Infeasible(
                f"congruences disagree: {pair[0]} vs {pair[1]} "
                f"(mod gcd {math.gcd(pair[0].modulus, pair[1].modulus)})",
                witness=pair,
            )
        lcm = modulus // g * congruence.modulus
        as_uint(lcm, "congruence system period")
        step = congruence.modulus // g
        t = 0
        if step > 1:
            t = ((congruence.residue - residue) // g * pow(modulus // g, -1, step)) % step
        residue = (residue + modulus * t) % lcm
        modulus = lcm
    return residue, modulus


def _is_prime_power(d: int) -> bool:
    if d < 2:
        return False
    p = 2
    while p * p <= d:
        if d % p == 0:
            while d % p == 0:
                d //= p
            return d == 1
        p += 1
    return True  # d itself is prime


def prime_power_divisors(i: int) -> list[int]:
    """Nontrivial proper divisors of i that are prime powers, by testing every d < i."""
    return [d for d in range(2, i) if i % d == 0 and _is_prime_power(d)]


def consistency_conditions(k: int) -> list[tuple[int, int]]:
    """Every window condition (i, d) with 2 <= i <= k."""
    return [(i, d) for i in range(2, k + 1) for d in prime_power_divisors(i)]


def _window_conditions_hold(values: list[int], i: int) -> bool:
    # values holds m_2..m_i; check all conditions whose window ends at i.
    for d in prime_power_divisors(i):
        if sum(values[i - d - 1 : i - 1]) % d:
            return False
    return True


def window_violations(values: list[int]) -> list[tuple[int, int]]:
    """The window conditions (i, d) that the prefix m_2..m_k breaks, each window re-summed."""
    return [(i, d) for i, d in consistency_conditions(len(values) + 1) if sum(values[i - d - 1 : i - 1]) % d]


def complete_by_windows(pc: PartialConstraint) -> Iterator[tuple[int, ...]]:
    """Allowable prefixes extending *pc*, smallest counts first, pruned by window sums."""
    if not pc.entries:
        yield ()
        return
    fixed = pc.as_dict()
    top = pc.max_index
    values: list[int] = []

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i > top:
            yield tuple(values)
            return
        choices = (fixed[i],) if i in fixed else range(i)
        for count in choices:
            values.append(count)
            if _window_conditions_hold(values, i):
                yield from extend(i + 1)
            values.pop()

    yield from extend(2)


def solve_completion(completion: tuple[int, ...]) -> tuple[int, int]:
    """(minimal n, period) with n = m_2 + ... + m_j (mod j) for every j."""
    system = []
    total = 0
    for offset, count in enumerate(completion):
        modulus = offset + 2
        total += count
        system.append(Congruence(total % modulus, modulus))
    return crt_solve_pairwise(system)


def _realize(completion: tuple[int, ...]) -> tuple[int, Board]:
    if not completion:
        return 0, Board()
    n, _ = solve_completion(completion)
    return n, board_from_stones(n)


def reconstruct(pc: PartialConstraint) -> tuple[int, Board]:
    for completion in complete_by_windows(pc):
        return _realize(completion)
    raise Infeasible(f"no allowable completion extends {pc.as_dict()}", witness=pc)


def reconstruct_minimal(pc: PartialConstraint, cap: int = COMPLETION_CAP) -> tuple[int, Board]:
    if not pc.entries:
        return 0, Board()
    best_n: int | None = None
    count = 0
    for completion in complete_by_windows(pc):
        count += 1
        if count > cap:
            raise RuntimeError(f"completion cap {cap} exceeded for {pc.as_dict()}")
        n, period = solve_completion(completion)
        if completion[-1] == 0 and n == sum(completion):
            n += period
        if best_n is None or n < best_n:
            best_n = n
    if best_n is None:
        raise Infeasible(f"no allowable completion extends {pc.as_dict()}", witness=pc)
    return best_n, board_from_stones(best_n)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def _greedy_fill(values: list[int], i: int) -> int | None:
    # Smallest m_i in [0, i) meeting every window condition ending at i;
    # values holds m_2..m_{i-1}.
    system = []
    for d in prime_power_divisors(i):
        rest = sum(values[i - d - 1 : i - 2])
        system.append(Congruence((-rest) % d, d))
    if not system:
        return 0
    try:
        solution, _ = crt_solve_pairwise(system)
    except Infeasible:
        return None
    return solution if solution < i else None


def greedy_prime_completion(pc: PartialConstraint) -> tuple[int, ...] | None:
    """The greedy fill of a prime-index constraint, or None at a dead end."""
    fixed = pc.as_dict()
    values: list[int] = []
    for i in range(2, pc.max_index + 1):
        if i in fixed:
            count = fixed[i]
        elif _is_prime(i):
            count = 0
        else:
            count = _greedy_fill(values, i)
            if count is None:
                return None
        values.append(count)
    return tuple(values)


def prime_reconstruct(pc: PartialConstraint) -> tuple[int, Board]:
    """Greedy fill of the composite gaps, falling back to full backtracking."""
    for index, _ in pc.entries:
        if not _is_prime(index):
            raise ValueError(f"prime_reconstruct requires prime indices, got {index}")
    if not pc.entries:
        return 0, Board()
    completion = greedy_prime_completion(pc)
    if completion is None:
        return reconstruct(pc)
    return _realize(completion)


def complete_recursive(pc: PartialConstraint, budget: float | None = None) -> Iterator[tuple[int, ...]]:
    """The completions of *pc* by one recursive generator per index.

    Counts nodes against *budget*, by default ``crt.MAX_SEARCH_NODES``
    read when the search starts, as the library does: from the start or
    the last completion.
    The generator's return value is the smallest budget it runs to its
    end with: the most nodes it visits before its first completion,
    between two, or after its last.
    """
    fixed = pc.as_dict()
    for i, _ in pc.entries:
        if i - 1 <= MAX_PERIOD_INDEX and i - 1 in fixed:
            for d in _prime_powers(i):
                window = range(i - d + 1, i + 1)
                if all(j in fixed for j in window) and sum(fixed[j] for j in window) % d:
                    return 0
    top = pc.max_index
    if not top:
        yield ()
        return 0
    if budget is None:
        budget = crt.MAX_SEARCH_NODES
    values: list[int] = []
    nodes = peak = 0

    def extend(i: int, total: int, residue: int, modulus: int) -> Iterator[tuple[int, ...]]:
        nonlocal nodes, peak
        nodes += 1
        if nodes > budget:
            raise RuntimeError(f"the completion search exceeded its budget of {budget} nodes")
        g, step, inverse, period = _STEPS[i - 2] if i - 2 < len(_STEPS) else _step(modulus, i, math.gcd(modulus, i))
        choices = range((residue - total) % g, i, g)
        if i in fixed:
            choices = (fixed[i],) if fixed[i] in choices else ()
        if i == top:
            for count in choices:
                values.append(count)
                peak = max(peak, nodes)
                nodes = 0
                yield tuple(values)
                values.pop()
            return
        for count in choices:
            values.append(count)
            t = (total + count - residue) // g * inverse % step
            yield from extend(i + 1, total + count, residue + modulus * t, period)
            values.pop()

    yield from extend(2, 0, 0, 1)
    return max(peak, nodes)


def search_budget(pc: PartialConstraint) -> tuple[list[tuple[int, ...]], int]:
    """Every completion of the recursive search, and the smallest node budget it needs."""
    search = complete_recursive(pc, math.inf)
    completions = []
    while True:
        try:
            completions.append(next(search))
        except StopIteration as stop:
            return completions, stop.value


def reconstruct_recursive(pc: PartialConstraint) -> tuple[int, Board]:
    """The first completion of the recursive search, solved by a second fold."""
    for _, n, _ in _solve_completions(complete_recursive(pc)):
        return n, board_from_stones(n)
    raise Infeasible(f"no allowable completion extends {pc.as_dict()}", witness=pc)

"""The congruence-carrying reconstruction search against the window-pruned oracle.

``complete_constraints`` offers each index only the counts that keep the
prefix-sum congruences solvable; by the allowable-realizable theorem that
is the tree the window-sum backtracking in ``crt_oracle`` walks, in the
same order.  Completion lists, ``reconstruct``, ``reconstruct_minimal``
(its cap included), ``prime_reconstruct``, ``crt_solve`` and the
prime-power window conditions must agree with the oracle exactly,
``Infeasible`` messages and witnesses included.  The search, its node
budget and ``reconstruct`` are also compared with the same search
written as one recursive generator per index, ``crt_oracle.complete_recursive``.
"""

import math
import random
import time
from collections import Counter

import pytest

import crt_oracle as oracle
from tchoukaillon import (
    Congruence,
    Infeasible,
    PartialConstraint,
    allowable_check,
    board_from_stones,
    complete_constraints,
    consistency_conditions,
    crt_solve,
    prime_reconstruct,
    reconstruct,
    reconstruct_minimal,
)
from tchoukaillon import core as core_module
from tchoukaillon import crt as crt_module
from tchoukaillon.crt import _STEPS, _solve_completions, _steps, prime_power_divisors

PRIMES = [p for p in range(2, 32) if all(p % q for q in range(2, p))]


def outcome(fn, *args, **kwargs):
    """A result or a raised error, in a form two implementations can be compared in."""
    try:
        n, board = fn(*args, **kwargs)
    except (Infeasible, ValueError, OverflowError, RuntimeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return "ok", n, board.bins


def assert_same(pc: PartialConstraint) -> list[tuple[int, ...]]:
    completions = list(complete_constraints(pc))
    assert completions == list(oracle.complete_by_windows(pc)), pc
    solved = [(c, *oracle.solve_completion(c)) for c in completions]
    assert list(_solve_completions(completions)) == solved, pc
    assert outcome(reconstruct, pc) == outcome(oracle.reconstruct, pc), pc
    assert outcome(reconstruct_minimal, pc) == outcome(oracle.reconstruct_minimal, pc), pc
    return completions


SINGLES = [(i, v) for i in range(2, 10) for v in range(i)]


@pytest.mark.parametrize("index, count", SINGLES)
def test_every_single_constraint_up_to_nine(index, count):
    pc = PartialConstraint({index: count})
    completions = assert_same(pc)
    for cap in {1, len(completions) - 1, len(completions)} - {0}:
        got = outcome(reconstruct_minimal, pc, cap=cap)
        assert got == outcome(oracle.reconstruct_minimal, pc, cap=cap), (pc, cap)
        assert (got[0] == "RuntimeError") == (cap < len(completions))


def test_seeded_constraints_up_to_eleven():
    rng = random.Random(1112)
    infeasible = 0
    for _ in range(150):
        top = rng.randint(2, 11)
        others = rng.sample(range(2, top), min(rng.randint(0, 3), top - 2))
        pc = PartialConstraint({i: rng.randrange(i) for i in [top] + others})
        if not assert_same(pc):
            infeasible += 1
    assert 10 < infeasible < 140  # both kinds of answer are exercised


def pinned_runs(rng, low: int, high: int) -> dict[int, int]:
    """One or two runs of consecutive constrained indices between low and high."""
    entries = {}
    for _ in range(rng.randint(1, 2)):
        start = rng.randint(low, high - 1)
        for i in range(start, min(start + rng.randint(2, 5), high + 1)):
            entries[i] = rng.randrange(i)
    return entries


def test_seeded_pinned_windows_up_to_eleven():
    rng = random.Random(8911)
    infeasible = 0
    for _ in range(150):
        if not assert_same(PartialConstraint(pinned_runs(rng, 2, 11))):
            infeasible += 1
    assert 10 < infeasible < 140


def test_seeded_broken_pinned_windows_up_to_eighty_eight_end_promptly():
    # The oracle would walk every allowable prefix below these windows, so
    # here the answer is checked against the window conditions instead.
    rng = random.Random(4088)
    broken = 0
    for _ in range(200):
        entries = pinned_runs(rng, 30, 88)
        windows = [range(i - d + 1, i + 1) for i, d in consistency_conditions(max(entries))]
        if not any(
            all(j in entries for j in w) and sum(entries[j] for j in w) % len(w) for w in windows
        ):
            continue
        broken += 1
        start = time.perf_counter()
        assert outcome(reconstruct, PartialConstraint(entries))[0] == "Infeasible", entries
        assert time.perf_counter() - start < 0.5, entries
    assert 20 < broken < 180


def test_prime_power_divisors_against_the_scan():
    for i in range(5001):
        divisors = prime_power_divisors(i)
        assert divisors == oracle.prime_power_divisors(i), i
        assert (not divisors) == (i < 2 or oracle._is_prime(i)), i
    conditions = oracle.consistency_conditions(300)
    for k in range(2, 301):
        assert consistency_conditions(k) == [(i, d) for i, d in conditions if i <= k], k


def test_allowable_check_against_window_sums():
    rng = random.Random(5)
    bins = board_from_stones(10**10).bins
    prefixes = [[rng.randrange(i) for i in range(2, rng.randrange(2, 400))] for _ in range(100)]
    for k in (2, 50, 300, 1500):
        prefix = list(bins[: k - 1])
        prefixes.append(prefix)
        broken = prefix.copy()
        broken[-1] = (broken[-1] + 1) % k
        prefixes.append(broken)
    for values in prefixes:
        violations = oracle.window_violations(values)
        assert allowable_check(values) == (not violations, violations), values
    assert allowable_check(bins[:4999]) == (True, [])


def test_completion_cap_at_top_twelve():
    pc = PartialConstraint({12: 0})
    for cap in (1, 3, 50):
        assert outcome(reconstruct_minimal, pc, cap=cap) == outcome(oracle.reconstruct_minimal, pc, cap=cap)


@pytest.mark.parametrize(
    "entries",
    [{5: 1, 6: 2}, {6: 0, 7: 1, 8: 1, 10: 0}, {6: 0, 7: 1, 8: 1, 10: 1}, {11: 3, 12: 0}, {3: 1, 7: 2, 9: 3}, {11: 3}],
)
def test_named_cases(entries):
    assert_same(PartialConstraint(entries))


def drained(items, limit=None):
    """What an iterator yields, up to *limit* items, and the error that ends it, if any."""
    got = []
    try:
        for item in items:
            got.append(item)
            if len(got) == limit:
                break
    except (RuntimeError, OverflowError) as exc:
        return got, (type(exc).__name__, str(exc))
    return got, None


def test_search_against_the_recursive_search(monkeypatch):
    # The explicit-stack search yields what the recursive one did, and
    # runs with the same smallest node budget: at that budget it yields
    # every completion, and one below it is refused with the same message
    # after yielding a prefix of them.
    rng = random.Random(1616)
    refused = infeasible = 0
    for _ in range(3000):
        top = rng.randint(2, 16)
        others = rng.sample(range(2, top), min(rng.randint(3, 5), top - 2))
        pc = PartialConstraint({i: rng.randrange(i) for i in [top] + others})
        completions, budget = oracle.search_budget(pc)
        infeasible += not completions
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", budget)
        assert drained(complete_constraints(pc)) == (completions, None), pc
        if not budget:
            continue  # a pinned window the pre-check refuses: no node is visited
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", budget - 1)
        got, error = drained(complete_constraints(pc))
        assert error == ("RuntimeError", f"the completion search exceeded its budget of {budget - 1} nodes"), pc
        assert got == completions[: len(got)], pc
        refused += 1
    assert 500 < infeasible < 2500 and refused > 1500


def reconstruct_outcomes(monkeypatch, pc: PartialConstraint):
    # reconstruct against the recursive search's first completion, solved
    # by a second fold.  Both build their board
    # with board_from_stones, so the board budget is lowered to 2^18 bins
    # (n up to about 1.7e10): larger boards are refused at once, with the
    # same message on both routes.
    monkeypatch.setattr(core_module, "MAX_BOARD_BINS", 1 << 18)
    return outcome(reconstruct, pc), outcome(oracle.reconstruct_recursive, pc)


def test_reconstruct_against_the_recursive_route(monkeypatch):
    # 2-3 constraints at indices 8-39: answers, Infeasible, board refusals
    # and node-budget refusals (the budget lowered to 2^12 nodes, so that
    # they come quickly) must all agree.
    monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", 1 << 12)
    rng = random.Random(5)
    kinds = Counter()
    for _ in range(400):
        indices = rng.sample(range(8, 40), rng.randint(2, 3))
        pc = PartialConstraint({i: rng.randrange(i) for i in indices})
        got, expected = reconstruct_outcomes(monkeypatch, pc)
        assert got == expected, pc
        kinds[got[0] if got[0] != "OverflowError" else "board budget"] += 1
    assert min(kinds[kind] for kind in ("ok", "Infeasible", "RuntimeError", "board budget")) > 0, kinds


PINNED_N = 10**10  # its board has 177,244 bins, within the lowered board budget


@pytest.mark.parametrize(
    "entries, kind",
    [
        ({}, "ok"),
        ({88: 0}, "ok"),
        ({89: 0}, "OverflowError"),
        ({16: 3, 34: 10}, "RuntimeError"),
        (dict(enumerate(board_from_stones(PINNED_N).bins[:87], 2)), "ok"),
    ],
    ids=["empty", "88", "89", "16-34", "pinned-to-88"],
)
def test_named_cases_against_the_recursive_search(monkeypatch, entries, kind):
    monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", 1 << 12)
    pc = PartialConstraint(entries)
    # {88: 0} has more completions than can be listed: compare the first few
    assert drained(complete_constraints(pc), 5) == drained(oracle.complete_recursive(pc), 5)
    got, expected = reconstruct_outcomes(monkeypatch, pc)
    assert got == expected
    assert got[0] == kind
    if len(entries) == 87:
        assert got[1:] == (PINNED_N, board_from_stones(PINNED_N).bins)


def test_merge_step_at_every_index():
    # The search and the solver fold every count in with the step of
    # lcm(2..i-1) and i from the table built at import; each fold must be
    # what crt_solve makes of the pair, and the period carried to the next
    # index lcm(2..i).
    assert _STEPS == tuple(_steps(88))
    rng = random.Random(8889)
    modulus = 1
    for i, (g, step, inverse, period) in enumerate(_steps(88), 2):
        assert (g, period) == (math.gcd(modulus, i), math.lcm(*range(2, i + 1))), i
        for _ in range(20):
            residue = rng.randrange(modulus)
            value = rng.randrange(i * i)
            value += (residue - value) % g  # solvable: value = residue (mod g)
            folded = residue + modulus * ((value - residue) // g * inverse % step), period
            system = [Congruence(residue, modulus), Congruence(value % i, i)]
            assert folded == crt_solve(system), (i, residue, value)
            assert folded == oracle.crt_solve_pairwise(system), (i, residue, value)
        modulus = period
    refusals = []
    for refuse in (lambda: _steps(89), lambda: crt_solve([Congruence(0, modulus), Congruence(0, 89)]),
                   lambda: oracle.crt_solve_pairwise([Congruence(0, modulus), Congruence(0, 89)])):
        with pytest.raises(OverflowError) as refused:
            refuse()
        refusals.append(str(refused.value))
    assert refusals[0].startswith("congruence system period exceeds the 128-bit limit")
    assert refusals == refusals[:1] * 3


def test_prime_constraints_up_to_23_full_answers():
    rng = random.Random(2329)
    for _ in range(60):
        top = rng.choice(PRIMES[:9])
        chosen = {top} | set(rng.sample(PRIMES[: PRIMES.index(top)], min(2, PRIMES.index(top))))
        pc = PartialConstraint({p: rng.randrange(p) for p in chosen})
        assert outcome(prime_reconstruct, pc) == outcome(oracle.prime_reconstruct, pc), pc


def test_prime_constraints_up_to_31_completions():
    # boards at top 29 and 31 run to millions of bins, so compare the
    # completion the search takes first and its congruence solution
    rng = random.Random(3131)
    for _ in range(300):
        chosen = rng.sample(PRIMES, rng.randint(1, 4))
        pc = PartialConstraint({p: rng.randrange(p) for p in chosen})
        greedy = oracle.greedy_prime_completion(pc)
        assert greedy is not None, pc  # the greedy fill never needs its fallback
        assert next(complete_constraints(pc)) == greedy, pc
        assert next(_solve_completions([greedy])) == (greedy, *oracle.solve_completion(greedy))


@pytest.mark.parametrize("entries", [{}, {4: 1}, {9: 0}, {2: 1, 4: 0}])
def test_prime_reconstruct_refusals(entries):
    pc = PartialConstraint(entries)
    assert outcome(prime_reconstruct, pc) == outcome(oracle.prime_reconstruct, pc)


def solved(solve, system):
    try:
        return "ok", solve(system)
    except (Infeasible, OverflowError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)


def test_crt_solve_against_pairwise_fold():
    rng = random.Random(4040)
    clashes = overflows = 0
    for _ in range(600):
        moduli = [rng.randint(1, 60) for _ in range(rng.randint(1, 6))]
        # Moduli whose period with the rest can pass 128 bits, at any place:
        # a clash found before the fold overflows is still named.
        moduli += rng.choice([[]] * 6 + [[3**80], [2**70], [3**80, 2**70]])
        rng.shuffle(moduli)
        x = rng.randrange(math.lcm(*moduli))
        system = [Congruence(x % m, m) for m in moduli]
        k = rng.randrange(len(system))
        if rng.random() < 0.5:
            system[k] = Congruence(rng.randrange(moduli[k]), moduli[k])
        got = solved(crt_solve, system)
        assert got == solved(oracle.crt_solve_pairwise, system), system
        clashes += got[0] == "Infeasible"
        overflows += got[0] == "OverflowError"
    assert 50 < clashes < 300
    assert overflows > 10


def test_crt_solve_period_refusal_matches():
    for system in [
        [Congruence(0, 2**70), Congruence(1, 3**50)],
        # 1 mod 2 clashes with 0 mod 4; 0 mod 3^80 agrees with both, but its
        # period with 0 mod 4 passes 128 bits, so it is probed, never merged.
        [Congruence(0, 4), Congruence(1, 2), Congruence(0, 3**80)],
        # The first clash, (0 mod 3, 1 mod 3), is not at index 0, so 0 mod 3^80
        # is probed against 0 mod 4, with which its period passes 128 bits.
        [Congruence(0, 4), Congruence(0, 3), Congruence(1, 3), Congruence(0, 3**80)],
        # The clash (mod 3) and a period past 128 bits come at the same
        # merge: the clash is named.
        [Congruence(0, 3 * 2**70), Congruence(1, 3**80)],
    ]:
        assert solved(crt_solve, system) == solved(oracle.crt_solve_pairwise, system), system


def long_clash(n: int, tail: list[Congruence]) -> list[Congruence]:
    # n times 0 mod 3, then 0 mod 2 and 1 mod 2, which clash, then n more and *tail*
    three = [Congruence(0, 3)] * n
    return three + [Congruence(0, 2), Congruence(1, 2)] + three + tail


@pytest.mark.parametrize(
    "tail, first",
    # Without a tail the first clashing pair is the adjacent one, at n and
    # n + 1; 1 mod 3 at the end clashes with every 0 mod 3, the first included.
    [([], (Congruence(0, 2), Congruence(1, 2))), ([Congruence(1, 3)], (Congruence(0, 3), Congruence(1, 3)))],
    ids=["adjacent-pair", "late-pair"],
)
def test_crt_solve_refuses_a_long_system_in_few_gcd_probes(monkeypatch, tail, first):
    # The oracle tests pairs in order, about n^2 of them here, so it is run
    # on a short system of the same shape; the long one is checked for the
    # same pair and counted in gcd calls, about log2(k) for each of k.
    short = long_clash(30, tail)
    assert solved(crt_solve, short) == solved(oracle.crt_solve_pairwise, short)
    assert solved(crt_solve, short)[2] == first
    system = long_clash(20_000, tail)
    calls = 0
    gcd = math.gcd

    def counted(a, b):
        nonlocal calls
        calls += 1
        return gcd(a, b)

    monkeypatch.setattr(math, "gcd", counted)
    got = solved(crt_solve, system)
    monkeypatch.undo()
    assert got == solved(crt_solve, short)
    assert calls < len(system) * (math.log2(len(system)) + 3)


@pytest.mark.parametrize("tail", [[], [Congruence(1, 3)]], ids=["adjacent-pair", "late-pair"])
def test_crt_solve_folds_a_clashing_system_once(monkeypatch, tail):
    # One merge step for each merge before the clash: the n - 1 merges of
    # 0 mod 3 and that of 0 mod 2.  The witness is read off the prefix
    # solutions of that one fold, which makes no step.
    n = 1000
    system = long_clash(n, tail)
    calls = 0
    step = crt_module._step

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(crt_module, "_step", counted)
    with pytest.raises(Infeasible):
        crt_solve(system)
    assert calls == n

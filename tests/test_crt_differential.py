"""The congruence-carrying reconstruction search against the window-pruned oracle.

``complete_constraints`` offers each index only the counts that keep the
prefix-sum congruences solvable; by the allowable-realizable theorem that
is the tree the window-sum backtracking in ``crt_oracle`` walks, in the
same order.  Completion lists, ``reconstruct``, ``reconstruct_minimal``
(its cap included), ``prime_reconstruct``, ``crt_solve`` and the
prime-power window conditions must agree with the oracle exactly,
``Infeasible`` messages and witnesses included.
"""

import math
import random
import time

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
from tchoukaillon.crt import _merge, _solve_completions, _step, prime_power_divisors

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


def test_merge_step_at_every_index():
    # The search makes _step(lcm(2..i-1), i) once per index and folds every
    # count in with it; each fold must be the merge, and the period carried
    # to the next index lcm(2..i).
    rng = random.Random(8889)
    modulus = 1
    for i in range(2, 89):
        g, step, inverse, period = _step(modulus, i)
        assert (g, period) == (math.gcd(modulus, i), math.lcm(*range(2, i + 1))), i
        for _ in range(20):
            residue = rng.randrange(modulus)
            value = rng.randrange(i * i)
            value += (residue - value) % g  # solvable: value = residue (mod g)
            folded = residue + modulus * ((value - residue) // g * inverse % step), period
            assert folded == _merge(residue, modulus, value, i), (i, residue, value)
            system = [Congruence(residue, modulus), Congruence(value % i, i)]
            assert folded == oracle.crt_solve_pairwise(system), (i, residue, value)
        modulus = period
    refusals = []
    for refuse in (lambda: _step(modulus, 89), lambda: _merge(0, modulus, 0, 89),
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

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tchoukaillon import (
    Board,
    Congruence,
    IncreasingRemainderBoard,
    Infeasible,
    PartialConstraint,
    RemainderBoard,
    allowable_check,
    board_from_increasing,
    board_from_shifted,
    board_from_stones,
    complete_constraints,
    consistency_conditions,
    crt_solve,
    increasing_remainder_board,
    prime_reconstruct,
    reconstruct,
    reconstruct_minimal,
    remainder_board,
    shifted_prefix,
)
import tchoukaillon.crt as crt_module
from tchoukaillon.checked import CONDITIONS_CAP, MAX_BOARD_BINS
from tchoukaillon.crt import prime_power_divisors

from golden import (
    BOARD_29,
    BOARD_34,
    BOARD_202,
    COMPLETION_202,
    INCREASING_29,
    REMAINDER_ROWS,
    RESIDUES_29,
    WINDOW_CONDITIONS_12,
)


def agrees(n: int, entries: dict[int, int]) -> bool:
    board = board_from_stones(n)
    return all(board.bin(i - 1) == v for i, v in entries.items())


def scan_minimal(entries: dict[int, int]) -> int | None:
    # independent oracle: smallest n agreeing with the constraint whose
    # board reaches the highest constrained bin
    if not entries:
        return 0
    top = max(entries)
    for n in range(2 * math.lcm(*range(2, top + 1)) + 1):
        if agrees(n, entries) and board_from_stones(n).length >= top - 1:
            return n
    return None


class TestRemainderBoards:
    def test_residues_29(self):
        assert remainder_board(29, 11).residues == RESIDUES_29

    def test_increasing_29(self):
        assert increasing_remainder_board(29, 11).values == INCREASING_29

    def test_zero(self):
        assert remainder_board(0, 9).residues == (0,) * 8
        assert increasing_remainder_board(0, 9).values == (0,) * 8

    def test_golden_rows(self):
        for n, residues, lifted in REMAINDER_ROWS:
            assert remainder_board(n, 7).residues == residues
            assert increasing_remainder_board(n, 7).values == lifted

    def test_builders_equal_checked_constructors(self):
        # The builders skip the constructors' checks on their own output.
        rng = random.Random(20)
        ns = [0, 10**6, 2**127 + 12345, *(rng.getrandbits(rng.randint(1, 128)) for _ in range(12))]
        for n in ns:
            for k in (2, 3, 11, rng.randint(12, 3000), 3000):
                residues = tuple(n % i for i in range(2, k + 1))
                assert remainder_board(n, k) == RemainderBoard(residues, n=n)
                lift = increasing_remainder_board(n, k)
                assert lift == IncreasingRemainderBoard(lift.values)
                assert tuple(v % i for i, v in enumerate(lift.values, 2)) == residues

    def test_residue_accessor(self):
        rb = remainder_board(29, 11)
        assert rb.residue(4) == 1
        with pytest.raises(ValueError):
            rb.residue(12)

    @pytest.mark.parametrize("build", [remainder_board, increasing_remainder_board])
    def test_refused_past_bin_budget(self, build):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"modulus {MAX_BOARD_BINS + 2} passes the budget of {MAX_BOARD_BINS}"):
            build(5, MAX_BOARD_BINS + 2)
        with pytest.raises(OverflowError, match="modulus 1000000000 passes the budget"):
            build(5, 10**9)
        assert time.perf_counter() - start < 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            IncreasingRemainderBoard((1, 0))  # decreasing
        with pytest.raises(ValueError):
            IncreasingRemainderBoard((0, 1, 99))  # jump beyond modulus


class TestIndexBridge:
    def test_prefix_and_back(self):
        board = board_from_stones(29)
        prefix = shifted_prefix(board, 9)
        assert prefix == BOARD_29
        assert board_from_shifted(prefix) == board

    def test_prefix_pads_beyond_length(self):
        assert shifted_prefix(board_from_stones(1), 4) == (1, 0, 0)

    def test_prefix_reads_the_bins(self):
        for n in range(300):
            board = board_from_stones(n)
            for k in range(2, 26):
                assert shifted_prefix(board, k) == tuple(board.bin(i - 1) for i in range(2, k + 1))

    def test_prefix_refused_past_bin_budget(self):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"index {MAX_BOARD_BINS + 2} passes the budget of {MAX_BOARD_BINS}"):
            shifted_prefix(board_from_stones(5), MAX_BOARD_BINS + 2)
        assert time.perf_counter() - start < 0.5

    def test_prefix_admitted_at_bin_budget(self):
        prefix = shifted_prefix(Board(), MAX_BOARD_BINS + 1)
        assert len(prefix) == MAX_BOARD_BINS
        assert prefix[:3] == prefix[-3:] == (0, 0, 0)


class TestBoardFromIncreasing:
    def test_29(self):
        lift = increasing_remainder_board(29, 11)
        assert board_from_increasing(lift).bins == BOARD_29

    def test_15(self):
        lift = increasing_remainder_board(15, 12)
        assert board_from_increasing(lift) == board_from_stones(15)

    def test_zeros(self):
        assert board_from_increasing(IncreasingRemainderBoard((0, 0, 0))) == Board()

    def test_difference_duality(self):
        # differences of the lift give the board prefix, for every n
        for n in range(10_001):
            lift = increasing_remainder_board(n, 12)
            recovered = board_from_increasing(lift)
            expected = Board(tuple(board_from_stones(n).bin(i) for i in range(1, 12)))
            assert recovered == expected


class TestCrtSolve:
    def test_partial_sum_system(self):
        system = [Congruence(r, m) for r, m in [(0, 2), (1, 3), (2, 4), (2, 5), (4, 6), (6, 7)]]
        assert crt_solve(system) == (202, 420)

    def test_contradictory(self):
        with pytest.raises(Infeasible):
            crt_solve([Congruence(1, 2), Congruence(0, 2)])

    def test_feasible_despite_non_coprime_moduli(self):
        # brute force: 7 is the least n with n % 4 == 3 and n % 6 == 1
        assert [n for n in range(12) if n % 4 == 3 and n % 6 == 1] == [7]
        assert crt_solve([Congruence(3, 4), Congruence(1, 6)]) == (7, 12)

    def test_incompatible_mod_gcd(self):
        # brute force: no n in 0..11 satisfies both
        assert not [n for n in range(12) if n % 4 == 3 and n % 6 == 0]
        with pytest.raises(Infeasible) as exc_info:
            crt_solve([Congruence(3, 4), Congruence(0, 6)])
        assert exc_info.value.witness == (Congruence(3, 4), Congruence(0, 6))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crt_solve([])

    def test_overflow(self):
        with pytest.raises(OverflowError):
            crt_solve([Congruence(0, 2**70), Congruence(0, 3**50)])

    @pytest.mark.parametrize(
        "residue,modulus,error,match",
        [
            (True, 2, ValueError, "residue must be an integer"),
            (1.5, 2, ValueError, "residue must be an integer"),
            (1, 2.0, ValueError, "modulus must be an integer"),
            (0, True, ValueError, "modulus must be an integer"),
            ("1", 2, ValueError, "residue must be an integer"),
            (2**200 + 1, 2**200 + 5, OverflowError, "128-bit"),
            (0, 2**128, OverflowError, "modulus exceeds the 128-bit limit"),
            (0, 0, ValueError, r"modulus must be positive, got 0"),
            (3, 3, ValueError, r"residue 3 not in \[0, 3\)"),
        ],
        ids=["bool-residue", "float-residue", "float-modulus", "bool-modulus", "str-residue",
             "both-past-128-bits", "modulus-2^128", "zero-modulus", "residue-too-large"],
    )
    def test_congruence_takes_exact_integers_within_128_bits(self, residue, modulus, error, match):
        with pytest.raises(error, match=match):
            Congruence(residue, modulus)

    def test_float_residue_is_refused_not_blamed_on_the_gcd(self):
        with pytest.raises(ValueError, match="residue must be an integer"):
            crt_solve([Congruence(1.5, 2), Congruence(1, 3)])

    def test_congruence_admits_the_128_bit_limit(self):
        top = 2**128 - 1
        assert crt_solve([Congruence(top - 1, top)]) == (top - 1, top)

    def test_against_brute_force(self):
        rng = random.Random(1789)
        for _ in range(300):
            while True:
                moduli = [rng.randint(2, 30) for _ in range(rng.randint(2, 4))]
                if math.lcm(*moduli) <= 10**5:
                    break
            residues = [rng.randrange(m) for m in moduli]
            system = [Congruence(r, m) for r, m in zip(residues, moduli)]
            lcm = math.lcm(*moduli)
            brute = [n for n in range(lcm) if all(n % m == r for r, m in zip(residues, moduli))]
            try:
                n0, period = crt_solve(system)
            except Infeasible:
                assert brute == []
            else:
                assert period == lcm
                assert brute and brute[0] == n0


class TestAllowable:
    def test_conditions_up_to_12(self):
        assert consistency_conditions(12) == WINDOW_CONDITIONS_12

    def test_no_conditions_below_4(self):
        assert consistency_conditions(3) == []
        for m2 in range(2):
            for m3 in range(3):
                assert allowable_check((m2, m3)) == (True, [])

    def test_conditions_up_to_ten_thousand_promptly(self):
        start = time.perf_counter()
        conditions = consistency_conditions(10**4)
        assert time.perf_counter() - start < 0.5
        assert conditions[:len(WINDOW_CONDITIONS_12)] == WINDOW_CONDITIONS_12
        assert conditions[-1] == (10**4, 5**4)

    def test_conditions_up_to_ten_to_the_five_are_admitted(self):
        conditions = consistency_conditions(10**5)
        assert len(conditions) == 333_914
        assert conditions[-1] == (10**5, 5**5)

    @pytest.mark.parametrize(
        "call,args",
        [
            (consistency_conditions, (10**9,)),
            (consistency_conditions, (CONDITIONS_CAP + 1,)),
            (consistency_conditions, (13, 12)),
            (allowable_check, ([0] * CONDITIONS_CAP,)),
            (prime_power_divisors, (2**61 - 1,)),
            (prime_power_divisors, (2**24 + 1,)),
            (prime_power_divisors, (13, 12)),
        ],
        ids=["conditions-1e9", "conditions-cap+1", "conditions-13-cap-12", "allowable-cap",
             "divisors-2^61-1", "divisors-2^24+1", "divisors-13-cap-12"],
    )
    def test_budgets_refuse_up_front(self, call, args):
        # Unrefused, k = 10^9 lists billions of pairs and 2^61 - 1 takes
        # about 1.5e9 trial divisions.
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="budget"):
            call(*args)
        assert time.perf_counter() - start < 0.05

    def test_bad_count_is_refused_before_the_conditions_are_listed(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="count 5 out of range"):
            allowable_check([5] + [0] * (CONDITIONS_CAP - 2))
        assert time.perf_counter() - start < 0.05

    def test_budgets_admit_their_caps(self):
        assert consistency_conditions(12, cap=12) == WINDOW_CONDITIONS_12
        assert prime_power_divisors(2**24) == [2**j for j in range(1, 24)]
        assert prime_power_divisors(12, cap=12) == [2, 3, 4]
        with pytest.raises(ValueError, match="index must be an integer"):
            prime_power_divisors(True)

    def test_realized_prefixes_are_allowable(self):
        for n in range(10_001):
            ok, violations = allowable_check(shifted_prefix(board_from_stones(n), 12))
            assert ok, (n, violations)

    def test_violation_reported(self):
        ok, violations = allowable_check((0, 0, 1))  # m_4 + m_3 odd
        assert not ok
        assert violations == [(4, 2)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            allowable_check((2,))

    @pytest.mark.parametrize("top", range(2, 9))
    def test_allowable_equals_realizable(self, top):
        # brute force both ways over one full period
        period = math.lcm(*range(2, top + 1))
        realized = {shifted_prefix(board_from_stones(n), top) for n in range(period)}
        allowable = {
            values
            for values in itertools.product(*(range(i) for i in range(2, top + 1)))
            if allowable_check(values)[0]
        }
        assert realized == allowable


class TestPartialConstraint:
    def test_json_round_trip(self):
        pc = PartialConstraint({3: 1, 7: 2})
        doc = pc.to_json()
        assert doc == {"indexing": "paper-section-4", "3": 1, "7": 2}
        assert PartialConstraint.from_json(doc) == pc

    def test_json_requires_indexing_marker(self):
        with pytest.raises(ValueError):
            PartialConstraint.from_json({"3": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            PartialConstraint({1: 0})
        with pytest.raises(ValueError):
            PartialConstraint({5: 5})
        with pytest.raises(ValueError):
            PartialConstraint([(3, 1), (3, 2)])

    @pytest.mark.parametrize("bad", [1.5, True, "1", None])
    def test_rejects_non_integer_count(self, bad):
        with pytest.raises(ValueError, match="count at index 3"):
            PartialConstraint({3: bad})

    @pytest.mark.parametrize("bad", [1.7, True, "1", None])
    def test_json_rejects_non_integer_count(self, bad):
        with pytest.raises(ValueError, match="count at index 3"):
            PartialConstraint.from_json({"indexing": "paper-section-4", "3": bad})

    @pytest.mark.parametrize("key", ["3.0", " 3", "+3", "x"])
    def test_json_rejects_non_decimal_index(self, key):
        with pytest.raises(ValueError, match="constraint index"):
            PartialConstraint.from_json({"indexing": "paper-section-4", key: 1})


class TestCompleteConstraints:
    def test_infeasible_pair(self):
        assert list(complete_constraints(PartialConstraint({5: 1, 6: 2}))) == []

    def test_published_completion_comes_first(self):
        completions = list(complete_constraints(PartialConstraint({3: 1, 7: 2})))
        assert completions[0] == COMPLETION_202
        assert all(c[1] == 1 and c[5] == 2 for c in completions)
        assert all(allowable_check(c)[0] for c in completions)

    def test_forced_gap_infeasible(self):
        # the missing middle bin would need a count of 28 mod 30
        assert list(complete_constraints(PartialConstraint({6: 0, 7: 1, 8: 1, 10: 0}))) == []

    def test_forced_gap_feasible_variant(self):
        completions = list(complete_constraints(PartialConstraint({6: 0, 7: 1, 8: 1, 10: 1})))
        assert completions
        assert all(c[7] == 7 for c in completions)  # m_9 forced to 7


class TestSearchNodeBudget:
    def test_refused_past_budget(self, monkeypatch):
        # The first completion's branch clashes only at index 34, after
        # exponentially many prefixes, though the scan finds n = 2160.
        entries = {16: 3, 34: 10}
        assert scan_minimal(entries) == 2160
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", 1000)
        with pytest.raises(RuntimeError, match="completion search exceeded its budget of 1000 nodes"):
            reconstruct(PartialConstraint(entries))

    def test_budget_counts_nodes_between_completions(self, monkeypatch):
        # 2,520 completions, each reached within 100 nodes of the one before
        pc = PartialConstraint({12: 0})
        completions = list(complete_constraints(pc))
        assert len(completions) == 2520
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", 100)
        assert list(complete_constraints(pc)) == completions
        assert reconstruct_minimal(pc) == reconstruct_minimal(pc, cap=len(completions))
        with pytest.raises(RuntimeError, match="completion cap 2519 exceeded"):
            reconstruct_minimal(pc, cap=2519)

    # The smallest budget each search runs to its end with: the most nodes
    # it visits before its first completion, between two, or after its
    # last.  They are fixed figures, so a change to what the search counts
    # as a node shows here.  The last constraint is infeasible, so its
    # search yields nothing and counts every node it visits.
    @pytest.mark.parametrize(
        "entries, budget",
        [({12: 0}, 25), ({11: 3}, 10), ({9: 5, 6: 2}, 30), ({6: 0, 7: 1, 8: 1, 10: 1}, 56),
         ({6: 0, 7: 1, 8: 1, 10: 0}, 113)],
    )
    def test_budget_boundary(self, monkeypatch, entries, budget):
        pc = PartialConstraint(entries)
        completions = list(complete_constraints(pc))
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", budget)
        assert list(complete_constraints(pc)) == completions
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", budget - 1)
        with pytest.raises(RuntimeError, match=f"exceeded its budget of {budget - 1} nodes"):
            list(complete_constraints(pc))

    # The work reconstruct does, counted in nodes beside the wall clock:
    # it stops at its first completion, so it runs with the nodes the
    # search visits up to there and is refused with one less.  The figures
    # are those of test_budget_boundary's feasible constraints, fixed as
    # theirs are; the infeasible one visits all its 113 nodes.
    @pytest.mark.parametrize(
        "entries, nodes",
        [({12: 0}, 11), ({11: 3}, 10), ({9: 5, 6: 2}, 22), ({6: 0, 7: 1, 8: 1, 10: 1}, 30)],
    )
    def test_reconstruct_needs_the_nodes_of_its_first_completion(self, monkeypatch, entries, nodes):
        pc = PartialConstraint(entries)
        answer = reconstruct(pc)
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", nodes)
        assert reconstruct(pc) == answer
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", nodes - 1)
        with pytest.raises(RuntimeError, match=f"exceeded its budget of {nodes - 1} nodes"):
            reconstruct(pc)

    def test_infeasible_reconstruct_visits_every_node(self, monkeypatch):
        pc = PartialConstraint({6: 0, 7: 1, 8: 1, 10: 0})
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", 113)
        with pytest.raises(Infeasible):
            reconstruct(pc)
        monkeypatch.setattr(crt_module, "MAX_SEARCH_NODES", 112)
        with pytest.raises(RuntimeError, match="exceeded its budget of 112 nodes"):
            reconstruct(pc)


class TestReconstruct:
    def test_published_completion_gives_202(self):
        n, board = reconstruct(PartialConstraint({3: 1, 7: 2}))
        assert n == 202
        assert board.bins == BOARD_202

    def test_third_constraint_same_board(self):
        n, board = reconstruct(PartialConstraint({3: 1, 7: 2, 9: 3}))
        assert n == 202
        assert board.bins == BOARD_202

    def test_empty(self):
        assert reconstruct(PartialConstraint({})) == (0, Board())

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            reconstruct(PartialConstraint({5: 1, 6: 2}))

    def test_agreement_at_constrained_indices(self):
        pc = PartialConstraint({4: 3, 9: 5})
        n, board = reconstruct(pc)
        assert agrees(n, pc.as_dict())
        assert board == board_from_stones(n)


class TestReconstructMinimal:
    def test_34(self):
        n, board = reconstruct_minimal(PartialConstraint({3: 1, 7: 2}))
        assert n == 34
        assert board.bins == BOARD_34

    def test_18(self):
        n, _ = reconstruct_minimal(PartialConstraint({4: 2, 7: 5}))
        assert n == 18

    def test_214(self):
        # the top constraint is an empty bin, so the board must still
        # reach it; short boards that are trivially empty there do not count
        n, board = reconstruct_minimal(PartialConstraint({4: 1, 7: 0}))
        assert n == 214
        assert board.length >= 6

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            reconstruct_minimal(PartialConstraint({5: 1, 6: 2}))

    def test_empty(self):
        assert reconstruct_minimal(PartialConstraint({})) == (0, Board())

    def test_202_is_minimal_for_three_constraints(self):
        n, _ = reconstruct_minimal(PartialConstraint({3: 1, 7: 2, 9: 3}))
        assert n == 202

    @pytest.mark.parametrize(
        "entries",
        [{3: 1, 7: 2}, {4: 2, 7: 5}, {4: 1, 7: 0}, {3: 1, 7: 2, 9: 3}, {2: 0}, {6: 3}],
    )
    def test_matches_scan_oracle(self, entries):
        assert reconstruct_minimal(PartialConstraint(entries))[0] == scan_minimal(entries)

    def test_matches_scan_oracle_randomized(self):
        rng = random.Random(813)
        for _ in range(60):
            top = rng.randint(2, 10)
            indices = rng.sample(range(2, top + 1), rng.randint(1, min(3, top - 1)))
            entries = {i: rng.randrange(i) for i in indices}
            try:
                got = reconstruct_minimal(PartialConstraint(entries))[0]
            except Infeasible:
                got = None
            assert got == scan_minimal(entries), entries

    def test_completion_cap(self):
        with pytest.raises(RuntimeError):
            reconstruct_minimal(PartialConstraint({12: 0}), cap=3)

    def test_merge_steps_are_made_once_per_index(self, monkeypatch):
        # The search and the solver read the merge step of every index from
        # the table built at import, however many of the 2,520 completions
        # pass through it, so a query below index 89 makes no step at all.
        pc = PartialConstraint({11: 3})
        expected = reconstruct_minimal(pc)
        calls = 0
        step = crt_module._step

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(crt_module, "_step", counted)
        assert reconstruct_minimal(pc) == expected
        assert calls == 0

    @pytest.mark.parametrize(
        "cap, error",
        [(True, ValueError), (2.5, ValueError), (-1, ValueError), ("3", ValueError), (None, ValueError),
         (2**128, OverflowError), (0, RuntimeError)],
        ids=["bool", "float", "negative", "str", "None", "2**128", "zero"],
    )
    def test_completion_cap_is_checked_before_the_search(self, monkeypatch, cap, error):
        # A cap outside the contract is refused before the first completion
        # is drawn; cap 0 is refused once the first one is.
        drawn = 0
        search = crt_module.complete_constraints

        def counted(pc):
            nonlocal drawn
            for completion in search(pc):
                drawn += 1
                yield completion

        monkeypatch.setattr(crt_module, "complete_constraints", counted)
        with pytest.raises(error, match="completion cap"):
            reconstruct_minimal(PartialConstraint({5: 1}), cap=cap)
        assert drawn == (1 if error is RuntimeError else 0)


class TestPinnedPrefix:
    # every bin m_2..m_30 is constrained, so the search has one completion
    N = 1_000_012_345

    @pytest.mark.parametrize("solve", [reconstruct, reconstruct_minimal])
    def test_full_prefix_gives_its_stone_count(self, solve):
        pc = PartialConstraint(enumerate(shifted_prefix(board_from_stones(self.N), 30), 2))
        assert list(complete_constraints(pc)) == [tuple(v for _, v in pc.entries)]
        assert solve(pc) == (self.N, board_from_stones(self.N))

    @pytest.mark.parametrize("solve", [reconstruct, reconstruct_minimal])
    def test_prefix_through_the_last_table_index(self, solve):
        # m_2..m_88 pinned: every fold reads the step table, up to its last entry
        n = 10**6
        pc = PartialConstraint(enumerate(shifted_prefix(board_from_stones(n), 88), 2))
        assert list(complete_constraints(pc)) == [tuple(v for _, v in pc.entries)]
        assert solve(pc) == (n, board_from_stones(n))


class TestPeriodBeyond128Bits:
    # lcm(2..88) has 123 bits and lcm(2..89) has 130, so the search stops at 89
    PERIOD_89 = math.lcm(*range(2, 90))

    def test_top_index_88_answers(self):
        assert reconstruct(PartialConstraint({88: 0})) == (0, Board())

    @pytest.mark.parametrize(
        "solve, entries",
        [
            (reconstruct, {89: 0}),
            (reconstruct_minimal, {100: 0}),
            (reconstruct, {1500: 0}),
            (reconstruct, {88: 0, 89: 0, 90: 1}),
            (prime_reconstruct, {89: 0}),
            (lambda pc: list(complete_constraints(pc)), {89: 5}),
            (prime_reconstruct, {2**61 - 1: 1}),
            (prime_reconstruct, {91: 1}),
        ],
    )
    def test_refused_promptly(self, monkeypatch, solve, entries):
        # Index 89 is past the step table: the refusal makes at most one
        # step, the one that passes 128 bits, a count of work that does not
        # depend on the machine, beside the wall clock.
        calls = 0
        step = crt_module._step

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(crt_module, "_step", counted)
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"congruence system period exceeds .*\\({self.PERIOD_89} >"):
            solve(PartialConstraint(entries))
        assert time.perf_counter() - start < 0.5
        assert calls <= 1

    def test_infeasible_below_89_is_still_infeasible(self):
        with pytest.raises(Infeasible):
            reconstruct(PartialConstraint({5: 1, 6: 2, 100: 0}))


class TestPeriodicityOfAgreement:
    def test_shifting_by_lcm_preserves_agreement(self):
        rng = random.Random(271)
        for _ in range(40):
            top = rng.randint(3, 8)
            indices = rng.sample(range(2, top + 1), rng.randint(1, top - 1))
            period = math.lcm(*range(2, top + 1))
            n = rng.randrange(3 * period)
            entries = {i: board_from_stones(n).bin(i - 1) for i in indices}
            assert agrees(n, entries)
            assert agrees(n + period, entries)


class TestPrimeReconstruct:
    def test_always_succeeds_on_published_pair(self):
        n, board = prime_reconstruct(PartialConstraint({3: 1, 7: 2}))
        assert n == 202  # greedy fill reproduces the published completion
        assert agrees(n, {3: 1, 7: 2})

    def test_single_even_constraint(self):
        assert prime_reconstruct(PartialConstraint({2: 0})) == (0, Board())

    def test_five_and_seven(self):
        pc = PartialConstraint({5: 4, 7: 6})
        n, board = prime_reconstruct(pc)
        assert agrees(n, pc.as_dict())
        # brute confirmation that some agreeing n exists at or below it
        assert any(agrees(m, pc.as_dict()) for m in range(n + 1))

    def test_rejects_composite_indices(self):
        with pytest.raises(ValueError):
            prime_reconstruct(PartialConstraint({4: 1}))

    def test_random_prime_constraints(self):
        primes = [2, 3, 5, 7, 11]
        rng = random.Random(401)
        for _ in range(40):
            chosen = rng.sample(primes, rng.randint(1, 3))
            entries = {p: rng.randrange(p) for p in chosen}
            n, board = prime_reconstruct(PartialConstraint(entries))
            assert agrees(n, entries)


@settings(max_examples=150, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=20))
def test_lift_stabilizes_at_the_stone_count(n, k):
    values = increasing_remainder_board(n, k).values
    assert all(v <= n for v in values)
    if k >= board_from_stones(n).length + 1:
        assert values[-1] == n

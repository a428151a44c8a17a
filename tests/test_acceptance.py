"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a PASS line on success (run with ``pytest -s`` to see
them); a failing criterion fails its test.  All checks are exact.
"""

import itertools
import math
import random

import pytest

from tchoukaillon import (
    Board,
    Congruence,
    Infeasible,
    PartialConstraint,
    allowable_check,
    board_from_stones,
    check_bounds,
    consistency_conditions,
    crt_solve,
    cycle_attained_counts,
    enumerate_boards,
    enumerate_winning_boards,
    has_finite_game_graph,
    increasing_remainder_board,
    make_cycle,
    make_path,
    make_star,
    min_stones,
    min_stones_sequence,
    minimal_period,
    play,
    reconstruct,
    reconstruct_minimal,
    remainder_board,
    shifted_prefix,
    sieve_stage,
    sieve_step,
    sow_move,
    unplay,
)
from tchoukaillon.cli import main

from golden import (
    CYCLE4_BINS,
    CYCLE4_TOTALS,
    INITIAL_BOARDS,
    MIN_STONES_PREFIX,
    REMAINDER_ROWS,
    RESIDUES_29,
    INCREASING_29,
    SIEVE_ROWS,
    WINDOW_CONDITIONS_12,
    BOARD_34,
)

SEED = 0x7C40CA


def ok(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {label}")


def test_criterion_01_golden_table(capsys):
    assert main(["table", "17"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:]]
    parsed = [(int(r[0]), int(r[1]), tuple(int(c) for c in r[2:])) for r in rows]
    assert parsed == INITIAL_BOARDS
    with capsys.disabled():
        ok(1, "table 17 reproduces all 18 published rows exactly")


def test_criterion_02_construction_equals_unplay_fold():
    board = Board()
    for n in range(1, 10_001):
        board = unplay(board)
        assert board == board_from_stones(n), n
    ok(2, "direct construction equals n-fold unplay for n <= 10^4")


def test_criterion_03_min_stones_and_enumeration():
    assert min_stones_sequence(7) == MIN_STONES_PREFIX
    for length in range(1, 13):
        assert min_stones(length) == min(b.stones for b in enumerate_boards(length))
    expected_six = [Board(padded) for _, length, padded in INITIAL_BOARDS if length == 6]
    assert list(enumerate_boards(6)) == expected_six
    ok(3, "minimum stones sequence and length-6 enumeration exact")


def test_criterion_04_bounds_and_quadratic_ratio():
    for length in range(2, 2001):
        lower, value, upper = check_bounds(length)
        assert lower <= value <= upper, length
    ratio_100 = min_stones(100) * math.pi / 100**2
    ratio_1000 = min_stones(1000) * math.pi / 1000**2
    assert abs(ratio_1000 - 1) < abs(ratio_100 - 1)
    assert abs(ratio_1000 - 1) < 0.05
    ok(4, "bounds hold to length 2000; quadratic ratio within 0.05 at 1000")


def test_criterion_05_sieve():
    for k, row in SIEVE_ROWS.items():
        assert sieve_stage(k, 9) == row, k
    for k in range(1, 7):
        stepped = sieve_step(sieve_stage(k, 100), k)
        assert stepped == sieve_stage(k + 1, len(stepped))
    assert [sieve_stage(k, 1)[0] for k in range(1, 201)] == min_stones_sequence(200)
    ok(5, "sieve rows, stage-step consistency, and first-element linkage exact")


def test_criterion_06_remainder_boards_and_conditions():
    assert remainder_board(29, 11).residues == RESIDUES_29
    assert increasing_remainder_board(29, 11).values == INCREASING_29
    for n, residues, lifted in REMAINDER_ROWS:
        assert remainder_board(n, 7).residues == residues
        assert increasing_remainder_board(n, 7).values == lifted
    assert consistency_conditions(12) == WINDOW_CONDITIONS_12
    ok(6, "remainder boards and the k<=12 window conditions exact")


def test_criterion_07_reconstruction():
    with pytest.raises(Infeasible):
        reconstruct(PartialConstraint({5: 1, 6: 2}))
    assert reconstruct_minimal(PartialConstraint({4: 2, 7: 5}))[0] == 18
    assert reconstruct_minimal(PartialConstraint({4: 1, 7: 0}))[0] == 214
    n, board = reconstruct(PartialConstraint({3: 1, 7: 2}))
    assert n == 202
    n, board = reconstruct_minimal(PartialConstraint({3: 1, 7: 2}))
    assert n == 34
    assert board.bins == BOARD_34
    assert reconstruct(PartialConstraint({3: 1, 7: 2, 9: 3}))[0] == 202
    with pytest.raises(Infeasible):
        reconstruct(PartialConstraint({6: 0, 7: 1, 8: 1, 10: 0}))
    n, board = reconstruct(PartialConstraint({6: 0, 7: 1, 8: 1, 10: 1}))
    assert board.bin(8) == 7  # the forced middle bin
    ok(7, "reconstruction golden cases exact (18, 214, 202, 34, forced 7)")


def test_criterion_08_allowable_equals_realizable():
    for top in range(2, 9):
        period = math.lcm(*range(2, top + 1))
        realized = {shifted_prefix(board_from_stones(n), top) for n in range(period)}
        allowable = {
            values
            for values in itertools.product(*(range(i) for i in range(2, top + 1)))
            if allowable_check(values)[0]
        }
        assert realized == allowable, top
    ok(8, "allowable prefixes equal realized prefixes for K <= 8")


def test_criterion_09_sowing_graphs():
    for length in range(1, 7):
        g = make_path(length)
        game = enumerate_winning_boards(g)
        got = {Board(g.bin_labels(b)) for b in game.boards}
        assert got == {board_from_stones(n) for n in range(min_stones(length + 1))}
        sources = [e.source for e in game.edges]
        assert len(game.edges) == len(game.boards) - 1
        assert sorted(sources) == sorted(set(sources))
    for spokes in range(1, 4):
        for length in range(1, 5):
            game = enumerate_winning_boards(make_star(spokes, length))
            assert len(game.boards) == min_stones(length + 1) ** spokes
    for length in range(1, 7):
        assert has_finite_game_graph(make_path(length))[0]
    for spokes in range(1, 4):
        assert has_finite_game_graph(make_star(spokes, 3))[0]
    for length in range(2, 7):
        assert not has_finite_game_graph(make_cycle(length))[0]
    g = make_cycle(4)
    game = enumerate_winning_boards(g, cap=9)
    assert [g.bin_labels(b) for b in game.boards] == CYCLE4_BINS
    assert cycle_attained_counts(4, 9) == CYCLE4_TOTALS
    ok(9, "path/star/cycle game graphs match the linear game and published boards")


def test_criterion_10_property_suites():
    rng = random.Random(SEED)
    cases = 0

    # prefix and upper-sum congruences on random boards
    for _ in range(400):
        n = rng.randrange(250_000)
        board = board_from_stones(n)
        prefix = 0
        for i in range(1, board.length + 1):
            prefix += board.bins[i - 1]
            assert prefix % (i + 1) == n % (i + 1)
            cases += 1
        suffix = 0
        for i in range(board.length, 0, -1):
            suffix += board.bins[i - 1]
            assert suffix % i == 0
            cases += 1

    # periodicity of bin prefixes for i <= 6, including minimality
    boards = [board_from_stones(n) for n in range(3 * minimal_period(6))]
    prefixes = [tuple(b.bin(j) for j in range(1, 7)) for b in boards]
    for i in range(1, 7):
        period = minimal_period(i)
        for n in range(2 * period):
            assert prefixes[n][:i] == prefixes[n + period][:i]
            cases += 1
        # a proper-divisor period would make some maximal proper divisor a period
        for p in {2, 3, 5, 7}:
            if period % p:
                continue
            d = period // p
            assert any(prefixes[n][:i] != prefixes[n + d][:i] for n in range(2 * period))
            cases += 1

    # play/unplay round-trips
    for _ in range(600):
        n = rng.randrange(1, 10_000)
        board = board_from_stones(n)
        assert play(unplay(board))[0] == board
        assert unplay(play(board)[0]) == board
        cases += 2

    # sow/unplay round-trips over enumerated game graphs
    graph_cases = [(make_path(5), 10_000), (make_star(2, 3), 10_000), (make_cycle(4), 15)]
    for g, cap in graph_cases:
        game = enumerate_winning_boards(g, cap=cap)
        assert game.edges
        for edge in game.edges:
            for move in edge.moves:
                shrunk = sow_move(g, game.boards[edge.source], move.vertex, move.path)
                assert g.bin_labels(shrunk) == g.bin_labels(game.boards[edge.target])
                cases += 1

    # congruence solving against brute-force scans
    for _ in range(200):
        while True:
            moduli = [rng.randint(2, 30) for _ in range(rng.randint(2, 4))]
            if math.lcm(*moduli) <= 20_000:
                break
        residues = [rng.randrange(m) for m in moduli]
        lcm = math.lcm(*moduli)
        brute = next(
            (n for n in range(lcm) if all(n % m == r for r, m in zip(residues, moduli))),
            None,
        )
        try:
            n0, period = crt_solve([Congruence(r, m) for r, m in zip(residues, moduli)])
        except Infeasible:
            assert brute is None
        else:
            assert period == lcm and n0 == brute
        cases += 1

    assert cases >= 10_000, cases
    ok(10, f"property suites passed with {cases} seeded cases (>= 10^4), zero failures")

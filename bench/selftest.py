"""Each oracle accepts a right answer and rejects a corrupted one.

    python3 bench/selftest.py

Needs no library import: the right answers are written out or computed
by the oracles' own residue walk.
"""

from __future__ import annotations

import json
import random
import unittest

import oracles as o
import workloads as w
from workloads import Bins


def board(n: int) -> Bins:
    return Bins(tuple(o.walk_bins(n)))


def greedy_moves(n: int) -> list[int]:
    """Clear the board of n by always sowing the harvestable bin nearest the store."""
    bins, moves = list(o.walk_bins(n)), []
    while any(bins):
        m = next(i for i in range(1, len(bins) + 1) if bins[i - 1] == i)
        o.sow(bins, m)
        moves.append(m)
    return moves


# The game of the path with two bins: boards of n = 0..3 and their sows.
PATH2 = {
    "truncated": False,
    "boards": [[0, 0], [1, 0], [0, 2], [1, 2]],
    "edges": [
        {"from": 1, "to": 0, "moves": [{"vertex": 1, "ruma": 0, "path": [1, 0]}]},
        {"from": 2, "to": 1, "moves": [{"vertex": 2, "ruma": 0, "path": [2, 1, 0]}]},
        {"from": 3, "to": 2, "moves": [{"vertex": 1, "ruma": 0, "path": [1, 0]}]},
    ],
}


def copy(doc):
    return json.loads(json.dumps(doc))


class Linear(unittest.TestCase):
    def test_board(self):
        o.check_bins((1, 2, 0, 2, 4, 6), 15)
        for bad, n in [((1, 2, 0, 2, 4, 7), 15), ((1, 2, 1, 2, 4, 5), 15), ((1, 2, 0, 2, 4, 6, 0), 15),
                       ((True, 2, 0, 2, 4, 6), 15), ((1, 2, 0, 2, 4, 6), 16)]:
            with self.assertRaises(o.CheckFailed):
                o.check_bins(bad, n)
        with self.assertRaises(o.CheckFailed):
            o.check_bins([1, 2, 0, 2, 4, 6], 15)

    def test_play_sequence(self):
        self.assertEqual(greedy_moves(6), [4, 1, 3, 1, 2, 1])  # the golden sequence of n = 6
        moves = greedy_moves(40)
        o.check_play_sequence(40, moves)
        swapped = moves[:]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        for bad in (swapped, moves[:-1], moves[:-1] + [moves[-1] + 1]):
            with self.assertRaises(o.CheckFailed):
                o.check_play_sequence(40, bad)

    def test_chain(self):
        ups = [board(n) for n in range(31, 34)]
        downs = [(board(n), greedy_moves(n + 1)[0]) for n in (32, 31, 30)]
        o.check_chain(30, board(30), (ups, downs))
        with self.assertRaises(o.CheckFailed):
            o.check_chain(30, board(30), (ups[:1] + [board(31)] + ups[2:], downs))
        with self.assertRaises(o.CheckFailed):
            o.check_chain(30, board(30), (ups, downs[:1] + [(board(32), downs[1][1])] + downs[2:]))

    def test_sieve(self):
        o.check_sieve_stage(2, 5, [2, 4, 6, 8, 10])
        o.check_sieve_stage(3, 9, [4, 6, 10, 12, 16, 18, 22, 24, 28])  # README: tchouk sieve 3 9
        for bad in ([4, 6, 10, 12, 16, 18, 22, 24, 29], [4, 6, 10, 12, 16, 18, 22, 24]):
            with self.assertRaises(o.CheckFailed):
                o.check_sieve_stage(3, 9, bad)

    def test_min_stones(self):
        oracle = o.MinStones()
        oracle.check_sequence(7, [1, 2, 4, 6, 10, 12, 18])  # OEIS A002491
        for length, bad in [(5, 11), (5, 9), (6, 13)]:
            with self.assertRaises(o.CheckFailed):
                oracle.check(length, bad)
        with self.assertRaises(o.CheckFailed):
            o.MinStones(lambda length: [board(11)]).check(5, 10)

    def test_enumeration(self):
        boards = [board(n) for n in range(10, 12)]  # length 5: n = 10, 11
        o.check_enumeration(5, boards)
        for bad in (boards[:1], boards[1:], [boards[0], Bins((0, 2, 0, 2, 5))], boards + [board(12)]):
            with self.assertRaises(o.CheckFailed):
                o.check_enumeration(5, bad)


class Reconstruction(unittest.TestCase):
    pc = {3: 1, 7: 2}

    def test_minimal(self):
        o.check_reconstruction(self.pc, (34, board(34)), minimal=True)  # README: n=34
        o.check_reconstruction(self.pc, (202, board(202)), minimal=False)
        with self.assertRaises(o.CheckFailed):
            o.check_reconstruction(self.pc, (202, board(202)), minimal=True)  # not the smallest
        bins = list(board(34).bins)
        bins[0] += 1
        for bad in ((34, Bins(tuple(bins))), (36, board(36)), ("infeasible", None)):
            with self.assertRaises(o.CheckFailed):
                o.check_reconstruction(self.pc, bad, minimal=False)

    def test_top_bin_zero_must_be_reached(self):
        # {3: 0}: n = 0 agrees bin by bin but stops short of bin 2.
        o.check_reconstruction({3: 0}, (0, board(0)), minimal=False)
        with self.assertRaises(o.CheckFailed):
            o.check_reconstruction({3: 0}, (0, board(0)), minimal=True)
        n = next(n for n in range(1, 100) if o.walk_bins(n)[1:2] == [0])
        o.check_reconstruction({3: 0}, (n, board(n)), minimal=True)

    def test_infeasible(self):
        o.check_infeasible({3: 1, 4: 0}, ("infeasible", None))  # m3 + m4 must be even
        for pc, answer in [({3: 1, 4: 1}, ("infeasible", None)), ({3: 1, 4: 0}, (5, board(5)))]:
            with self.assertRaises(o.CheckFailed):
                o.check_infeasible(pc, answer)

    def test_clashing_constraints_are_infeasible(self):
        rng = random.Random(7)
        for j in range(len(w.WINDOWS)):
            pc = w.clashing_constraints(rng, j)
            o.check_infeasible(pc, ("infeasible", None))

    def test_crt(self):
        system = [(1, 4), (3, 6)]
        o.check_crt(system, (9, 12))
        for bad in ((21, 12), (9, 24), (5, 12), ("infeasible", None, ((1, 4), (3, 6)))):
            with self.assertRaises(o.CheckFailed):
                o.check_crt(system, bad)
        clash = [(1, 4), (2, 6), (0, 5)]
        o.check_crt(clash, ("infeasible", None, ((1, 4), (2, 6))))
        for bad in (("infeasible", None, ((1, 4), (0, 5))), (10, 60)):
            with self.assertRaises(o.CheckFailed):
                o.check_crt(clash, bad)


class Graphs(unittest.TestCase):
    def test_finiteness(self):
        o.check_finiteness(o.path_spec(3), (True, None))
        o.check_finiteness(o.cycle_spec(4), (False, (0, 1)))
        for spec, bad in [(o.path_spec(3), (False, (0, 1))), (o.cycle_spec(4), (True, None)),
                          (o.GraphSpec(3, [(1, 0), (0, 1), (2, 0)], [0]), (False, (0, 2)))]:
            with self.assertRaises(o.CheckFailed):
                o.check_finiteness(spec, bad)

    def test_game(self):
        spec = o.path_spec(2)
        o.check_game(spec, PATH2, o.linear_boards(2))
        o.check_game(o.star_spec(1, 2), PATH2, o.star_boards(1, 2))
        corruptions = []
        bad = copy(PATH2)
        bad["edges"][1]["moves"][0]["path"] = [2, 0]  # not an edge
        corruptions.append(bad)
        bad = copy(PATH2)
        bad["boards"][3] = [1, 1]  # off-by-one bin
        corruptions.append(bad)
        bad = copy(PATH2)
        del bad["edges"][2]  # a board with no way down
        corruptions.append(bad)
        bad = copy(PATH2)
        bad["truncated"] = True
        corruptions.append(bad)
        bad = copy(PATH2)
        bad["boards"].pop()
        bad["edges"].pop()
        corruptions.append(bad)  # incomplete: path game != linear game
        for bad in corruptions:
            with self.assertRaises(o.CheckFailed):
                o.check_game(spec, bad, o.linear_boards(2))

    def test_product_law(self):
        self.assertEqual(len(o.star_boards(2, 3)), len(o.linear_boards(3)) ** 2)
        self.assertEqual(len(o.linear_boards(3)), 6)

    def test_cycle_totals(self):
        self.assertEqual(o.cycle_totals(4, 9), [0, 1, 2, 3, 4, 5, 7, 8, 11])
        self.assertEqual(
            o.cycle_totals(3, 20),
            [0, 1, 2, 3, 5, 7, 10, 14, 18, 27, 29, 34, 48, 57, 84, 89, 103, 144, 168, 240],
        )
        op = w.cycle_counts_op(None, 4, 9)
        with self.assertRaises(o.CheckFailed):
            op.check([0, 1, 2, 3, 4, 5, 7, 8, 12])

    def test_dot(self):
        text = "\n".join([
            "digraph sowing_game {",
            '  "[0,0]";', '  "[1,0]";', '  "[0,2]";', '  "[1,2]";',
            '  "[1,0]" -> "[0,0]" [label="v1"];',
            '  "[0,2]" -> "[1,0]" [label="v2"];',
            '  "[1,2]" -> "[0,2]" [label="v1"];',
            "}",
        ])
        o.check_dot(PATH2, text)
        with self.assertRaises(o.CheckFailed):
            o.check_dot(PATH2, text.replace('"[1,2]" -> "[0,2]"', '"[1,2]" -> "[1,0]"'))


class Cli(unittest.TestCase):
    def test_board(self):
        w.check_board_out('{"bins": [1, 2, 0, 2, 4, 6], "stones": 15, "length": 6}', "json", 15, False)
        w.check_board_out("[0,1,3]\n3 1 2 1\n", "table", 4, True)
        for out, fmt, moves in [('{"bins": [1, 2, 0, 2, 4, 6], "stones": 15, "length": 5}', "json", False),
                                ("1,2,0,2,4,7\n", "csv", False), ("[0,1,3]\n3 2 1 1\n", "table", True)]:
            with self.assertRaises(o.CheckFailed):
                w.check_board_out(out, fmt, 4 if moves else 15, moves)

    def test_table(self):
        w.check_table_out("n,l,b1,b2\n0,0,0,0\n1,1,1,0\n2,2,0,2\n", "csv", 2)
        with self.assertRaises(o.CheckFailed):
            w.check_table_out("n,l,b1,b2\n0,0,0,0\n1,1,1,0\n2,2,1,1\n", "csv", 2)

    def test_nf_and_sieve(self):
        w.check_nf_out(o.MinStones(), '{"lower": 12, "value": 12, "upper": 21}', "--bounds", 6)
        with self.assertRaises(o.CheckFailed):
            w.check_nf_out(o.MinStones(), '{"value": 13}', "value", 6)
        with self.assertRaises(o.CheckFailed):
            w.check_sieve_out("4 6 10 12 16 18 22 24 26", "table", 3, 9)

    def test_reconstruct(self):
        bins = ",".join(map(str, o.walk_bins(34)))
        w.check_reconstruct_out(f"n=34\n[{bins}]\n", "table", {3: 1, 7: 2}, True)
        with self.assertRaises(o.CheckFailed):
            w.check_reconstruct_out('{"n": 202, "bins": %s, "minimal": true}' % list(o.walk_bins(202)),
                                    "json", {3: 1, 7: 2}, True)

    def test_exit_code_and_stderr(self):
        w.check_cli_result((0, "x", ""), 0, lambda out: None)
        for result in ((2, "", "error: boom"), (0, "x", "warning")):
            with self.assertRaises(o.CheckFailed):
                w.check_cli_result(result, 0, lambda out: None)


if __name__ == "__main__":
    unittest.main()

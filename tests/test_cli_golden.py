"""Exact bytes of `tchouk` output: stdout, stderr and exit code per format.

Each case runs in the default format and with ``--format`` table, json
and csv; the default must print what table prints.  ``table 12 --bins 11``
takes its header past b9, where the table's columns widen.  A case that lists
only table (``dot``) prints the same text for every format.  The graph
files are a path, a 4-cycle and a star of two 2-bin spokes, each with its
Ruma at vertex 0; the star's game is the product of its spokes' games.
"""

import contextlib
import io
import json

import pytest

from tchoukaillon.cli import main

GRAPHS = {
    "PATH3": {"vertices": 4, "edges": [[1, 0], [2, 1], [3, 2]], "ruma": [0]},
    "CYCLE4": {"vertices": 4, "edges": [[1, 0], [2, 1], [3, 2], [0, 3]], "ruma": [0]},
    "STAR22": {"vertices": 5, "edges": [[1, 0], [2, 1], [3, 0], [4, 3]], "ruma": [0]},
}

GOLDEN = {
    ("board", "15"): {
        "table": (0, "[1,2,0,2,4,6]\n", ""),
        "json": (0, '{"bins": [1, 2, 0, 2, 4, 6], "stones": 15, "length": 6}\n', ""),
        "csv": (0, "1,2,0,2,4,6\n", ""),
    },
    ("board", "29", "--moves"): {
        "table": (0, (
            "[1,1,3,4,2,4,6,8]\n"
            "1 3 1 2 1 4 1 8 1 2 1 7 1 3 1 2 1 6 1 5 1 2 1 4 1 3 1 2 1\n"
        ), ""),
        "json": (0, (
            '{"bins": [1, 1, 3, 4, 2, 4, 6, 8], "stones": 29, "length": 8, "moves": [1, 3, '
            "1, 2, 1, 4, 1, 8, 1, 2, 1, 7, 1, 3, 1, 2, 1, 6, 1, 5, 1, 2, 1, 4, 1, 3, 1, 2, "
            "1]}\n"
        ), ""),
        "csv": (0, (
            "1,1,3,4,2,4,6,8\n"
            "1,3,1,2,1,4,1,8,1,2,1,7,1,3,1,2,1,6,1,5,1,2,1,4,1,3,1,2,1\n"
        ), ""),
    },
    ("table", "17"): {
        "table": (0, (
            " n l b1 b2 b3 b4 b5 b6\n"
            " 0 0  0  0  0  0  0  0\n"
            " 1 1  1  0  0  0  0  0\n"
            " 2 2  0  2  0  0  0  0\n"
            " 3 2  1  2  0  0  0  0\n"
            " 4 3  0  1  3  0  0  0\n"
            " 5 3  1  1  3  0  0  0\n"
            " 6 4  0  0  2  4  0  0\n"
            " 7 4  1  0  2  4  0  0\n"
            " 8 4  0  2  2  4  0  0\n"
            " 9 4  1  2  2  4  0  0\n"
            "10 5  0  1  1  3  5  0\n"
            "11 5  1  1  1  3  5  0\n"
            "12 6  0  0  0  2  4  6\n"
            "13 6  1  0  0  2  4  6\n"
            "14 6  0  2  0  2  4  6\n"
            "15 6  1  2  0  2  4  6\n"
            "16 6  0  1  3  2  4  6\n"
            "17 6  1  1  3  2  4  6\n"
        ), ""),
        "json": (0, (
            '[{"n": 0, "length": 0, "bins": []}, {"n": 1, "length": 1, "bins": [1]}, {"n": '
            '2, "length": 2, "bins": [0, 2]}, {"n": 3, "length": 2, "bins": [1, 2]}, {"n": '
            '4, "length": 3, "bins": [0, 1, 3]}, {"n": 5, "length": 3, "bins": [1, 1, 3]}, '
            '{"n": 6, "length": 4, "bins": [0, 0, 2, 4]}, {"n": 7, "length": 4, "bins": [1, '
            '0, 2, 4]}, {"n": 8, "length": 4, "bins": [0, 2, 2, 4]}, {"n": 9, "length": 4, '
            '"bins": [1, 2, 2, 4]}, {"n": 10, "length": 5, "bins": [0, 1, 1, 3, 5]}, {"n": '
            '11, "length": 5, "bins": [1, 1, 1, 3, 5]}, {"n": 12, "length": 6, "bins": [0, '
            '0, 0, 2, 4, 6]}, {"n": 13, "length": 6, "bins": [1, 0, 0, 2, 4, 6]}, {"n": 14, '
            '"length": 6, "bins": [0, 2, 0, 2, 4, 6]}, {"n": 15, "length": 6, "bins": [1, 2, '
            '0, 2, 4, 6]}, {"n": 16, "length": 6, "bins": [0, 1, 3, 2, 4, 6]}, {"n": 17, '
            '"length": 6, "bins": [1, 1, 3, 2, 4, 6]}]\n'
        ), ""),
        "csv": (0, (
            "n,l,b1,b2,b3,b4,b5,b6\n"
            "0,0,0,0,0,0,0,0\n"
            "1,1,1,0,0,0,0,0\n"
            "2,2,0,2,0,0,0,0\n"
            "3,2,1,2,0,0,0,0\n"
            "4,3,0,1,3,0,0,0\n"
            "5,3,1,1,3,0,0,0\n"
            "6,4,0,0,2,4,0,0\n"
            "7,4,1,0,2,4,0,0\n"
            "8,4,0,2,2,4,0,0\n"
            "9,4,1,2,2,4,0,0\n"
            "10,5,0,1,1,3,5,0\n"
            "11,5,1,1,1,3,5,0\n"
            "12,6,0,0,0,2,4,6\n"
            "13,6,1,0,0,2,4,6\n"
            "14,6,0,2,0,2,4,6\n"
            "15,6,1,2,0,2,4,6\n"
            "16,6,0,1,3,2,4,6\n"
            "17,6,1,1,3,2,4,6\n"
        ), ""),
    },
    ("table", "5", "--bins", "9"): {
        "table": (0, (
            "n l b1 b2 b3 b4 b5 b6 b7 b8 b9\n"
            "0 0  0  0  0  0  0  0  0  0  0\n"
            "1 1  1  0  0  0  0  0  0  0  0\n"
            "2 2  0  2  0  0  0  0  0  0  0\n"
            "3 2  1  2  0  0  0  0  0  0  0\n"
            "4 3  0  1  3  0  0  0  0  0  0\n"
            "5 3  1  1  3  0  0  0  0  0  0\n"
        ), ""),
        "json": (0, (
            '[{"n": 0, "length": 0, "bins": []}, {"n": 1, "length": 1, "bins": [1]}, {"n": '
            '2, "length": 2, "bins": [0, 2]}, {"n": 3, "length": 2, "bins": [1, 2]}, {"n": '
            '4, "length": 3, "bins": [0, 1, 3]}, {"n": 5, "length": 3, "bins": [1, 1, 3]}]\n'
        ), ""),
        "csv": (0, (
            "n,l,b1,b2,b3,b4,b5,b6,b7,b8,b9\n"
            "0,0,0,0,0,0,0,0,0,0,0\n"
            "1,1,1,0,0,0,0,0,0,0,0\n"
            "2,2,0,2,0,0,0,0,0,0,0\n"
            "3,2,1,2,0,0,0,0,0,0,0\n"
            "4,3,0,1,3,0,0,0,0,0,0\n"
            "5,3,1,1,3,0,0,0,0,0,0\n"
        ), ""),
    },
    ("table", "12", "--bins", "11"): {
        "table": (0, (
            " n l b1 b2 b3 b4 b5 b6 b7 b8 b9 b10 b11\n"
            " 0 0  0  0  0  0  0  0  0  0  0   0   0\n"
            " 1 1  1  0  0  0  0  0  0  0  0   0   0\n"
            " 2 2  0  2  0  0  0  0  0  0  0   0   0\n"
            " 3 2  1  2  0  0  0  0  0  0  0   0   0\n"
            " 4 3  0  1  3  0  0  0  0  0  0   0   0\n"
            " 5 3  1  1  3  0  0  0  0  0  0   0   0\n"
            " 6 4  0  0  2  4  0  0  0  0  0   0   0\n"
            " 7 4  1  0  2  4  0  0  0  0  0   0   0\n"
            " 8 4  0  2  2  4  0  0  0  0  0   0   0\n"
            " 9 4  1  2  2  4  0  0  0  0  0   0   0\n"
            "10 5  0  1  1  3  5  0  0  0  0   0   0\n"
            "11 5  1  1  1  3  5  0  0  0  0   0   0\n"
            "12 6  0  0  0  2  4  6  0  0  0   0   0\n"
        ), ""),
        "json": (0, (
            '[{"n": 0, "length": 0, "bins": []}, {"n": 1, "length": 1, "bins": [1]}, {"n": 2, '
            '"length": 2, "bins": [0, 2]}, {"n": 3, "length": 2, "bins": [1, 2]}, {"n": 4, '
            '"length": 3, "bins": [0, 1, 3]}, {"n": 5, "length": 3, "bins": [1, 1, 3]}, {"n": '
            '6, "length": 4, "bins": [0, 0, 2, 4]}, {"n": 7, "length": 4, "bins": [1, 0, 2, '
            '4]}, {"n": 8, "length": 4, "bins": [0, 2, 2, 4]}, {"n": 9, "length": 4, "bins": '
            '[1, 2, 2, 4]}, {"n": 10, "length": 5, "bins": [0, 1, 1, 3, 5]}, {"n": 11, '
            '"length": 5, "bins": [1, 1, 1, 3, 5]}, {"n": 12, "length": 6, "bins": [0, 0, 0, '
            '2, 4, 6]}]\n'
        ), ""),
        "csv": (0, (
            "n,l,b1,b2,b3,b4,b5,b6,b7,b8,b9,b10,b11\n"
            "0,0,0,0,0,0,0,0,0,0,0,0,0\n"
            "1,1,1,0,0,0,0,0,0,0,0,0,0\n"
            "2,2,0,2,0,0,0,0,0,0,0,0,0\n"
            "3,2,1,2,0,0,0,0,0,0,0,0,0\n"
            "4,3,0,1,3,0,0,0,0,0,0,0,0\n"
            "5,3,1,1,3,0,0,0,0,0,0,0,0\n"
            "6,4,0,0,2,4,0,0,0,0,0,0,0\n"
            "7,4,1,0,2,4,0,0,0,0,0,0,0\n"
            "8,4,0,2,2,4,0,0,0,0,0,0,0\n"
            "9,4,1,2,2,4,0,0,0,0,0,0,0\n"
            "10,5,0,1,1,3,5,0,0,0,0,0,0\n"
            "11,5,1,1,1,3,5,0,0,0,0,0,0\n"
            "12,6,0,0,0,2,4,6,0,0,0,0,0\n"
        ), ""),
    },
    ("enumerate", "7"): {
        "table": (0, (
            "[0,0,2,1,3,5,7]\n"
            "[1,0,2,1,3,5,7]\n"
            "[0,2,2,1,3,5,7]\n"
            "[1,2,2,1,3,5,7]\n"
        ), ""),
        "json": (0, (
            "[[0, 0, 2, 1, 3, 5, 7], [1, 0, 2, 1, 3, 5, 7], [0, 2, 2, 1, 3, 5, 7], [1, 2, 2, "
            "1, 3, 5, 7]]\n"
        ), ""),
        "csv": (0, (
            "0,0,2,1,3,5,7\n"
            "1,0,2,1,3,5,7\n"
            "0,2,2,1,3,5,7\n"
            "1,2,2,1,3,5,7\n"
        ), ""),
    },
    ("nf", "6"): {
        "table": (0, "12\n", ""),
        "json": (0, '{"value": 12}\n', ""),
        "csv": (0, "12\n", ""),
    },
    ("nf", "--sequence", "12"): {
        "table": (0, "1 2 4 6 10 12 18 22 30 34 42 48\n", ""),
        "json": (0, "[1, 2, 4, 6, 10, 12, 18, 22, 30, 34, 42, 48]\n", ""),
        "csv": (0, "1,2,4,6,10,12,18,22,30,34,42,48\n", ""),
    },
    ("nf", "6", "--bounds"): {
        "table": (0, "12 12 21\n", ""),
        "json": (0, '{"lower": 12, "value": 12, "upper": 21}\n', ""),
        "csv": (0, "12,12,21\n", ""),
    },
    ("sieve", "3", "9"): {
        "table": (0, "4 6 10 12 16 18 22 24 28\n", ""),
        "json": (0, "[4, 6, 10, 12, 16, 18, 22, 24, 28]\n", ""),
        "csv": (0, "4,6,10,12,16,18,22,24,28\n", ""),
    },
    ("reconstruct", "m3=1", "m7=2"): {
        "table": (0, (
            "n=202\n"
            "[0,1,1,0,2,2,4,3,9,4,8,12,2,4,6,8,10,12,14,16,18,20,22,24]\n"
        ), ""),
        "json": (0, (
            '{"n": 202, "bins": [0, 1, 1, 0, 2, 2, 4, 3, 9, 4, 8, 12, 2, 4, 6, 8, 10, 12, '
            '14, 16, 18, 20, 22, 24], "minimal": false}\n'
        ), ""),
        "csv": (0, (
            "202\n"
            "0,1,1,0,2,2,4,3,9,4,8,12,2,4,6,8,10,12,14,16,18,20,22,24\n"
        ), ""),
    },
    ("reconstruct", "m3=1", "m7=2", "--minimal"): {
        "table": (0, (
            "n=34\n"
            "[0,1,1,2,0,2,4,6,8,10]\n"
        ), ""),
        "json": (0, (
            '{"n": 34, "bins": [0, 1, 1, 2, 0, 2, 4, 6, 8, 10], "minimal": true}\n'
        ), ""),
        "csv": (0, (
            "34\n"
            "0,1,1,2,0,2,4,6,8,10\n"
        ), ""),
    },
    ("reconstruct", "m5=1", "m6=2"): {
        "table": (1, (
            "infeasible: no allowable completion extends {5: 1, 6: 2}\n"
        ), ""),
        "json": (1, (
            "infeasible: no allowable completion extends {5: 1, 6: 2}\n"
        ), ""),
        "csv": (1, (
            "infeasible: no allowable completion extends {5: 1, 6: 2}\n"
        ), ""),
    },
    ("graph", "PATH3", "check-finite"): {
        "table": (0, "finite\n", ""),
        "json": (0, '{"finite": true, "witness": null}\n', ""),
        "csv": (0, "finite\n", ""),
    },
    ("graph", "PATH3", "enumerate"): {
        "table": (0, (
            "[0,0,0]\n"
            "[1,0,0]\n"
            "[0,2,0]\n"
            "[1,2,0]\n"
            "[0,1,3]\n"
            "[1,1,3]\n"
        ), ""),
        "json": (0, (
            '{"truncated": false, "boards": [[0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 2, 0], [0, '
            '1, 3], [1, 1, 3]], "edges": [{"from": 1, "to": 0, "moves": [{"vertex": 1, '
            '"ruma": 0, "path": [1, 0]}]}, {"from": 2, "to": 1, "moves": [{"vertex": 2, '
            '"ruma": 0, "path": [2, 1, 0]}]}, {"from": 3, "to": 2, "moves": [{"vertex": 1, '
            '"ruma": 0, "path": [1, 0]}]}, {"from": 4, "to": 3, "moves": [{"vertex": 3, '
            '"ruma": 0, "path": [3, 2, 1, 0]}]}, {"from": 5, "to": 4, "moves": [{"vertex": '
            '1, "ruma": 0, "path": [1, 0]}]}]}\n'
        ), ""),
        "csv": (0, (
            "[0,0,0]\n"
            "[1,0,0]\n"
            "[0,2,0]\n"
            "[1,2,0]\n"
            "[0,1,3]\n"
            "[1,1,3]\n"
        ), ""),
    },
    ("graph", "PATH3", "dot"): {
        "table": (0, (
            "digraph sowing_game {\n"
            '  "[0,0,0]";\n'
            '  "[1,0,0]";\n'
            '  "[0,2,0]";\n'
            '  "[1,2,0]";\n'
            '  "[0,1,3]";\n'
            '  "[1,1,3]";\n'
            '  "[1,0,0]" -> "[0,0,0]" [label="v1"];\n'
            '  "[0,2,0]" -> "[1,0,0]" [label="v2"];\n'
            '  "[1,2,0]" -> "[0,2,0]" [label="v1"];\n'
            '  "[0,1,3]" -> "[1,2,0]" [label="v3"];\n'
            '  "[1,1,3]" -> "[0,1,3]" [label="v1"];\n'
            "}\n"
        ), ""),
    },
    ("graph", "STAR22", "enumerate"): {
        "table": (0, (
            "[0,0,0,0]\n"
            "[1,0,0,0]\n"
            "[0,0,1,0]\n"
            "[0,2,0,0]\n"
            "[1,0,1,0]\n"
            "[0,0,0,2]\n"
            "[1,2,0,0]\n"
            "[0,2,1,0]\n"
            "[1,0,0,2]\n"
            "[0,0,1,2]\n"
            "[1,2,1,0]\n"
            "[0,2,0,2]\n"
            "[1,0,1,2]\n"
            "[1,2,0,2]\n"
            "[0,2,1,2]\n"
            "[1,2,1,2]\n"
        ), ""),
        "json": (0, (
            '{"truncated": false, "boards": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 2, '
            '0, 0], [1, 0, 1, 0], [0, 0, 0, 2], [1, 2, 0, 0], [0, 2, 1, 0], [1, 0, 0, 2], [0, '
            '0, 1, 2], [1, 2, 1, 0], [0, 2, 0, 2], [1, 0, 1, 2], [1, 2, 0, 2], [0, 2, 1, 2], '
            '[1, 2, 1, 2]], "edges": [{"from": 1, "to": 0, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}, {"from": 2, "to": 0, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 3, "to": 1, "moves": [{"vertex": 2, "ruma": 0, '
            '"path": [2, 1, 0]}]}, {"from": 4, "to": 1, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 4, "to": 2, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}, {"from": 5, "to": 2, "moves": [{"vertex": 4, "ruma": 0, '
            '"path": [4, 3, 0]}]}, {"from": 6, "to": 3, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}, {"from": 7, "to": 3, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 7, "to": 4, "moves": [{"vertex": 2, "ruma": 0, '
            '"path": [2, 1, 0]}]}, {"from": 8, "to": 4, "moves": [{"vertex": 4, "ruma": 0, '
            '"path": [4, 3, 0]}]}, {"from": 8, "to": 5, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}, {"from": 9, "to": 5, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 10, "to": 6, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 10, "to": 7, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}, {"from": 11, "to": 7, "moves": [{"vertex": 4, "ruma": 0, '
            '"path": [4, 3, 0]}]}, {"from": 11, "to": 8, "moves": [{"vertex": 2, "ruma": 0, '
            '"path": [2, 1, 0]}]}, {"from": 12, "to": 8, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 12, "to": 9, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}, {"from": 13, "to": 10, "moves": [{"vertex": 4, "ruma": 0, '
            '"path": [4, 3, 0]}]}, {"from": 13, "to": 11, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}, {"from": 14, "to": 11, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 14, "to": 12, "moves": [{"vertex": 2, "ruma": 0, '
            '"path": [2, 1, 0]}]}, {"from": 15, "to": 13, "moves": [{"vertex": 3, "ruma": 0, '
            '"path": [3, 0]}]}, {"from": 15, "to": 14, "moves": [{"vertex": 1, "ruma": 0, '
            '"path": [1, 0]}]}]}\n'
        ), ""),
        "csv": (0, (
            "[0,0,0,0]\n"
            "[1,0,0,0]\n"
            "[0,0,1,0]\n"
            "[0,2,0,0]\n"
            "[1,0,1,0]\n"
            "[0,0,0,2]\n"
            "[1,2,0,0]\n"
            "[0,2,1,0]\n"
            "[1,0,0,2]\n"
            "[0,0,1,2]\n"
            "[1,2,1,0]\n"
            "[0,2,0,2]\n"
            "[1,0,1,2]\n"
            "[1,2,0,2]\n"
            "[0,2,1,2]\n"
            "[1,2,1,2]\n"
        ), ""),
    },
    ("graph", "STAR22", "dot"): {
        "table": (0, (
            "digraph sowing_game {\n"
            '  "[0,0,0,0]";\n'
            '  "[1,0,0,0]";\n'
            '  "[0,0,1,0]";\n'
            '  "[0,2,0,0]";\n'
            '  "[1,0,1,0]";\n'
            '  "[0,0,0,2]";\n'
            '  "[1,2,0,0]";\n'
            '  "[0,2,1,0]";\n'
            '  "[1,0,0,2]";\n'
            '  "[0,0,1,2]";\n'
            '  "[1,2,1,0]";\n'
            '  "[0,2,0,2]";\n'
            '  "[1,0,1,2]";\n'
            '  "[1,2,0,2]";\n'
            '  "[0,2,1,2]";\n'
            '  "[1,2,1,2]";\n'
            '  "[1,0,0,0]" -> "[0,0,0,0]" [label="v1"];\n'
            '  "[0,0,1,0]" -> "[0,0,0,0]" [label="v3"];\n'
            '  "[0,2,0,0]" -> "[1,0,0,0]" [label="v2"];\n'
            '  "[1,0,1,0]" -> "[1,0,0,0]" [label="v3"];\n'
            '  "[1,0,1,0]" -> "[0,0,1,0]" [label="v1"];\n'
            '  "[0,0,0,2]" -> "[0,0,1,0]" [label="v4"];\n'
            '  "[1,2,0,0]" -> "[0,2,0,0]" [label="v1"];\n'
            '  "[0,2,1,0]" -> "[0,2,0,0]" [label="v3"];\n'
            '  "[0,2,1,0]" -> "[1,0,1,0]" [label="v2"];\n'
            '  "[1,0,0,2]" -> "[1,0,1,0]" [label="v4"];\n'
            '  "[1,0,0,2]" -> "[0,0,0,2]" [label="v1"];\n'
            '  "[0,0,1,2]" -> "[0,0,0,2]" [label="v3"];\n'
            '  "[1,2,1,0]" -> "[1,2,0,0]" [label="v3"];\n'
            '  "[1,2,1,0]" -> "[0,2,1,0]" [label="v1"];\n'
            '  "[0,2,0,2]" -> "[0,2,1,0]" [label="v4"];\n'
            '  "[0,2,0,2]" -> "[1,0,0,2]" [label="v2"];\n'
            '  "[1,0,1,2]" -> "[1,0,0,2]" [label="v3"];\n'
            '  "[1,0,1,2]" -> "[0,0,1,2]" [label="v1"];\n'
            '  "[1,2,0,2]" -> "[1,2,1,0]" [label="v4"];\n'
            '  "[1,2,0,2]" -> "[0,2,0,2]" [label="v1"];\n'
            '  "[0,2,1,2]" -> "[0,2,0,2]" [label="v3"];\n'
            '  "[0,2,1,2]" -> "[1,0,1,2]" [label="v2"];\n'
            '  "[1,2,1,2]" -> "[1,2,0,2]" [label="v3"];\n'
            '  "[1,2,1,2]" -> "[0,2,1,2]" [label="v1"];\n'
            "}\n"
        ), ""),
    },
    ("graph", "CYCLE4", "check-finite"): {
        "table": (1, (
            "infinite: ruma 0 and vertex 1 lie on a common directed cycle\n"
        ), ""),
        "json": (1, '{"finite": false, "witness": [0, 1]}\n', ""),
        "csv": (1, (
            "infinite: ruma 0 and vertex 1 lie on a common directed cycle\n"
        ), ""),
    },
    ("graph", "CYCLE4", "enumerate", "--cap", "9"): {
        "table": (1, (
            "[0,0,0]\n"
            "[1,0,0]\n"
            "[0,2,0]\n"
            "[1,2,0]\n"
            "[0,1,3]\n"
            "[1,1,3]\n"
            "[5,0,2]\n"
            "[4,2,2]\n"
            "[1,10,0]\n"
        ), "truncated at cap=9\n"),
        "json": (1, (
            '{"truncated": true, "boards": [[0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 2, 0], [0, '
            '1, 3], [1, 1, 3], [5, 0, 2], [4, 2, 2], [1, 10, 0]], "edges": [{"from": 1, '
            '"to": 0, "moves": [{"vertex": 1, "ruma": 0, "path": [1, 0]}]}, {"from": 2, '
            '"to": 1, "moves": [{"vertex": 2, "ruma": 0, "path": [2, 1, 0]}]}, {"from": 3, '
            '"to": 2, "moves": [{"vertex": 1, "ruma": 0, "path": [1, 0]}]}, {"from": 4, '
            '"to": 3, "moves": [{"vertex": 3, "ruma": 0, "path": [3, 2, 1, 0]}]}, {"from": '
            '5, "to": 4, "moves": [{"vertex": 1, "ruma": 0, "path": [1, 0]}]}, {"from": 6, '
            '"to": 5, "moves": [{"vertex": 1, "ruma": 0, "path": [1, 0, 3, 2, 1, 0]}]}, '
            '{"from": 7, "to": 6, "moves": [{"vertex": 2, "ruma": 0, "path": [2, 1, 0]}]}, '
            '{"from": 8, "to": 7, "moves": [{"vertex": 2, "ruma": 0, "path": [2, 1, 0, 3, 2, '
            "1, 0, 3, 2, 1, 0]}]}]}\n"
        ), "truncated at cap=9\n"),
        "csv": (1, (
            "[0,0,0]\n"
            "[1,0,0]\n"
            "[0,2,0]\n"
            "[1,2,0]\n"
            "[0,1,3]\n"
            "[1,1,3]\n"
            "[5,0,2]\n"
            "[4,2,2]\n"
            "[1,10,0]\n"
        ), "truncated at cap=9\n"),
    },
    ("graph", "CYCLE4", "dot", "--cap", "9"): {
        "table": (1, (
            "digraph sowing_game {\n"
            '  "[0,0,0]";\n'
            '  "[1,0,0]";\n'
            '  "[0,2,0]";\n'
            '  "[1,2,0]";\n'
            '  "[0,1,3]";\n'
            '  "[1,1,3]";\n'
            '  "[5,0,2]";\n'
            '  "[4,2,2]";\n'
            '  "[1,10,0]";\n'
            '  "[1,0,0]" -> "[0,0,0]" [label="v1"];\n'
            '  "[0,2,0]" -> "[1,0,0]" [label="v2"];\n'
            '  "[1,2,0]" -> "[0,2,0]" [label="v1"];\n'
            '  "[0,1,3]" -> "[1,2,0]" [label="v3"];\n'
            '  "[1,1,3]" -> "[0,1,3]" [label="v1"];\n'
            '  "[5,0,2]" -> "[1,1,3]" [label="v1"];\n'
            '  "[4,2,2]" -> "[5,0,2]" [label="v2"];\n'
            '  "[1,10,0]" -> "[4,2,2]" [label="v2"];\n'
            "}\n"
        ), "truncated at cap=9\n"),
    },
}


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    for name, doc in GRAPHS.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(root / f"{name}.json") for name in GRAPHS}


def run(argv, graph_files):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([graph_files.get(arg, arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", [None, "table", "json", "csv"])
@pytest.mark.parametrize("case", GOLDEN, ids=" ".join)
def test_output_bytes(case, fmt, graph_files):
    expected = GOLDEN[case]
    argv = case if fmt is None else case + ("--format", fmt)
    assert run(argv, graph_files) == expected.get(fmt or "table", expected["table"])

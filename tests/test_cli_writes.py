"""`tchouk` prints a long row in bounded pieces and a short row in one write.

A board's bins or a table row can run to millions of cells; joined into
one string, they cost several times the memory of the board itself.
"""

import sys

import pytest

from tchoukaillon import board_from_stones, cli

BOUND = 1 << 16  # characters in any one write


def writes_of(monkeypatch, argv: list[str]) -> list[str]:
    """Run `tchouk argv`, returning the text of each write to stdout in order."""
    texts = []

    class Stdout:
        def write(self, text):
            texts.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert cli.main(argv) == 0
    monkeypatch.undo()
    return texts


@pytest.mark.parametrize("fmt, line", [("table", "[{}]\n"), ("csv", "{}\n")])
def test_bins_of_a_large_board_print_in_bounded_writes(monkeypatch, fmt, line):
    bins = board_from_stones(10**12).bins
    assert len(bins) > 1_700_000
    writes = writes_of(monkeypatch, ["board", str(10**12), "--format", fmt])
    assert max(map(len, writes)) <= BOUND
    assert "".join(writes) == line.format(",".join(map(str, bins)))


@pytest.mark.parametrize("fmt, sep", [("table", None), ("csv", ",")])
def test_a_wide_table_row_prints_in_bounded_writes(monkeypatch, fmt, sep):
    writes = writes_of(monkeypatch, ["table", "1", "--bins", "100000", "--format", fmt])
    assert max(map(len, writes)) <= BOUND
    header, zero, one = ("".join(writes)).splitlines()
    assert header.split(sep) == ["n", "l", *(f"b{i}" for i in range(1, 100_001))]
    assert zero.split(sep) == ["0", "0", *["0"] * 100_000]
    assert one.split(sep) == ["1", "1", "1", *["0"] * 99_999]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["board", "15"], ["[1,2,0,2,4,6]\n"]),
        (["board", "4", "--moves", "--format", "csv"], ["0,1,3\n", "3,1,2,1\n"]),
        (["table", "2", "--format", "csv"], ["n,l,b1,b2\n", "0,0,0,0\n", "1,1,1,0\n", "2,2,0,2\n"]),
    ],
)
def test_a_short_row_is_one_write(monkeypatch, argv, lines):
    assert writes_of(monkeypatch, argv) == lines

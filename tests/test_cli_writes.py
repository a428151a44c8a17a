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


def table_by_cells(n_max: int, columns: int, fmt: str) -> str:
    """The table as it was printed one cell at a time, each padded to its column's width in a table."""
    boards = [board_from_stones(n).bins for n in range(n_max + 1)]
    header = ["n", "l", *(f"b{i}" for i in range(1, columns + 1))]
    rows = [header] + [[n, len(bins), *bins, *[0] * (columns - len(bins))] for n, bins in enumerate(boards)]
    if fmt == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in rows)
    widths = [len(str(n_max)), len(str(len(boards[-1]))), *map(len, header[2:])]
    return "".join(" ".join(map(str.rjust, map(str, row), widths)) + "\n" for row in rows)


@pytest.mark.parametrize("chunk", [7, 4096])
@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_wide_table_matches_the_per_cell_form(monkeypatch, fmt, chunk):
    # 5,000 columns take the headers past b9, b99 and b999, where the
    # padded zeros widen; a chunk of 7 cells cuts rows inside their bins.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    writes = writes_of(monkeypatch, ["table", "30", "--bins", "5000", "--format", fmt])
    assert "".join(writes) == table_by_cells(30, 5000, fmt)
    # No write holds more than a chunk of cells: in csv a write may start with its separator.
    assert max(len(text.split()) if fmt == "table" else text.count(",") for text in writes) <= chunk


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

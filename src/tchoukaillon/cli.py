"""Command-line front end.

Every library capability is reachable from here for scripting and
golden-output generation.  Exit codes: 0 on success, 1 for semantic
negatives (infeasible constraints, infinite or truncated game graphs),
2 for usage errors and overflow.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from collections.abc import Iterator
from itertools import chain, islice

from . import _MODULE_OF
from .checked import DEFAULT_BOARD_CAP, MAX_BOARD_BINS, as_uint

FORMATS = ("table", "json", "csv")

_CHUNK = 4096  # cells or bins per write of a long row


def __getattr__(name: str):
    # A library name is bound here on first read, through the package's
    # hook, which imports only its module: `tchouk board` never imports
    # crt or graph.  Commands read names off this module (_lib) at each
    # call, so a replacement set here (a tracer, say) is what they call.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


_lib = sys.modules[__name__]


def _emit(fmt: str, doc, rows) -> None:
    """Print a result in *fmt*: the JSON document, or the rows one per line.

    Only json calls *doc*, and only csv and table iterate *rows*, so a
    format builds only what it prints.  A *doc* that returns an iterator
    is printed as a JSON array one item at a time, in the bytes
    ``json.dumps`` gives the whole list.  Cells are joined by "," in csv
    and by a space in a table.  A row that is a tuple holds bins, printed
    ``[a,b,c]`` in a table and ``a,b,c`` in csv.  A row is written in
    pieces of at most ``_CHUNK`` cells, so a short row takes one write
    and a long one is never held whole as text.  A row that is an iterator
    brings its own pieces: text of at most ``_CHUNK`` cells each, already
    joined by the format's separator, and one piece at least.
    """
    write = sys.stdout.write
    if fmt == "json":
        import json  # loaded only by json output and the JSON input files
        doc = doc()
        if not isinstance(doc, Iterator):
            print(json.dumps(doc))
            return
        write("[")
        for i, item in enumerate(doc):
            write(", " + json.dumps(item) if i else json.dumps(item))
        write("]\n")
        return
    sep, bins = (",", ("", "")) if fmt == "csv" else (" ", ("[", "]"))
    for row in rows:
        joiner, (text, close) = (",", bins) if isinstance(row, tuple) else (sep, ("", ""))
        pieces = row if isinstance(row, Iterator) else _pieces(row, joiner)
        text += next(pieces)
        for piece in pieces:
            write(text)
            text = joiner + piece
        write(text + close + "\n")


def _pieces(row, joiner: str) -> Iterator[str]:
    # The cells of *row* joined by *joiner*, _CHUNK at a time; one piece at least.
    cells = map(str, row)
    yield joiner.join(islice(cells, _CHUNK))
    while chunk := list(islice(cells, _CHUNK)):
        yield joiner.join(chunk)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table", help="output format")


def cmd_board(args: argparse.Namespace) -> int:
    board = _lib.board_from_stones(args.n)
    moves = {"moves": _lib.play_sequence(args.n)} if args.moves else {}
    _emit(
        args.format,
        lambda: {"bins": board.to_json(), "stones": board.stones, "length": board.length, **moves},
        [board.bins, *moves.values()],
    )
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    n_max = as_uint(args.n_max, "n_max")
    # Every board past n = 0 has a bin, so more rows than the budget never fit.
    if n_max >= MAX_BOARD_BINS:
        raise OverflowError(f"a table of {n_max + 1} boards passes the budget of {MAX_BOARD_BINS} bins")
    # Board length never decreases in n, so the last board is the longest.
    last = _lib.board_from_stones(n_max)
    columns = last.length if args.bins is None else as_uint(args.bins, "--bins")
    if columns < last.length:
        raise ValueError(f"--bins {columns} would hide bins; the longest board has {last.length}")
    if (n_max + 1) * columns > MAX_BOARD_BINS:
        raise OverflowError(
            f"a table of {n_max + 1} boards by {columns} bins passes the budget of {MAX_BOARD_BINS} bins"
        )
    # Each format reads the boards once, building each as it prints it.
    boards = map(_lib.board_from_stones, range(n_max + 1))
    table = args.format == "table"
    sep = " " if table else ","

    # A row is printed in pieces of _CHUNK cells: its first cells one at a
    # time, then the header names or the zero tail, whose text comes from
    # one join or one repetition per piece instead of a call per cell.
    def names(a: int, b: int) -> str:
        return "b" + (sep + "b").join(map(str, range(a, b)))

    def zeros(a: int, b: int) -> str:
        # Bins a..b-1 hold 0; in a table each is padded to the width of
        # its header b<i>, the same for every i with as many digits.
        text = ""
        while a < b:
            digits = len(str(a))
            end = min(b, 10**digits)
            text += (sep + "0".rjust(digits + 1 if table else 1)) * (end - a)
            a = end
        return text[1:]

    def pieces(head: list[str], tail) -> Iterator[str]:
        # *head* holds the row's first cells as text: n, l and bins up to
        # len(head) - 2; tail(a, b) gives the text of bins a..b-1.
        for start in range(0, columns + 2, _CHUNK):
            stop = min(start + _CHUNK, columns + 2)
            cells = head[start:stop]
            if stop > len(head):
                cells.append(tail(max(start, len(head)) - 1, stop - 1))
            yield sep.join(cells)

    def rows():
        # Bin i of a winning board holds at most i stones, so no cell is
        # wider than its header b<i>; n and l are widest in the last row.
        widths = [len(str(n_max)), len(str(last.length)), *(len(str(i)) + 1 for i in range(1, last.length + 1))]
        pad = (lambda cells: list(map(str.rjust, cells, widths))) if table else list
        yield pieces(pad(("n", "l")), names)
        for n, board in enumerate(boards):
            yield pieces(pad(map(str, chain((n, board.length), board.bins))), zeros)

    _emit(
        args.format,
        lambda: ({"n": n, "length": board.length, "bins": board.to_json()} for n, board in enumerate(boards)),
        rows(),
    )
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    # Refused at the call, before any output; then each board is printed as it is built.
    boards = _lib.enumerate_boards(args.length)
    _emit(args.format, lambda: (board.to_json() for board in boards), (board.bins for board in boards))
    return 0


def cmd_nf(args: argparse.Namespace) -> int:
    if args.sequence is not None and args.length is not None:
        raise ValueError("give either a single length or --sequence, not both")
    if args.sequence is not None and args.bounds:
        raise ValueError("--bounds applies to a single length, not to --sequence")
    if args.sequence is not None:
        values = _lib.min_stones_sequence(args.sequence)
        _emit(args.format, lambda: values, [values])
    elif args.length is None:
        raise ValueError("a length (or --sequence) is required")
    elif args.bounds:
        lower, value, upper = _lib.check_bounds(args.length)
        _emit(args.format, lambda: {"lower": lower, "value": value, "upper": upper}, [[lower, value, upper]])
    else:
        value = _lib.min_stones(args.length)
        _emit(args.format, lambda: {"value": value}, [[value]])
    return 0


def cmd_sieve(args: argparse.Namespace) -> int:
    values = _lib.sieve_stage(args.k, args.count)
    _emit(args.format, lambda: values, [values])
    return 0


_PAIR = re.compile(r"m([0-9]+)=([0-9]+)")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    # A JSON object that repeats a key is refused, not read as its last value.
    doc = dict(pairs)
    if len(doc) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"duplicate key {next(k for k, c in counts.items() if c > 1)!r} in a JSON object")
    return doc


def _load_json(path: str):
    import json  # loaded only by json output and the JSON input files
    with open(path, encoding="utf-8") as handle:
        return json.load(handle, object_pairs_hook=_unique_keys)


def _parse_constraints(args: argparse.Namespace) -> PartialConstraint:
    if args.file is not None:
        if args.pairs:
            raise ValueError("give constraints inline or with --file, not both")
        return _lib.PartialConstraint.from_json(_load_json(args.file))
    entries = []
    for pair in args.pairs:
        match = _PAIR.fullmatch(pair)
        if not match:
            raise ValueError(f"constraints look like m<i>=<v>, got {pair!r}")
        entries.append((int(match.group(1)), int(match.group(2))))
    # PartialConstraint refuses an index given twice.
    return _lib.PartialConstraint(entries)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    pc = _parse_constraints(args)
    try:
        n, board = _lib.reconstruct_minimal(pc) if args.minimal else _lib.reconstruct(pc)
    except _lib.Infeasible as exc:
        print(f"infeasible: {exc}")
        return 1
    _emit(
        args.format,
        lambda: {"n": n, "bins": board.to_json(), "minimal": bool(args.minimal)},
        [[f"n={n}" if args.format == "table" else n], board.bins],
    )
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    graph = _lib.SowingGraph.from_json(_load_json(args.file))
    # csv prints what table prints: a message, or one bracketed line per board
    fmt = "json" if args.format == "json" else "table"
    if args.action == "check-finite":
        finite, witness = _lib.has_finite_game_graph(graph)
        if finite:
            text = "finite"
        else:
            text = "infinite: ruma {} and vertex {} lie on a common directed cycle".format(*witness)
        _emit(fmt, lambda: {"finite": finite, "witness": list(witness) if witness else None}, [[text]])
        return 0 if finite else 1
    game = _lib.enumerate_winning_boards(graph, cap=args.cap)
    if args.action == "dot":
        print(_lib.game_graph_to_dot(graph, game))
    else:
        _emit(fmt, lambda: _lib.game_graph_to_json(graph, game), (graph.bin_labels(b) for b in game.boards))
    if game.truncated:
        print(f"truncated at cap={args.cap}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tchouk",
        description="Exact Tchoukaillon boards, sequences, reconstruction, and sowing graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("board", help="the unique winning board with n stones")
    p.add_argument("n", type=int)
    p.add_argument("--moves", action="store_true", help="also print the bins played to clear it")
    _add_format(p)
    p.set_defaults(func=cmd_board)

    p = sub.add_parser("table", help="winning boards for n = 0..n_max, one row each")
    p.add_argument("n_max", type=int)
    p.add_argument("--bins", type=int, default=None, help="number of bin columns (default: widest board)")
    _add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("enumerate", help="all winning boards of a given length")
    p.add_argument("length", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("nf", help="minimum stones for a board of a given length")
    p.add_argument("length", type=int, nargs="?", default=None)
    p.add_argument("--sequence", type=int, metavar="L_MAX", help="print the sequence up to L_MAX")
    p.add_argument("--bounds", action="store_true", help="print lower bound, value, upper bound")
    _add_format(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("sieve", help="elements of a sieve stage")
    p.add_argument("k", type=int)
    p.add_argument("count", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser(
        "reconstruct",
        help="find a winning board agreeing with bin constraints (shifted indexing: m2 is the bin next to the Ruma)",
    )
    p.add_argument("pairs", nargs="*", metavar="m<i>=<v>", help="e.g. m3=1 m7=2")
    p.add_argument("--file", default=None, help="JSON constraint file instead of inline pairs")
    p.add_argument("--minimal", action="store_true", help="minimize over all completions")
    _add_format(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("graph", help="sowing-graph tools (finiteness, enumeration, DOT export)")
    p.add_argument("file", help="sowing graph JSON file")
    p.add_argument("action", choices=("check-finite", "enumerate", "dot"))
    p.add_argument("--cap", type=int, default=DEFAULT_BOARD_CAP, help="board cap for enumeration")
    _add_format(p)
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OverflowError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

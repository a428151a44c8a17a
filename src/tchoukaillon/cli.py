"""Command-line front end.

Every library capability is reachable from here for scripting and
golden-output generation.  Exit codes: 0 on success, 1 for semantic
negatives (infeasible constraints, infinite or truncated game graphs),
2 for usage errors and overflow.
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys

from . import _MODULE_OF
from .checked import as_uint

FORMATS = ("table", "json", "csv")

# The library names the commands call; the package's table says which
# module defines each.  A command binds the names of the modules it
# needs with _load before it calls them, so `tchouk board` never imports
# crt or graph.  The names are this module's attributes, read at each
# call, so that a caller who replaces one (a tracer, say) sees the
# commands use the replacement.
_NAMES = (
    "board_from_stones", "play_sequence",
    "Infeasible", "PartialConstraint", "reconstruct", "reconstruct_minimal",
    "SowingGraph", "enumerate_winning_boards", "game_graph_to_dot", "game_graph_to_json",
    "has_finite_game_graph",
    "check_bounds", "enumerate_boards", "min_stones", "min_stones_sequence",
    "sieve_stage",
)


def _load(module: str):
    """Bind the names taken from *module*, keeping any already bound; return the module."""
    library = importlib.import_module(f"{__package__}.{module}")
    for name in _NAMES:
        if _MODULE_OF[name] == module and name not in globals():
            globals()[name] = getattr(library, name)
    return library


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_MODULE_OF[name])
    return globals()[name]


def _emit(fmt: str, doc, rows) -> None:
    """Print a result in *fmt*: the JSON document, or the rows one per line.

    Only json calls *doc*, and only csv and table iterate *rows*, so a
    format builds only what it prints.  Cells are joined by "," in csv
    and by a space in a table.  A tuple cell holds bins, printed
    ``[a,b,c]`` in a table and ``a,b,c`` in csv.
    """
    if fmt == "json":
        import json  # loaded only by json output and the JSON input files
        print(json.dumps(doc()))
        return
    sep, bins = (",", "{}") if fmt == "csv" else (" ", "[{}]")
    for row in rows:
        print(sep.join([
            bins.format(",".join(map(str, cell))) if isinstance(cell, tuple) else str(cell) for cell in row
        ]))


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table", help="output format")


def cmd_board(args: argparse.Namespace) -> int:
    _load("core")
    board = board_from_stones(args.n)
    moves = {"moves": play_sequence(args.n)} if args.moves else {}
    _emit(
        args.format,
        lambda: {"bins": board.to_json(), "stones": board.stones, "length": board.length, **moves},
        [[board.bins], *moves.values()],
    )
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    core = _load("core")
    n_max = as_uint(args.n_max, "n_max")
    budget = core._MAX_BOARD_BINS
    # Every board past n = 0 has a bin, so more rows than the budget never fit.
    if n_max >= budget:
        raise OverflowError(f"a table of {n_max + 1} boards passes the budget of {budget} bins")
    # Board length never decreases in n, so the last board is the longest.
    last = board_from_stones(n_max)
    columns = last.length if args.bins is None else as_uint(args.bins, "--bins")
    if columns < last.length:
        raise ValueError(f"--bins {columns} would hide bins; the longest board has {last.length}")
    if (n_max + 1) * columns > budget:
        raise OverflowError(f"a table of {n_max + 1} boards by {columns} bins passes the budget of {budget} bins")
    boards = [board_from_stones(n) for n in range(n_max)] + [last]

    def rows():
        yield ["n", "l"] + [f"b{i}" for i in range(1, columns + 1)]
        for n, board in enumerate(boards):
            yield [n, board.length, *board.bins] + [0] * (columns - board.length)

    cells = rows()
    if args.format == "table":
        widths = [0] * (columns + 2)
        for row in rows():
            widths = list(map(max, widths, map(len, map(str, row))))
        cells = (map(str.rjust, map(str, row), widths) for row in rows())
    _emit(
        args.format,
        lambda: [{"n": n, "length": board.length, "bins": board.to_json()} for n, board in enumerate(boards)],
        cells,
    )
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    _load("length")
    boards = list(enumerate_boards(args.length))
    _emit(args.format, lambda: [board.to_json() for board in boards], ([board.bins] for board in boards))
    return 0


def cmd_nf(args: argparse.Namespace) -> int:
    _load("length")
    if args.sequence is not None and args.length is not None:
        raise ValueError("give either a single length or --sequence, not both")
    if args.sequence is not None:
        values = min_stones_sequence(args.sequence)
        _emit(args.format, lambda: values, [values])
    elif args.length is None:
        raise ValueError("a length (or --sequence) is required")
    elif args.bounds:
        lower, value, upper = check_bounds(args.length)
        _emit(args.format, lambda: {"lower": lower, "value": value, "upper": upper}, [[lower, value, upper]])
    else:
        value = min_stones(args.length)
        _emit(args.format, lambda: {"value": value}, [[value]])
    return 0


def cmd_sieve(args: argparse.Namespace) -> int:
    _load("sieve")
    values = sieve_stage(args.k, args.count)
    _emit(args.format, lambda: values, [values])
    return 0


_PAIR = re.compile(r"m([0-9]+)=([0-9]+)")


def _parse_constraints(args: argparse.Namespace) -> PartialConstraint:
    if args.file is not None:
        if args.pairs:
            raise ValueError("give constraints inline or with --file, not both")
        import json
        with open(args.file, encoding="utf-8") as handle:
            return PartialConstraint.from_json(json.load(handle))
    entries = {}
    for pair in args.pairs:
        match = _PAIR.fullmatch(pair)
        if not match:
            raise ValueError(f"constraints look like m<i>=<v>, got {pair!r}")
        index = int(match.group(1))
        if index in entries:
            raise ValueError(f"duplicate constraint for index {index}")
        entries[index] = int(match.group(2))
    return PartialConstraint(entries)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    _load("crt")
    pc = _parse_constraints(args)
    try:
        n, board = reconstruct_minimal(pc) if args.minimal else reconstruct(pc)
    except Infeasible as exc:
        print(f"infeasible: {exc}")
        return 1
    _emit(
        args.format,
        lambda: {"n": n, "bins": board.to_json(), "minimal": bool(args.minimal)},
        [[f"n={n}" if args.format == "table" else n], [board.bins]],
    )
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    _load("graph")
    import json
    with open(args.file, encoding="utf-8") as handle:
        graph = SowingGraph.from_json(json.load(handle))
    # csv prints what table prints: a message, or one bracketed line per board
    fmt = "json" if args.format == "json" else "table"
    if args.action == "check-finite":
        finite, witness = has_finite_game_graph(graph)
        if finite:
            text = "finite"
        else:
            text = "infinite: ruma {} and vertex {} lie on a common directed cycle".format(*witness)
        _emit(fmt, lambda: {"finite": finite, "witness": list(witness) if witness else None}, [[text]])
        return 0 if finite else 1
    game = enumerate_winning_boards(graph, cap=args.cap)
    if args.action == "dot":
        print(game_graph_to_dot(graph, game))
    else:
        _emit(fmt, lambda: game_graph_to_json(graph, game), ([graph.bin_labels(b)] for b in game.boards))
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
    p.add_argument("--cap", type=int, default=10_000, help="board cap for enumeration")
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

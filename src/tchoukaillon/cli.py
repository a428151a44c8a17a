"""Command-line front end.

Every library capability is reachable from here for scripting and
golden-output generation.  Exit codes: 0 on success, 1 for semantic
negatives (infeasible constraints, infinite or truncated game graphs),
2 for usage errors and overflow.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys

from .checked import as_uint

FORMATS = ("table", "json", "csv")

# The library names the commands call and the module that defines each.
# A command binds the names of the modules it needs with _load before it
# calls them, so `tchouk board` never imports crt or graph.  The names
# are this module's attributes, read at each call, so that a caller who
# replaces one (a tracer, say) sees the commands use the replacement.
_MODULE_OF = {
    "board_from_stones": "core",
    "play_sequence": "core",
    "Infeasible": "crt",
    "PartialConstraint": "crt",
    "reconstruct": "crt",
    "reconstruct_minimal": "crt",
    "SowingGraph": "graph",
    "enumerate_winning_boards": "graph",
    "game_graph_to_dot": "graph",
    "game_graph_to_json": "graph",
    "has_finite_game_graph": "graph",
    "check_bounds": "length",
    "enumerate_boards": "length",
    "min_stones": "length",
    "min_stones_sequence": "length",
    "sieve_stage": "sieve",
}


def _load(module: str) -> None:
    """Bind the names taken from *module*, keeping any already bound."""
    library = importlib.import_module(f"{__package__}.{module}")
    for name, source in _MODULE_OF.items():
        if source == module and name not in globals():
            globals()[name] = getattr(library, name)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_MODULE_OF[name])
    return globals()[name]


def _fmt_bins(bins) -> str:
    return "[" + ",".join(str(b) for b in bins) + "]"


def _print_aligned(rows: list[list[str]]) -> None:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print(" ".join(cell.rjust(width) for cell, width in zip(row, widths)))


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table", help="output format")


def cmd_board(args: argparse.Namespace) -> int:
    _load("core")
    board = board_from_stones(args.n)
    moves = play_sequence(args.n) if args.moves else None
    if args.format == "json":
        doc: dict[str, object] = {
            "bins": board.to_json(),
            "stones": board.stones,
            "length": board.length,
        }
        if moves is not None:
            doc["moves"] = moves
        print(json.dumps(doc))
        return 0
    if args.format == "csv":
        print(",".join(str(b) for b in board.bins))
        if moves is not None:
            print(",".join(str(m) for m in moves))
        return 0
    print(_fmt_bins(board.bins))
    if moves is not None:
        print(" ".join(str(m) for m in moves))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    _load("core")
    boards = [board_from_stones(n) for n in range(as_uint(args.n_max, "n_max") + 1)]
    max_length = boards[-1].length
    columns = args.bins if args.bins is not None else max_length
    if columns < max_length:
        raise ValueError(f"--bins {columns} would hide bins; the longest board has {max_length}")
    rows = [
        [n, board.length] + [board.bin(i) for i in range(1, columns + 1)]
        for n, board in enumerate(boards)
    ]
    if args.format == "json":
        print(json.dumps([
            {"n": n, "length": board.length, "bins": board.to_json()}
            for n, board in enumerate(boards)
        ]))
        return 0
    header = ["n", "l"] + [f"b{i}" for i in range(1, columns + 1)]
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(cell) for cell in row))
        return 0
    _print_aligned([header] + [[str(cell) for cell in row] for row in rows])
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    _load("length")
    boards = list(enumerate_boards(args.length))
    if args.format == "json":
        print(json.dumps([b.to_json() for b in boards]))
    elif args.format == "csv":
        for board in boards:
            print(",".join(str(b) for b in board.bins))
    else:
        for board in boards:
            print(_fmt_bins(board.bins))
    return 0


def cmd_nf(args: argparse.Namespace) -> int:
    _load("length")
    if args.sequence is not None and args.length is not None:
        raise ValueError("give either a single length or --sequence, not both")
    if args.sequence is not None:
        values = min_stones_sequence(args.sequence)
        if args.format == "json":
            print(json.dumps(values))
        elif args.format == "csv":
            print(",".join(str(v) for v in values))
        else:
            print(" ".join(str(v) for v in values))
        return 0
    if args.length is None:
        raise ValueError("a length (or --sequence) is required")
    if args.bounds:
        lower, value, upper = check_bounds(args.length)
        if args.format == "json":
            print(json.dumps({"lower": lower, "value": value, "upper": upper}))
        elif args.format == "csv":
            print(f"{lower},{value},{upper}")
        else:
            print(f"{lower} {value} {upper}")
        return 0
    value = min_stones(args.length)
    print(json.dumps({"value": value}) if args.format == "json" else value)
    return 0


def cmd_sieve(args: argparse.Namespace) -> int:
    _load("sieve")
    values = sieve_stage(args.k, args.count)
    if args.format == "json":
        print(json.dumps(values))
    elif args.format == "csv":
        print(",".join(str(v) for v in values))
    else:
        print(" ".join(str(v) for v in values))
    return 0


_PAIR = re.compile(r"^m(\d+)=(\d+)$")


def _parse_constraints(args: argparse.Namespace) -> PartialConstraint:
    if args.file is not None:
        if args.pairs:
            raise ValueError("give constraints inline or with --file, not both")
        with open(args.file, encoding="utf-8") as handle:
            return PartialConstraint.from_json(json.load(handle))
    entries = {}
    for pair in args.pairs:
        match = _PAIR.match(pair)
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
    if args.format == "json":
        print(json.dumps({"n": n, "bins": board.to_json(), "minimal": bool(args.minimal)}))
        return 0
    if args.format == "csv":
        print(n)
        print(",".join(str(b) for b in board.bins))
        return 0
    print(f"n={n}")
    print(_fmt_bins(board.bins))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    _load("graph")
    with open(args.file, encoding="utf-8") as handle:
        graph = SowingGraph.from_json(json.load(handle))
    if args.action == "check-finite":
        finite, witness = has_finite_game_graph(graph)
        if args.format == "json":
            print(json.dumps({"finite": finite, "witness": list(witness) if witness else None}))
        elif finite:
            print("finite")
        else:
            ruma, vertex = witness
            print(f"infinite: ruma {ruma} and vertex {vertex} lie on a common directed cycle")
        return 0 if finite else 1
    game = enumerate_winning_boards(graph, cap=args.cap)
    if args.action == "dot":
        print(game_graph_to_dot(graph, game))
    elif args.format == "json":
        print(json.dumps(game_graph_to_json(graph, game)))
    else:
        for board in game.boards:
            print(_fmt_bins(graph.bin_labels(board)))
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
    except (OverflowError, ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

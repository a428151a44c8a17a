"""Seeded operation lists for the four workloads, and the traced reference ops.

An :class:`Op` is one call into the library with its inputs already
built, the trace span it belongs to (``<layer>.<function>``) and the
independent check of its answer from :mod:`oracles`.  Inputs come only
from the workload's ``random.Random``; the library never sees the seed.
Sizes are drawn per stratum (op j of N takes its size from the j-th of N
equal slices of the range), so every seed gets the same spread of sizes
and only the values inside each slice move.  The workload functions
return each kind's ops smallest first; the runner warms up on the first
op of each kind and then shuffles the list.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import oracles as o


@dataclass
class Op:
    span: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Env:
    """What ops need besides the library: the interpreter and scratch files."""

    python: str
    child_env: dict[str, str]
    tmpdir: str


def stratum(rng, j: int, count: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (j + rng.random()) / count


def log_int(rng, j: int, count: int, lo: float, hi: float) -> int:
    """An integer from the j-th of *count* slices of [lo, hi), log-uniform."""
    return int(math.exp(stratum(rng, j, count, math.log(lo), math.log(hi))))


def infeasible(exc_type, call):
    """Run *call*; an *exc_type* answer becomes ("infeasible", exception)."""
    try:
        return call()
    except exc_type as exc:
        return ("infeasible", exc)


# -------------------------------------------------------------------- linear


def board_op(lib, n: int) -> Op:
    return Op("core.board_from_stones", lambda: lib.core.board_from_stones(n), lambda b: o.check_bins(b.bins, n))


def play_sequence_op(lib, n: int) -> Op:
    return Op("core.play_sequence", lambda: lib.core.play_sequence(n), lambda m: o.check_play_sequence(n, m))


def chain_op(lib, n0: int, k: int) -> Op:
    start = lib.core.board_from_stones(n0)
    unplay, play = lib.core.unplay, lib.core.play

    def call():
        ups = [start]
        for _ in range(k):
            ups.append(unplay(ups[-1]))
        downs = [play(ups[-1])]
        for _ in range(k - 1):
            downs.append(play(downs[-1][0]))
        return ups[1:], downs

    return Op("core.unplay_play", call, lambda r: o.check_chain(n0, start, r))


def sieve_op(lib, k: int, count: int) -> Op:
    return Op(
        "sieve.sieve_stage",
        lambda: lib.sieve.sieve_stage(k, count),
        lambda v: o.check_sieve_stage(k, count, v),
    )


def min_stones_op(lib, oracle: o.MinStones, length: int) -> Op:
    return Op(
        "length.min_stones_sequence",
        lambda: lib.length.min_stones_sequence(length),
        lambda v: oracle.check_sequence(length, v),
    )


def enumerate_op(lib, length: int) -> Op:
    return Op(
        "length.enumerate_boards",
        lambda: list(lib.length.enumerate_boards(length)),
        lambda boards: o.check_enumeration(length, boards),
    )


def linear(lib, rng, env) -> list[Op]:
    """800 ops; boards for n from 10^3 to 10^10 (about 56 to 177,000 bins)."""
    oracle = o.MinStones(lib.length.enumerate_boards)
    ops = [board_op(lib, log_int(rng, j, 200, 1e3, 1e10)) for j in range(200)]
    ops += [play_sequence_op(lib, log_int(rng, j, 120, 10, 1e4)) for j in range(120)]
    ops += [chain_op(lib, log_int(rng, j, 80, 100, 1e6), 5 + j % 16) for j in range(80)]
    ops += [sieve_op(lib, 2 + j % 5, log_int(rng, j, 140, 50, 2000)) for j in range(140)]
    ops += [min_stones_op(lib, oracle, log_int(rng, j, 100, 20, 800)) for j in range(100)]
    ops += [enumerate_op(lib, log_int(rng, j, 160, 5, 300)) for j in range(160)]
    return ops


# --------------------------------------------------------------- reconstruct

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

# (i, d): d is a proper prime-power divisor of i, so the window of the d
# bins ending at index i must hold a multiple of d stones.
WINDOWS = ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5), (12, 2), (12, 3), (12, 4))


def feasible_constraints(rng, top: int, count: int) -> dict[int, int]:
    """*count* bins of the board of a random n, the top index among them."""
    bins = o.walk_bins(rng.randrange(o.period(top)), top - 1)
    indices = [top] + rng.sample(range(2, top), count - 1)
    return {i: bins[i - 2] if i - 1 <= len(bins) else 0 for i in indices}


def clashing_constraints(rng, j: int) -> dict[int, int]:
    """Constraints that break the window condition (i, d): infeasible."""
    i, d = WINDOWS[j % len(WINDOWS)]
    pc = {index: rng.randrange(index) for index in range(i - d + 1, i + 1)}
    if sum(pc.values()) % d == 0:
        pc[i] = (pc[i] + 1) % i  # moves the window sum by 1 mod d, as d divides i
    return pc


def reconstruct_op(lib, pc: dict[int, int], minimal: bool, feasible: bool) -> Op:
    crt = lib.crt
    constraint = crt.PartialConstraint(pc)
    solve = crt.reconstruct_minimal if minimal else crt.reconstruct
    span = "crt.reconstruct_minimal" if minimal else "crt.reconstruct"
    if feasible:
        check = lambda r: o.check_reconstruction(pc, r, minimal)  # noqa: E731
    else:
        check = lambda r: o.check_infeasible(pc, r)  # noqa: E731
    return Op(span, lambda: infeasible(crt.Infeasible, lambda: solve(constraint)), check)


def prime_op(lib, pc: dict[int, int]) -> Op:
    constraint = lib.crt.PartialConstraint(pc)
    solve = lib.crt.prime_reconstruct
    return Op(
        "crt.prime_reconstruct",
        lambda: solve(constraint),
        lambda r: o.check_reconstruction(pc, r, minimal=False),
    )


def crt_op(lib, system: list[tuple[int, int]]) -> Op:
    crt = lib.crt
    congruences = [crt.Congruence(r, m) for r, m in system]
    solve = crt.crt_solve

    def check(result):
        if result[0] == "infeasible":
            a, b = result[1].witness
            result = ("infeasible", None, ((a.residue, a.modulus), (b.residue, b.modulus)))
        o.check_crt(system, result)

    return Op("crt.crt_solve", lambda: infeasible(crt.Infeasible, lambda: solve(congruences)), check)


def crt_system(rng, j: int, clash: bool) -> list[tuple[int, int]]:
    """2 to 6 congruences with moduli up to 60; two share a factor g >= 2."""
    g = 2 + j % 5
    moduli = [g * rng.randint(1, 12), g * rng.randint(1, 12)]
    moduli += [rng.randint(2, 60) for _ in range(j % 5)]
    x = rng.randrange(math.lcm(*moduli))
    system = [(x % m, m) for m in moduli]
    if clash:
        r, m = system[1]
        system[1] = ((r + 1) % m, m)  # moves the residue by 1 mod g, as g divides m
    return system


def reconstruct(lib, rng, env) -> list[Op]:
    """616 ops: top index 4..12 for reconstruct, 4..11 for reconstruct_minimal, primes up to 23.

    Every (top index, constraint count) pair and every broken window
    appears equally often; the seed picks the other indices and the values.
    The median latency falls among the feasible `reconstruct` calls, whose
    cost the seeded indices set; with 324 of them rather than 108 the
    seed moves the median a third as much.
    A minimal query with top index 12 takes 0.3 s, long enough that a few
    of them would make each pass slow and the per-op medians rest on few
    passes.  Minimal queries with top index 11 have one constraint: with
    two, the seeded second index sets the cost (50 to 140 ms), and whether
    one or three of them land among the eleven slowest ops moved the tail
    by half from seed to seed.  The eleven slowest are then the same kinds
    on every seed: eight single-constraint minimal queries at top 11 and
    the five queries that break the window (12, 2).
    """
    ops = [reconstruct_op(lib, feasible_constraints(rng, 4 + j % 9, 1 + j // 9 % 3), False, True) for j in range(324)]
    ops += [reconstruct_op(lib, clashing_constraints(rng, j), False, False) for j in range(44)]
    for j in range(64):
        top = 4 + j % 8
        count = 1 if top == 11 else 1 + j // 8 % 2
        ops.append(reconstruct_op(lib, feasible_constraints(rng, top, count), True, True))
    ops += [reconstruct_op(lib, clashing_constraints(rng, j), True, False) for j in range(11)]
    for j in range(55):
        top = 4 + j % 5
        indices = [PRIMES[top]] + rng.sample(PRIMES[:top], j // 5 % 3)
        ops.append(prime_op(lib, {p: rng.randrange(p) for p in indices}))
    ops += [crt_op(lib, crt_system(rng, j, clash=j % 2 == 1)) for j in range(118)]
    return ops


# --------------------------------------------------------------------- graph

STARS = ((1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (2, 4), (4, 2), (1, 6))
CYCLE_LIMITS = {3: 30, 4: 50, 5: 80, 6: 100}


def game_doc(spec: o.GraphSpec, game) -> dict:
    """A GameGraph object read into the JSON form the oracles take."""
    return {
        "truncated": game.truncated,
        "boards": [[b.labels[v] for v in spec.bins] for b in game.boards],
        "edges": [
            {
                "from": e.source,
                "to": e.target,
                "moves": [{"vertex": m.vertex, "ruma": m.ruma, "path": list(m.path)} for m in e.moves],
            }
            for e in game.edges
        ],
    }


def make_graph(lib, kind: str, *size):
    return getattr(lib.graph, "make_" + kind)(*size)


def spec_of(kind: str, *size) -> o.GraphSpec:
    return getattr(o, kind + "_spec")(*size)


def expected_boards(kind: str, *size):
    if kind == "path":
        return o.linear_boards(*size)
    if kind == "star":
        return o.star_boards(*size)
    return None


def game_op(lib, kind: str, size: tuple, cap: int | None = None) -> Op:
    spec = spec_of(kind, *size)
    expected = expected_boards(kind, *size)
    kwargs = {} if cap is None else {"cap": cap}
    return Op(
        "graph.enumerate_winning_boards",
        lambda: lib.graph.enumerate_winning_boards(make_graph(lib, kind, *size), **kwargs),
        lambda game: o.check_game(spec, game_doc(spec, game), expected, cap),
    )


def random_graph(rng) -> o.GraphSpec:
    vertices = rng.randint(3, 12)
    edges = {(a, b) for a in range(vertices) for b in range(vertices) if rng.random() < 0.25}
    return o.GraphSpec(vertices, edges, rng.sample(range(vertices), rng.randint(1, 2)))


def finite_op(lib, spec: o.GraphSpec) -> Op:
    edges, ruma = frozenset(spec.edges), frozenset(spec.ruma)
    return Op(
        "graph.has_finite_game_graph",
        lambda: lib.graph.has_finite_game_graph(lib.graph.SowingGraph(spec.vertices, edges, ruma)),
        lambda r: o.check_finiteness(spec, r),
    )


def cycle_counts_op(lib, length: int, limit: int) -> Op:
    def check(totals):
        o.need(totals == o.cycle_totals(length, limit), f"cycle totals of ({length}, {limit}) differ")

    return Op("graph.cycle_attained_counts", lambda: lib.graph.cycle_attained_counts(length, limit), check)


def export_ops(lib, kind: str, size: tuple, cap: int | None = None) -> list[Op]:
    spec = spec_of(kind, *size)
    graph = make_graph(lib, kind, *size)
    game = lib.graph.enumerate_winning_boards(graph, **({} if cap is None else {"cap": cap}))
    doc = game_doc(spec, game)
    expected = expected_boards(kind, *size)

    def check_json(exported):
        o.need(exported == doc, "JSON export differs from the game")
        o.check_game(spec, json.loads(json.dumps(exported)), expected, cap)

    return [
        Op("graph.game_graph_to_json", lambda: lib.graph.game_graph_to_json(graph, game), check_json),
        Op("graph.game_graph_to_dot", lambda: lib.graph.game_graph_to_dot(graph, game), lambda t: o.check_dot(doc, t)),
    ]


def graph(lib, rng, env) -> list[Op]:
    """400 ops on paths of 3..16 bins, stars of up to 256 boards, cycles of 3..6 vertices."""
    ops = [game_op(lib, "path", (3 + j % 14,)) for j in range(84)]
    ops += [game_op(lib, "star", STARS[j % len(STARS)]) for j in range(60)]
    ops += [game_op(lib, "cycle", (3 + j % 4,), cap=int(stratum(rng, j // 4, 10, 5, 30))) for j in range(40)]
    ops += [finite_op(lib, random_graph(rng)) for _ in range(136)]
    for j in range(40):
        limit = CYCLE_LIMITS[3 + j % 4]
        ops.append(cycle_counts_op(lib, 3 + j % 4, int(stratum(rng, j // 4, 10, limit / 2, limit))))
    exports = [("path", (10 + j,)) for j in range(7)] + [("star", (2, 3)), ("star", (3, 3)), ("cycle", (4,), 20)]
    for spec in exports * 2:
        ops += export_ops(lib, *spec)
    return ops


# ----------------------------------------------------------------------- cli


def cli_case(oracle: o.MinStones, env: Env, rng, kind: str, fmt: str, j: int):
    """(argv, exit code, stdout check) for the j-th CLI call of a kind."""
    if kind == "board":
        n = log_int(rng, j, 7, 10, 1e6)
        return ["board", str(n), "--format", fmt], 0, lambda out: check_board_out(out, fmt, n, False)
    if kind == "moves":
        n = log_int(rng, j, 3, 10, 3000)
        return ["board", str(n), "--moves", "--format", fmt], 0, lambda out: check_board_out(out, fmt, n, True)
    if kind == "table":
        n_max = log_int(rng, j, 4, 20, 300)
        return ["table", str(n_max), "--format", fmt], 0, lambda out: check_table_out(out, fmt, n_max)
    if kind == "nf":
        length = log_int(rng, j, 6, 10, 400)
        mode = ("value", "--sequence", "--bounds")[j % 3]
        argv = {"value": ["nf", str(length)], "--sequence": ["nf", "--sequence", str(length)]}.get(
            mode, ["nf", str(length), "--bounds"]
        )
        return argv + ["--format", fmt], 0, lambda out: check_nf_out(oracle, out, mode, length)
    if kind == "sieve":
        k, count = 2 + j % 5, log_int(rng, j, 4, 20, 500)
        return ["sieve", str(k), str(count), "--format", fmt], 0, lambda out: check_sieve_out(out, fmt, k, count)
    if kind in ("reconstruct", "minimal", "clash"):
        pc = clashing_constraints(rng, j) if kind == "clash" else feasible_constraints(rng, 4 + j % 6, 1 + j % 2)
        argv = ["reconstruct", *(f"m{i}={v}" for i, v in sorted(pc.items()))] + ["--minimal"] * (kind == "minimal")
        if kind == "clash":
            return argv + ["--format", fmt], 1, lambda out: o.check_infeasible(pc, (out.split(":")[0],))
        return argv + ["--format", fmt], 0, lambda out: check_reconstruct_out(out, fmt, pc, kind == "minimal")
    kind_, size = (("path", (4 + j % 9,)), ("star", STARS[j % 8]))[j % 2]
    path = write_graph(env, kind_, size)
    expected = expected_boards(kind_, *size)
    spec = spec_of(kind_, *size)
    return ["graph", path, "enumerate", "--format", fmt], 0, lambda out: check_graph_out(out, fmt, spec, expected)


# The cli mix: (command kind, format, number of calls); 40 calls in all.
CLI_MIX = (
    ("board", "json", 3), ("board", "table", 2), ("board", "csv", 2),
    ("moves", "json", 2), ("moves", "table", 1),
    ("table", "json", 3), ("table", "csv", 1),
    ("nf", "json", 6),
    ("sieve", "json", 3), ("sieve", "table", 1),
    ("reconstruct", "json", 3), ("clash", "table", 1), ("minimal", "json", 3), ("minimal", "table", 1),
    ("graph", "json", 3), ("graph", "table", 3), ("graph", "csv", 2),
)


def write_graph(env: Env, kind: str, size: tuple) -> str:
    spec = spec_of(kind, *size)
    path = f"{env.tmpdir}/{kind}_{'_'.join(map(str, size))}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"vertices": spec.vertices, "edges": sorted(spec.edges), "ruma": sorted(spec.ruma)}, handle)
    return path


def check_board_out(out: str, fmt: str, n: int, moves: bool) -> None:
    lines = out.splitlines()
    if fmt == "json":
        doc = o.parse_json(out)
        bins, stones, length = tuple(doc["bins"]), doc["stones"], doc["length"]
        o.need(stones == n and length == len(bins), "board JSON totals")
        played = doc.get("moves") if moves else None
    elif fmt == "table":
        bins = o.parse_bins_line(lines[0])
        played = [int(m) for m in lines[1].split()] if moves else None
    else:
        bins = tuple(int(b) for b in lines[0].split(","))
        played = None
    o.check_bins(bins, n)
    if moves:
        o.check_play_sequence(n, played)


def check_table_out(out: str, fmt: str, n_max: int) -> None:
    if fmt == "json":
        rows = [(r["n"], r["length"], tuple(r["bins"])) for r in o.parse_json(out)]
    else:
        rows = []
        for line in out.splitlines()[1:]:
            n, length, *bins = (int(x) for x in line.split(","))
            rows.append((n, length, tuple(bins[:length])))
            o.need(not any(bins[length:]), "table row has bins past its length")
    o.need([r[0] for r in rows] == list(range(n_max + 1)), "table rows are not n = 0..n_max")
    for n, length, bins in rows:
        o.need(length == len(bins), "table length column")
        o.check_bins(bins, n)


def check_nf_out(oracle: o.MinStones, out: str, mode: str, length: int) -> None:
    doc = o.parse_json(out)
    if mode == "--sequence":
        oracle.check_sequence(length, doc)
        return
    oracle.check(length, doc["value"])
    if mode == "--bounds":
        o.need(doc["lower"] <= doc["value"] <= doc["upper"] == length * (length + 1) // 2, "nf bounds")


def check_sieve_out(out: str, fmt: str, k: int, count: int) -> None:
    values = o.parse_json(out) if fmt == "json" else [int(v) for v in out.split()]
    o.check_sieve_stage(k, count, values)


def check_reconstruct_out(out: str, fmt: str, pc: dict[int, int], minimal: bool) -> None:
    if fmt == "json":
        doc = o.parse_json(out)
        o.need(doc["minimal"] == minimal, "reconstruct JSON minimal flag")
        n, bins = doc["n"], tuple(doc["bins"])
    else:
        first, second = out.splitlines()
        o.need(first.startswith("n="), "reconstruct table output")
        n, bins = int(first[2:]), o.parse_bins_line(second)
    o.check_reconstruction(pc, (n, Bins(bins)), minimal)


@dataclass(frozen=True)
class Bins:
    """A parsed board, shaped like the library's for the oracles."""

    bins: tuple[int, ...]


def check_graph_out(out: str, fmt: str, spec: o.GraphSpec, expected: set) -> None:
    if fmt == "json":
        o.check_game(spec, o.parse_json(out), expected)
        return
    boards = [o.parse_bins_line(line) for line in out.splitlines()]
    o.need(len(set(boards)) == len(boards) and set(boards) == expected, "graph board listing")


def child_op(env: Env, argv: list[str], code: int, check) -> Op:
    """A `python -m tchoukaillon.cli` child; its peak RSS is the parent's RUSAGE_CHILDREN."""

    def call():
        proc = subprocess.run(
            [env.python, "-m", "tchoukaillon.cli", *argv],
            capture_output=True, text=True, env=env.child_env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return Op("cli.process", call, lambda r: check_cli_result(r, code, check))


def main_op(lib, argv: list[str], code: int, check) -> Op:
    """`cli.main(argv)` in this process, stdout captured."""

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = lib.cli.main(list(argv))
        return status, out.getvalue(), ""

    return Op("cli.main", call, lambda r: check_cli_result(r, code, check))


def check_cli_result(result, code: int, check) -> None:
    status, out, err = result
    o.need(status == code, f"exit code {status}, expected {code}: {err.strip()[-200:]}")
    o.need(not err, f"unexpected stderr: {err.strip()[-200:]}")
    check(out)


def cli(lib, rng, env) -> list[Op]:
    """40 CLI children, one at a time, covering every command at small sizes."""
    oracle = o.MinStones()
    calls = Counter()
    ops = []
    for kind, fmt, count in CLI_MIX:
        for _ in range(count):
            ops.append(child_op(env, *cli_case(oracle, env, rng, kind, fmt, calls[kind])))
            calls[kind] += 1
    return ops


WORKLOADS = {"linear": linear, "reconstruct": reconstruct, "graph": graph, "cli": cli}


# ------------------------------------------------------------------ reference


def interpreter_op(env: Env, code: str, span: str) -> Op:
    def call():
        proc = subprocess.run([env.python, "-c", code], capture_output=True, text=True, env=env.child_env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    return Op(span, call, lambda r: check_cli_result(r, 0, lambda out: None))


def reference(lib, env: Env) -> list[Op]:
    """One small call per per-layer metric, so every layer reports on every workload.

    Traced runs append these to the workload's op list; the inputs are
    fixed, so they read the same on every workload and seed.
    """
    oracle = o.MinStones(lib.length.enumerate_boards)
    ops = [
        board_op(lib, 10**7),
        play_sequence_op(lib, 2000),
        chain_op(lib, 10**5, 8),
        min_stones_op(lib, oracle, 200),
        enumerate_op(lib, 30),
        sieve_op(lib, 3, 300),
        crt_op(lib, [(1, 4), (3, 6), (5, 9)]),
        reconstruct_op(lib, {3: 1, 7: 2}, False, True),
        reconstruct_op(lib, {9: 2}, True, True),
        prime_op(lib, {7: 3, 13: 5}),
        game_op(lib, "star", (2, 3)),
        finite_op(lib, o.cycle_spec(5)),
        cycle_counts_op(lib, 4, 30),
        *export_ops(lib, "star", (2, 3)),
        interpreter_op(env, "pass", "cli.interpreter"),
        interpreter_op(env, "import tchoukaillon.cli", "cli.import"),
    ]
    argvs = [
        (["board", "1000", "--format", "json"], 0, lambda out: check_board_out(out, "json", 1000, False)),
        (["nf", "--sequence", "30", "--format", "json"], 0, lambda out: check_nf_out(oracle, out, "--sequence", 30)),
        (["sieve", "3", "50", "--format", "json"], 0, lambda out: check_sieve_out(out, "json", 3, 50)),
        (["reconstruct", "m3=1", "m7=2", "--minimal", "--format", "json"], 0,
         lambda out: check_reconstruct_out(out, "json", {3: 1, 7: 2}, True)),
        (["graph", write_graph(env, "star", (2, 2)), "enumerate", "--format", "json"], 0,
         lambda out: check_graph_out(out, "json", o.star_spec(2, 2), o.star_boards(2, 2))),
    ]
    ops += [main_op(lib, argv, code, check) for argv, code, check in argvs]
    return ops

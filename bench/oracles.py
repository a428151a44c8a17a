"""Independent checks of the library's answers.

Nothing here imports ``tchoukaillon``.  Each check recomputes what an
answer must satisfy from the paper's characterizations and raises
:class:`CheckFailed` when it does not hold.  The facts relied on:

* uniqueness: for every n there is exactly one winning board with n
  stones, so a board that is winning and holds n stones *is* the board
  of n;
* the winning test: ``bins[i] <= i`` and every upper partial sum from
  bin i on is divisible by i;
* the residue walk: bin i of the board of n is the remainder, modulo
  i + 1, of the stones not yet placed in bins 1..i-1;
* board length is non-decreasing in n and grows by at most one per
  stone, so the boards of length L are those of an interval of n;
* a congruence system is solvable iff its congruences agree pairwise
  modulo the gcd of their moduli;
* a sowing game is infinite iff some Ruma and some non-Ruma vertex reach
  each other.

Reconstruction constraints use the shifted indexing of the paper's
Section 4: index i names core bin i - 1.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque


class CheckFailed(Exception):
    """An answer contradicts an independent computation."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- linear game


def walk_bins(n: int, count: int | None = None) -> list[int]:
    """Bins of the board of n by the residue walk, at most *count* of them."""
    bins = []
    rest = n
    i = 1
    while rest and (count is None or i <= count):
        b = rest % (i + 1)
        bins.append(b)
        rest -= b
        i += 1
    return bins


def walk_length(n: int) -> int:
    """Length of the board of n, by the residue walk."""
    rest = n
    i = 0
    while rest:
        i += 1
        rest -= rest % (i + 1)
    return i


def is_winning(bins) -> bool:
    suffix = 0
    for i in range(len(bins), 0, -1):
        count = bins[i - 1]
        if count > i:
            return False
        suffix += count
        if suffix % i:
            return False
    return True


def check_bins(bins, n: int, what: str = "board") -> None:
    """*bins* is the winning board with n stones, in canonical form."""
    need(type(bins) is tuple, f"{what}: bins are a {type(bins).__name__}, not a tuple")
    need(all(type(b) is int and b >= 0 for b in bins), f"{what}: a bin is not a non-negative int")
    need(not bins or bins[-1] != 0, f"{what}: trailing zero bin")
    need(sum(bins) == n, f"{what}: holds {sum(bins)} stones, expected {n}")
    need(is_winning(bins), f"{what}: not a winning board")


def sow(bins: list[int], m: int) -> None:
    """Play bin m in place; the move must put its last stone in the store."""
    need(1 <= m <= len(bins) and bins[m - 1] == m, f"illegal sow of bin {m}")
    bins[m - 1] = 0
    for j in range(m - 1):
        bins[j] += 1


def check_play_sequence(n: int, moves) -> None:
    need(len(moves) == n, f"play sequence of {n} has {len(moves)} moves")
    bins = walk_bins(n)
    for m in moves:
        sow(bins, m)
    need(not any(bins), "play sequence does not clear the board")


def check_chain(n0: int, start, result) -> None:
    """Unplay k times from the board of n0, then play back down to it."""
    ups, downs = result
    need(len(ups) == len(downs), "chain: unplays and plays differ in number")
    for j, board in enumerate(ups, start=1):
        check_bins(board.bins, n0 + j, f"unplay {j}")
    current = list(ups[-1].bins) if ups else list(start.bins)
    for board, played in downs:
        sow(current, played)
        while current and current[-1] == 0:
            current.pop()
        need(tuple(current) == board.bins, f"play of bin {played} returned another board")
    need(tuple(current) == start.bins, "chain does not return to its start")


def check_sieve_stage(k: int, count: int, values) -> None:
    """Stage k equals stage 1 pushed through the positional rule k - 1 times."""
    size = count * k + 2 * k + 8
    while True:
        stage = list(range(1, size + 1))
        for j in range(1, k):
            stage = [v for pos, v in enumerate(stage) if pos % (j + 1)]
        if len(stage) >= count:
            break
        size *= 2
    need(list(values) == stage[:count], f"sieve stage {k} differs from the positional rule")


class MinStones:
    """min_stones(L) is the smallest n whose board has length L.

    Short lengths are also compared with the smallest stone total among
    the boards that *enumerate_boards* lists for them.
    """

    def __init__(self, enumerate_boards=None) -> None:
        self.enumerate_boards = enumerate_boards
        self.verified: dict[int, int] = {}

    def check(self, length: int, value: int) -> None:
        if self.verified.get(length) == value:
            return
        need(walk_length(value) == length, f"min_stones({length}) = {value} has another length")
        need(walk_length(value - 1) == length - 1, f"min_stones({length}) = {value} is not the smallest")
        if self.enumerate_boards is not None and length <= 40:
            smallest = min(sum(b.bins) for b in self.enumerate_boards(length))
            need(smallest == value, f"min_stones({length}) differs from the enumeration")
        self.verified[length] = value

    def check_sequence(self, max_length: int, values) -> None:
        need(len(values) == max_length, "min_stones sequence has the wrong length")
        for length, value in enumerate(values, start=1):
            self.check(length, value)


def check_enumeration(length: int, boards) -> None:
    """The boards of a length are those of n in one interval, in order."""
    if length == 0:
        need([b.bins for b in boards] == [()], "length 0 has only the empty board")
        return
    need(boards, f"no boards of length {length}")
    first = sum(boards[0].bins)
    for offset, board in enumerate(boards):
        need(len(board.bins) == length, f"a board of length {len(board.bins)} among length {length}")
        check_bins(board.bins, first + offset, f"board {offset} of length {length}")
    need(walk_length(first - 1) == length - 1, f"enumeration of {length} starts late")
    need(walk_length(first + len(boards)) == length + 1, f"enumeration of {length} stops early")


# -------------------------------------------------------------- reconstruction


def agrees(bins, constraints: dict[int, int]) -> bool:
    return all((bins[i - 2] if i - 1 <= len(bins) else 0) == m for i, m in constraints.items())


def first_agreeing(constraints: dict[int, int], stop: int, reach_top: bool = False):
    """Smallest n below *stop* whose board agrees, by a prefix residue walk.

    With *reach_top* the board must also reach the top constrained bin.
    """
    top = max(constraints)
    wanted = [constraints.get(i + 1) for i in range(1, top)]  # by core bin 1..top-1
    for n in range(stop):
        rest = n
        for i, want in enumerate(wanted, start=1):
            if reach_top and i == top - 1 and rest == 0:
                break
            b = rest % (i + 1)
            if want is not None and b != want:
                break
            rest -= b
        else:
            return n
    return None


def period(top: int) -> int:
    return math.lcm(*range(2, top + 1))


def check_reconstruction(constraints: dict[int, int], result, minimal: bool) -> None:
    need(result[0] != "infeasible", "feasible constraints declared infeasible")
    n, board = result
    check_bins(board.bins, n, "reconstruction")
    need(agrees(board.bins, constraints), "reconstruction disagrees with a constraint")
    top = max(constraints)
    need(walk_bins(n, top - 1) == list(board.bins[: top - 1]), "residue walk disagrees with the board")
    if minimal:
        need(len(board.bins) >= top - 1, "minimal reconstruction stops short of the top bin")
        smaller = first_agreeing(constraints, n, reach_top=True)
        need(smaller is None, f"n={smaller} < {n} also agrees")


def check_infeasible(constraints: dict[int, int], result) -> None:
    need(result[0] == "infeasible", f"answered {result!r} for infeasible constraints")
    found = first_agreeing(constraints, period(max(constraints)))
    need(found is None, f"declared infeasible, but n={found} agrees")


def check_crt(system: list[tuple[int, int]], result) -> None:
    """*system* lists (residue, modulus); *result* is (x, lcm) or an infeasibility."""
    clash = [
        (a, b)
        for a, b in itertools.combinations(system, 2)
        if (a[0] - b[0]) % math.gcd(a[1], b[1])
    ]
    if result[0] == "infeasible":
        need(bool(clash), "declared infeasible, but every pair agrees")
        witness = result[2]
        need(witness in clash, f"witness {witness} is not a clashing pair")
        return
    need(not clash, "solved a system with a clashing pair")
    x, modulus = result
    need(modulus == math.lcm(*(m for _, m in system)), "period is not the lcm of the moduli")
    need(0 <= x < modulus, "solution is not reduced")
    need(all(x % m == r for r, m in system), "solution misses a congruence")


# -------------------------------------------------------------------- graphs


class GraphSpec:
    """A sowing graph as plain data: vertex count, edge set, Ruma set."""

    def __init__(self, vertices: int, edges, ruma) -> None:
        self.vertices = vertices
        self.edges = frozenset(tuple(e) for e in edges)
        self.ruma = frozenset(ruma)
        self.bins = [v for v in range(vertices) if v not in self.ruma]
        self.succ = {v: [] for v in range(vertices)}
        for a, b in sorted(self.edges):
            self.succ[a].append(b)

    def reach(self, v: int) -> set[int]:
        """Vertices reached from v by walks of at least one edge."""
        seen: set[int] = set()
        queue = deque(self.succ[v])
        while queue:
            w = queue.popleft()
            if w not in seen:
                seen.add(w)
                queue.extend(self.succ[w])
        return seen

    def co_reachable(self) -> list[tuple[int, int]]:
        reach = {v: self.reach(v) for v in range(self.vertices)}
        return [(r, v) for r in sorted(self.ruma) for v in self.bins if r in reach[v] and v in reach[r]]


def path_spec(length: int) -> GraphSpec:
    return GraphSpec(length + 1, [(i, i - 1) for i in range(1, length + 1)], [0])


def star_spec(spokes: int, length: int) -> GraphSpec:
    edges = []
    for s in range(spokes):
        base = s * length
        edges += [(base + d, base + d - 1 if d > 1 else 0) for d in range(1, length + 1)]
    return GraphSpec(spokes * length + 1, edges, [0])


def cycle_spec(length: int) -> GraphSpec:
    return GraphSpec(length, [(i, i - 1) for i in range(1, length)] + [(0, length - 1)], [0])


def linear_boards(length: int) -> set[tuple[int, ...]]:
    """Winning boards of length at most *length*, padded to *length* bins."""
    out = set()
    n = 0
    while walk_length(n) <= length:
        bins = walk_bins(n)
        out.add(tuple(bins) + (0,) * (length - len(bins)))
        n += 1
    return out


def star_boards(spokes: int, length: int) -> set[tuple[int, ...]]:
    spoke = sorted(linear_boards(length))
    return {sum(combo, ()) for combo in itertools.product(spoke, repeat=spokes)}


def check_finiteness(spec: GraphSpec, result) -> None:
    finite, witness = result
    pairs = spec.co_reachable()
    need(finite == (not pairs), f"finiteness {finite} contradicts reachability")
    need(witness is None if finite else tuple(witness) in pairs, f"bad witness {witness}")


def check_game(spec: GraphSpec, game: dict, expected: set | None = None, cap: int | None = None) -> None:
    """A game graph in its JSON form: every sow is legal and every board winning.

    Each edge's moves are replayed by a sowing simulation.  A board is
    winning when some legal sow leads to a board discovered before it,
    so every board except the first (empty) one needs such an edge.
    """
    boards = [tuple(b) for b in game["boards"]]
    need(len(set(boards)) == len(boards), "a board is listed twice")
    need(boards and not any(boards[0]), "the game does not start from the empty board")
    infinite = bool(spec.co_reachable())
    need(game["truncated"] == infinite, f"truncated={game['truncated']} for an infinite={infinite} game")
    if cap is not None:
        need(len(boards) <= cap, "more boards than the cap")
    position = {v: k for k, v in enumerate(spec.bins)}
    has_exit = [False] * len(boards)
    for edge in game["edges"]:
        source, target = edge["from"], edge["to"]
        need(edge["moves"], "an edge without moves")
        for move in edge["moves"]:
            v, r, path = move["vertex"], move["ruma"], move["path"]
            labels = list(boards[source])
            need(v in position and r in spec.ruma, "a move from a Ruma or into a non-Ruma")
            need(path[0] == v and path[-1] == r, "a walk with the wrong ends")
            need(all((a, b) in spec.edges for a, b in zip(path, path[1:])), "a walk off the graph")
            need(labels[position[v]] == len(path) - 1 > 0, "a sow whose length is not the label")
            labels[position[v]] = 0
            for w in path[1:]:
                if w in position:
                    labels[position[w]] += 1
            need(tuple(labels) == boards[target], "a sow lands on another board")
        if target < source:
            has_exit[source] = True
    need(all(has_exit[1:]), "a board with no sow to an earlier board")
    if expected is not None:
        need(set(boards) == expected, f"{len(boards)} boards, expected {len(expected)}")


def cycle_totals(length: int, limit: int) -> list[int]:
    """Stone totals of the cycle game, by visit counts instead of walks.

    A walk of s steps from v toward the Ruma visits vertex w once for
    every step count t in 1..s with t = v - w (mod length).
    """
    labels = [0] * length
    totals = [0]
    while len(totals) < limit:
        label, v = min((labels[w], w) for w in range(1, length))
        steps = v + label * length
        for w in range(1, length):
            d = (v - w) % length or length
            visits = (steps - d) // length + 1 if steps >= d else 0
            labels[w] -= visits
            need(labels[w] >= 0 or w == v, "a walk picks up a missing stone")
        need(labels[v] == 0, "a walk leaves stones on the refilled vertex")
        labels[v] = steps
        totals.append(sum(labels[1:]))
    return totals


def check_dot(game: dict, text: str) -> None:
    """The DOT rendering names every board and edge of the game, in order."""
    lines = text.split("\n")
    need(lines[0] == "digraph sowing_game {" and lines[-1] == "}", "DOT frame")
    names = ["[" + ",".join(map(str, b)) + "]" for b in game["boards"]]
    nodes = [f'  "{name}";' for name in names]
    edges = [
        f'  "{names[e["from"]]}" -> "{names[e["to"]]}" '
        f'[label="{",".join("v" + str(m["vertex"]) for m in e["moves"])}"];'
        for e in game["edges"]
    ]
    need(lines[1:-1] == nodes + edges, "DOT body differs from the game")


# ------------------------------------------------------------------------ CLI


def parse_json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        raise CheckFailed(f"output is not JSON: {stdout[:80]!r}") from None


def parse_bins_line(line: str) -> tuple[int, ...]:
    need(line.startswith("[") and line.endswith("]"), f"not a board line: {line!r}")
    inner = line[1:-1]
    return tuple(int(x) for x in inner.split(",")) if inner else ()

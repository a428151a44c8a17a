"""Spans around calls into the library's layers, and the per-layer metrics.

A span has a name ``<layer>.<function>``, a start, an end and a parent.
The runner opens one around every op; :meth:`Tracer.install` also wraps
the calls that cross from one module into another (crt into core, the
CLI into every layer) and the crt search, so that nested work lands in
child spans.  Spans are kept in flat arrays and written out at the end.
A span's self time is its duration minus its children's; a layer's self
time sums its spans'.
"""

from __future__ import annotations

import json
import statistics
from array import array
from time import perf_counter

LAYERS = ("core", "length", "sieve", "crt", "graph", "cli")

# Calls from one module into another, wrapped in the calling module:
# module -> {attribute: span name}.
CROSSINGS = {
    "crt": {"board_from_stones": "core.board_from_stones", "crt_solve": "crt.crt_solve"},
    "cli": {
        "board_from_stones": "core.board_from_stones",
        "play_sequence": "core.play_sequence",
        "min_stones": "length.min_stones",
        "min_stones_sequence": "length.min_stones_sequence",
        "check_bounds": "length.check_bounds",
        "sieve_stage": "sieve.sieve_stage",
        "reconstruct": "crt.reconstruct",
        "reconstruct_minimal": "crt.reconstruct_minimal",
        "enumerate_winning_boards": "graph.enumerate_winning_boards",
        "has_finite_game_graph": "graph.has_finite_game_graph",
        "game_graph_to_json": "graph.game_graph_to_json",
        "game_graph_to_dot": "graph.game_graph_to_dot",
    },
}

_END = object()


def work_done(name: str, result) -> dict[str, int]:
    """Counts read off a span's result: bins built, n scanned, boards, moves, bytes."""
    if name == "core.board_from_stones":
        return {"bins": len(result.bins)}
    if name == "core.unplay_play":
        ups, downs = result
        return {"bins": sum(len(b.bins) for b in ups) + sum(len(b.bins) for b, _ in downs)}
    if name == "sieve.sieve_stage":
        return {"n_scanned": result[-1]}
    if name == "graph.enumerate_winning_boards":
        return {"boards": len(result.boards), "moves": sum(len(e.moves) for e in result.edges)}
    if name in ("cli.process", "cli.main"):
        return {"bytes": len(result[1].encode())}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.work: dict[int, dict[str, int]] = {}
        self.stack: list[int] = []
        self.passes: list[tuple[int, int, float]] = []  # (first span, end span, wall s)
        self.patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def traced(self, name: str, fn):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            counts = work_done(name, result)
            if counts:
                self.work[i] = counts
            return result

        return wrapper

    def search(self, complete_constraints):
        """Span the crt search to its first completion; count all it yields."""
        tracer = self

        def wrapper(pc):
            i = tracer.open("crt.search")
            items = complete_constraints(pc)
            try:
                item = next(items, _END)
            finally:
                tracer.close(i)
            count = 0
            while item is not _END:
                count += 1
                tracer.work[i] = {"completions": count}
                yield item
                item = next(items, _END)

        return wrapper

    def install(self, lib) -> None:
        for module_name, attributes in CROSSINGS.items():
            module = getattr(lib, module_name)
            for attribute, span in attributes.items():
                self._patch(module, attribute, self.traced(span, getattr(module, attribute)))
        self._patch(lib.crt, "complete_constraints", self.search(lib.crt.complete_constraints))

    def _patch(self, module, attribute: str, replacement) -> None:
        self.patched.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, replacement)

    def uninstall(self) -> None:
        while self.patched:
            module, attribute, original = self.patched.pop()
            setattr(module, attribute, original)

    def run_pass(self, lib, ops, run_op) -> None:
        """One traced pass over *ops*; *run_op* times and runs each."""
        first = len(self.names)
        self.install(lib)
        try:
            start = perf_counter()
            for index, op in enumerate(ops):
                run_op(index, op, self.traced(op.span, op.call))
            wall = perf_counter() - start
        finally:
            self.uninstall()
        self.passes.append((first, len(self.names), wall))

    def write(self, path: str) -> None:
        spans = [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i], self.work.get(i, {})]
            for i in range(len(self.names))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "work"], "spans": spans}, handle)

    # ---------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the traced passes, by name: (value, unit)."""
        names, parents = self.names, self.parents
        duration = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += duration[i]

        def parent_name(i: int) -> str:
            return names[parents[i]] if parents[i] >= 0 else ""

        per_pass = []
        for first, stop, wall in self.passes:
            self_s = dict.fromkeys(LAYERS, 0.0)
            work: dict[str, float] = {}
            for i in range(first, stop):
                self_s[names[i].split(".")[0]] += duration[i] - child[i]
                for key, value in self.work.get(i, {}).items():
                    if key == "completions" and parent_name(i) != "crt.reconstruct_minimal":
                        continue
                    work[key] = work.get(key, 0) + value
                if names[i] == "core.board_from_stones" and parent_name(i).startswith("crt."):
                    work["materialize_s"] = work.get("materialize_s", 0.0) + duration[i]
            per_pass.append((self_s, work, wall, stop - first))

        def pass_median(get) -> float:
            return statistics.median(get(p) for p in per_pass)

        def p50(*span_names: str) -> float:
            return statistics.median(d for d, n in zip(duration, names) if n in span_names)

        def rate(key: str, *span_names: str) -> float:
            spans = [i for i, n in enumerate(names) if n in span_names]
            return sum(self.work.get(i, {}).get(key, 0) for i in spans) / sum(duration[i] for i in spans)

        out = {f"{layer}.self_s": (pass_median(lambda p, k=layer: p[0][k]), "s") for layer in LAYERS}
        interpreter = p50("cli.interpreter")
        out.update({
            "core.board_from_stones_p50_ms": (p50("core.board_from_stones") * 1e3, "ms"),
            "core.play_sequence_p50_ms": (p50("core.play_sequence") * 1e3, "ms"),
            "core.bins_per_s": (rate("bins", "core.board_from_stones", "core.unplay_play"), "1/s"),
            "core.bins_materialized": (pass_median(lambda p: p[1].get("bins", 0)), "count"),
            "length.min_stones_sequence_p50_ms": (p50("length.min_stones_sequence") * 1e3, "ms"),
            "sieve.n_scanned": (pass_median(lambda p: p[1].get("n_scanned", 0)), "count"),
            "crt.solve_p50_us": (p50("crt.crt_solve") * 1e6, "us"),
            "crt.search_p50_ms": (p50("crt.search") * 1e3, "ms"),
            "crt.completions": (pass_median(lambda p: p[1].get("completions", 0)), "count"),
            "crt.minimal_p50_ms": (p50("crt.reconstruct_minimal") * 1e3, "ms"),
            "crt.materialize_s": (pass_median(lambda p: p[1].get("materialize_s", 0.0)), "s"),
            "graph.boards_per_s": (rate("boards", "graph.enumerate_winning_boards"), "1/s"),
            "graph.moves_per_s": (rate("moves", "graph.enumerate_winning_boards"), "1/s"),
            "graph.enumerate_p50_ms": (p50("graph.enumerate_winning_boards") * 1e3, "ms"),
            "graph.export_p50_ms": (p50("graph.game_graph_to_json", "graph.game_graph_to_dot") * 1e3, "ms"),
            "graph.cycle_counts_p50_ms": (p50("graph.cycle_attained_counts") * 1e3, "ms"),
            "cli.interpreter_ms": (interpreter * 1e3, "ms"),
            "cli.import_ms": ((p50("cli.import") - interpreter) * 1e3, "ms"),
            "cli.main_p50_ms": (p50("cli.main") * 1e3, "ms"),
            "cli.output_bytes": (pass_median(lambda p: p[1].get("bytes", 0)), "bytes"),
            "bench.self_s": (pass_median(lambda p: p[2] - sum(p[0].values())), "s"),
            "trace.spans": (pass_median(lambda p: p[3]), "count"),
        })
        return out

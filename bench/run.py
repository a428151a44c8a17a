"""Benchmark of the tchoukaillon library and its CLI.

    python3 bench/run.py --workload {linear,reconstruct,graph,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
``src``.  One process is one closed-loop caller.  Set-up imports the
library, builds the seeded op list and runs one op of each kind, nine
times over; ``setup_s`` is the median.  Then the op list is run in whole
passes until S seconds have gone by (at least three passes), each op
timed alone, and each op's latency is its median over the passes, so a
stall in one pass does not move the figures.  Outputs are checked
outside the timed region: the first answer of every op by the oracles,
later ones against the first.

Every timing is scaled to a reference machine speed.  The shared host
this was built on runs half again as fast in some phases as in others,
and a phase lasts seconds to minutes, so raw figures of identical runs
differ by a quarter or more.  After each set-up round, and before an
op whenever a quarter second has passed since the last time,
:func:`speed` times a fixed loop: how much faster than the reference
the loop ran is a calibration.  A timing is multiplied by the median of
the five calibrations around it: the three made last before the op and
the two made after it.  One calibration alone can read a third of its
neighbours while the ops' own times hold still, so scaling by it alone
added noise of its own; five span about a second, shorter than a phase.  Set-up times are multiplied by the median of the
set-up rounds' calibrations.  The cli workload calibrates with a bare
interpreter start instead (:func:`spawn_speed`), once a second.

With ``--trace 1`` the passes alternate untraced and traced, the fixed
reference ops are appended to the op list, and the per-layer metrics
and the tracing overhead are reported instead of the end-to-end ones.
The last line of stdout is the result as one JSON object; the result and
the spans are also written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
MODULES = ("core", "length", "sieve", "crt", "graph", "cli")
SETUP_ROUNDS = 9
MIN_PASSES = 3
TAIL_SAMPLES = 10
# The calibration loop's time at the reference speed: about its time in
# this machine's slow phases, so that scaled figures read as seconds there.
REFERENCE_S = 0.0033
CALIBRATE_EVERY_S = 0.25
# A bare interpreter's start, `python -c pass`, at the reference speed:
# about its time here.  The cli workload is scaled by it instead.
REFERENCE_SPAWN_S = 0.080
SPAWN_EVERY_S = 1.0
TIME_UNITS = {"s", "ms", "us"}


def speed() -> float:
    """How much faster than the reference the machine runs right now.

    Times a fixed pure-Python loop of the benchmark's own (the residue walk
    of n = 10^8, 17,723 steps) three times; a timing multiplied by the
    factor is the time the work would have taken at the reference speed.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        oracles.walk_bins(10**8)
        times.append(perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


def spawn_speed(env: workloads.Env) -> float:
    """How much faster than the reference a bare interpreter starts right now.

    The cli workload's ops are child processes.  Their start-up cost
    moves with the host's load in ways the in-process loop of
    :func:`speed` does not follow: in runs whose loop calibrations read
    about 1.0 throughout, the children took 12-20 % longer than in
    others.  A bare ``python -c pass`` child moves with them, and a change
    to the library's import or output still moves the ops but not it.
    """
    start = perf_counter()
    subprocess.run([env.python, "-c", "pass"], capture_output=True, env=env.child_env, check=True, timeout=120)
    return REFERENCE_SPAWN_S / (perf_counter() - start)


def load_library() -> SimpleNamespace:
    """Import tchoukaillon afresh, refusing any copy but the checkout's."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tchoukaillon"]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"tchoukaillon.{m}") for m in MODULES})
    for module in vars(lib).values():
        if Path(module.__file__).resolve().parent.parent != SRC:
            raise SystemExit(f"{module.__name__} was imported from {module.__file__}, not from {SRC}")
    return lib


def check_child_import(env: workloads.Env) -> None:
    """CLI children must import the checkout's copy too."""
    proc = subprocess.run(
        [env.python, "-c", "import tchoukaillon.cli; print(tchoukaillon.cli.__file__)"],
        capture_output=True, text=True, env=env.child_env, timeout=120,
    )
    where = Path(proc.stdout.strip()).resolve()
    if proc.returncode != 0 or where.parent.parent != SRC:
        raise SystemExit(f"a CLI child imports tchoukaillon from {where}, not from {SRC}: {proc.stderr}")


def set_up(workload: str, seed: int, traced: bool, env: workloads.Env):
    """Import, build the op list and warm up; returns (seconds, library, ops)."""
    start = perf_counter()
    lib = load_library()
    if workload == "cli" or traced:
        check_child_import(env)
    rng = random.Random(f"{workload}/{seed}")
    ops = workloads.WORKLOADS[workload](lib, rng, env)
    reference = workloads.reference(lib, env) if traced else []
    warmed = set()
    for op in ops + reference:  # a kind's first op is its smallest, so warm-up costs the same on every seed
        if op.span not in warmed:
            warmed.add(op.span)
            try:
                op.call()
            except Exception:  # the timed passes count and report it
                pass
    rng.shuffle(ops)
    return perf_counter() - start, lib, ops + reference


def freeze(value):
    """A hashable copy of an answer, to compare later passes with the first."""
    if isinstance(value, (list, tuple)):
        return tuple(map(freeze, value))
    if isinstance(value, dict):
        return tuple((k, freeze(v)) for k, v in value.items())
    if isinstance(value, BaseException):
        return type(value).__name__, str(value)
    return value


class Runner:
    """Times ops one at a time and checks each answer outside the timing."""

    def __init__(self, ops, calibrate, every_s: float) -> None:
        self.ops = ops
        self.calibrate, self.every_s = calibrate, every_s
        self.samples: list[tuple[bool, int, float, int]] = []  # (traced, op index, seconds, last calibration)
        self.speeds: list[float] = []  # one per calibration
        self.calibrated_at = float("-inf")
        self.answers: list[int | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.traced = False

    def run_op(self, index: int, op, call) -> None:
        if perf_counter() - self.calibrated_at > self.every_s:
            self.speeds.append(self.calibrate())
            self.calibrated_at = perf_counter()
        self.attempted += 1
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{op.span} #{index}: {type(exc).__name__}: {exc}")
            return
        self.samples.append((self.traced, index, perf_counter() - start, len(self.speeds) - 1))
        answer = hash(freeze(result))
        if self.answers[index] is None:
            try:
                op.check(result)
            except Exception as exc:
                self.fail_check(index, op, f"{type(exc).__name__}: {exc}")
                return
            self.answers[index] = answer
        elif answer != self.answers[index]:
            self.fail_check(index, op, "answer differs from the first pass")

    def fail_check(self, index: int, op, message: str) -> None:
        self.failed += 1
        self.wrong.append(f"{op.span} #{index}: {message}")

    def run(self, seconds: float, lib, tracer: tracing.Tracer | None) -> int:
        deadline = perf_counter() + seconds
        passes = 0
        minimum = 2 * MIN_PASSES - 2 if tracer else MIN_PASSES
        while passes < minimum or perf_counter() < deadline:
            gc.collect()
            self.traced = tracer is not None and passes % 2 == 1
            if self.traced:
                tracer.run_pass(lib, self.ops, self.run_op)
            else:
                for index, op in enumerate(self.ops):
                    self.run_op(index, op, op.call)
            passes += 1
        return passes

    def scaled(self, traced: bool) -> list[list[float]]:
        """Each op's timings in the passes of one kind, at the reference speed."""
        per_op: list[list[float]] = [[] for _ in self.ops]
        for was_traced, index, seconds, last in self.samples:
            if was_traced == traced:
                per_op[index].append(seconds * statistics.median(self.speeds[max(0, last - 2) : last + 3]))
        return per_op

    def medians(self, traced: bool) -> list[float]:
        return [statistics.median(s) for s in self.scaled(traced) if s]


def end_to_end(latencies: list[float], workload: str, setup_s: float) -> dict:
    ordered = sorted(latencies)
    tail_rank = len(ordered) - TAIL_SAMPLES  # nearest rank: TAIL_SAMPLES medians lie beyond it
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "throughput_ops_s": (len(ordered) / sum(ordered), "1/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_tail_ms": (ordered[tail_rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tchoukaillon" / "__init__.py").is_file():
        print(f"error: no tchoukaillon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env = workloads.Env(sys.executable, child_env, tmpdir)
    traced = bool(args.trace)
    if args.workload == "cli":
        calibrate, every_s = (lambda: spawn_speed(env)), SPAWN_EVERY_S
    else:
        calibrate, every_s = speed, CALIBRATE_EVERY_S
    try:
        times, speeds = [], []
        for _ in range(SETUP_ROUNDS):
            lib = ops = None  # one round's inputs at a time, so peak RSS holds one copy
            gc.collect()
            seconds, lib, ops = set_up(args.workload, args.seed, traced, env)
            times.append(seconds)
            speeds.append(calibrate())
        setup_s = statistics.median(times) * statistics.median(speeds)
        runner = Runner(ops, calibrate, every_s)
        tracer = tracing.Tracer() if traced else None
        passes = runner.run(args.seconds, lib, tracer)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    untraced = runner.medians(False)
    if tracer:
        factor = statistics.median(runner.speeds)
        metrics = {
            name: (value * factor if unit in TIME_UNITS else value / factor if unit == "1/s" else value, unit)
            for name, (value, unit) in tracer.metrics().items()
        }
        metrics["trace.overhead_pct"] = (100 * (sum(runner.medians(True)) / sum(untraced) - 1), "%")
        tracer.write(str(RESULTS / f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(untraced, args.workload, setup_s)
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    tail_rank = len(untraced) - TAIL_SAMPLES
    op_ms: dict[str, list[float]] = {}
    for op, samples in zip(ops, runner.scaled(False)):
        if samples:
            op_ms.setdefault(op.span, []).append(statistics.median(samples) * 1e3)
    detail = dict(
        result,
        workload=args.workload, seed=args.seed, trace=args.trace, passes=passes, ops=len(ops), speeds=runner.speeds,
        tail_percentile=100 * tail_rank / len(untraced), wrong=runner.wrong, errors=runner.errors,
        op_ms={span: sorted(values) for span, values in sorted(op_ms.items())},
    )
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    for line in runner.wrong + runner.errors:
        print(line, file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {passes} passes of {len(ops)} ops, "
        f"latency_tail = p{detail['tail_percentile']:g} of {len(untraced)} per-op medians"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own oracles accept every answer of its seed-1 op lists.

``bench/run.py`` counts an op whose answer fails its oracle as wrong, and
the whole run then reads ``correct: false``.  This runs each op of the
``linear``, ``reconstruct`` and ``graph`` workloads once, as the
benchmark builds them for seed 1, through the same check and the same
hash of the frozen answer, so a change that alters an answer the oracles
pin, or returns a type the runner cannot hash, fails here first.  It
also runs the traced reference ops once, so a library call the tracer
wraps that stops being called (and leaves a per-layer metric without
spans) fails here too.  The benchmark's modules are loaded from their files and nothing is
written under ``bench/``.
"""

import importlib.util
import json
import os
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tchoukaillon import cli, core, crt, graph, length, sieve

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    """Import bench/<name>.py as module *name*, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


load("oracles")  # workloads imports it by this name
workloads = load("workloads")
tracing = load("tracing")
run = load("run")

LIB = SimpleNamespace(core=core, length=length, sieve=sieve, crt=crt, graph=graph, cli=cli)


@pytest.mark.parametrize("workload", ["linear", "reconstruct", "graph"])
def test_seed_one_ops_pass_their_oracles(workload, tmp_path):
    env = workloads.Env(sys.executable, dict(os.environ), str(tmp_path))
    ops = workloads.WORKLOADS[workload](LIB, random.Random(f"{workload}/1"), env)
    assert ops
    for index, op in enumerate(ops):
        try:
            answer = op.call()
            op.check(answer)
            hash(run.freeze(answer))
        except Exception as exc:
            pytest.fail(f"{workload} op #{index} ({op.span}): {type(exc).__name__}: {exc}")


def test_traced_reference_pass_reports_every_per_layer_metric(tmp_path):
    # run.py adds trace.overhead_pct itself, from the untraced passes.
    per_layer = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    expected = {metric["name"] for metric in per_layer} - {"trace.overhead_pct"}
    src = str(Path(cli.__file__).resolve().parent.parent)
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env = workloads.Env(sys.executable, child_env, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.run_pass(LIB, workloads.reference(LIB, env), lambda index, op, call: op.check(call()))
    metrics = tracer.metrics()
    assert expected - set(metrics) == set()
    # The tracer counts and times the crt search by replacing
    # crt.complete_constraints, so the reconstructions must reach the search
    # through that attribute.  The reference ops run two minimal queries:
    # {9: 2} in the library and {3: 1, 7: 2} through the CLI.
    minimal = [crt.PartialConstraint({9: 2}), crt.PartialConstraint({3: 1, 7: 2})]
    assert metrics["crt.completions"][0] == sum(len(list(crt.complete_constraints(pc))) for pc in minimal)
    assert metrics["crt.search_p50_ms"][0] > 0

"""The benchmark's own oracles accept every answer of its seed-1 op lists.

``bench/run.py`` counts an op whose answer fails its oracle as wrong, and
the whole run then reads ``correct: false``.  This runs each op of the
``linear``, ``reconstruct`` and ``graph`` workloads once, as the
benchmark builds them for seed 1, through the same check, so a change
that alters an answer the oracles pin fails here first.  The benchmark's
modules are loaded from their files and nothing is written under
``bench/``.
"""

import importlib.util
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

LIB = SimpleNamespace(core=core, length=length, sieve=sieve, crt=crt, graph=graph, cli=cli)


@pytest.mark.parametrize("workload", ["linear", "reconstruct", "graph"])
def test_seed_one_ops_pass_their_oracles(workload, tmp_path):
    env = workloads.Env(sys.executable, dict(os.environ), str(tmp_path))
    ops = workloads.WORKLOADS[workload](LIB, random.Random(f"{workload}/1"), env)
    assert ops
    for index, op in enumerate(ops):
        try:
            op.check(op.call())
        except Exception as exc:
            pytest.fail(f"{workload} op #{index} ({op.span}): {type(exc).__name__}: {exc}")

"""Smoke test of the traced benchmark's hooks: the tracer in perfbench/
wraps package callables by name (cli.solve, suites.phi, the in_domain field
of ObjectiveSpec, ...), so deleting or renaming one breaks the benchmark.
This installs the tracer, runs a small lambda-sweep and every diagnostics
suite through it, and checks that removing it restores numpy."""

import contextlib
import io
from pathlib import Path

import numpy as np

import expgrad
from expgrad.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_runs_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from bench_trace import Tracer

    ops = tmp_path / "ops.json"
    assert main(["gen", "--dim", "4", "--num-ops", "16", "--seed", "1", "--out", str(ops)]) == 0
    eigh = np.linalg.eigh
    tracer = Tracer()
    try:
        tracer.install(expgrad)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["lambda-sweep", "--operators", str(ops), "--lambdas", "0.1,0.01"])
        records = expgrad.suites.run_suite("all", 4, 0)
    finally:
        tracer.remove()
    assert rc == 0
    assert len(tracer.solves) == 2
    assert len(records) == 24
    assert np.linalg.eigh is eigh

"""tools/trajectory_suite.py and suites.check_probes: the log-partition
checks on the probes (x_k, -grad f(x_k)) of the solver's own runs."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from expgrad import InvalidInput, LogPartitionProbe, random_probe, run_suite
from expgrad.suites import check_probes

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trajectory_suite.py"
spec = importlib.util.spec_from_file_location("trajectory_suite", TOOL)
trajectory_suite = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory_suite)


def test_check_probes_gives_the_suite_margins():
    # probes 1, 5, 9, ... of run_suite("all", 24, 3) are its dimension 3
    # stack: check_probes of the same stack gives their margins, bit for bit
    records = run_suite("all", 24, 3)
    names = ["sandwich", "ratio", "moments", "kappa", "fixed-point", "self-concordance"]
    idx = range(1, 24, 4)
    probe = random_probe([np.random.default_rng([3, i]) for i in idx], 3,
                         ["qst" if i % 2 == 0 else "hermitian" for i in idx])
    margins = check_probes(probe, names)
    assert margins.shape == (len(names), len(idx))
    for row, name in zip(margins, names):
        want = [r["worst_margin"] for r in records if r["check"] == name][1::4]
        assert row.tolist() == want, name


@pytest.mark.parametrize("probe, names", [
    (random_probe(np.random.default_rng(0), 3), ["ratio"]),
    (LogPartitionProbe.stack([random_probe(np.random.default_rng(0), 3)]), []),
    (LogPartitionProbe.stack([random_probe(np.random.default_rng(0), 3)]), ["ratio", "all"]),
    ("probe", ["ratio"]),
], ids=["not-a-stack", "no-names", "unknown-name", "not-a-probe"])
def test_check_probes_rejects(probe, names):
    with pytest.raises(InvalidInput):
        check_probes(probe, names)


def test_unhedged_run_has_no_ratio_failure():
    # 141 probes; the log-partition form of D gave 111 negative ratio margins
    # on them, cancellation at D ~ 1e-12 near the optimum
    m = trajectory_suite.margins(16, None, 0, ["ratio"])
    assert m["probes"] == 141
    assert trajectory_suite.failing(m["ratio"]) == 0


def test_hedged_run_has_no_kappa_failure():
    # 89 probes with widths up to 1.2e10: chi(Delta) saturates to +inf where
    # x e^x - expm1(x) read nan, 20 kappa margins
    m = trajectory_suite.margins(16, 1e-2, 0, ["kappa"])
    assert m["probes"] == 89 and m["delta"] > 1e10
    assert trajectory_suite.failing(m["kappa"]) == 0


def test_failing_counts_nan():
    assert trajectory_suite.failing([0.0, 1.0, -1e-300, math.nan, math.inf]) == 2

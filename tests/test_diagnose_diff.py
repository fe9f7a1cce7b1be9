"""tools/diagnose_diff.py: the records of two trees' `run_suite("all", 100, s)`,
compared check by check."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "diagnose_diff.py"

spec = importlib.util.spec_from_file_location("diagnose_diff", TOOL)
diagnose_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diagnose_diff)


def test_repo_against_itself_is_identical():
    out = subprocess.run([sys.executable, str(TOOL), str(REPO), str(REPO)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
    assert sorted(rows) == sorted(["sandwich", "ratio", "moments", "kappa", "fixed-point",
                                   "self-concordance"])
    for check, (records, flips, identical, max_rel, max_scaled) in rows.items():
        samples = 100 * len(diagnose_diff.SEEDS)
        assert (int(records), int(flips), int(identical)) == (samples, 0, samples), check
        assert float(max_rel) == float(max_scaled) == 0.0
    assert lines[-1] == "check, seed or dim mismatches: 0"


def test_compare_counts_flips_deviations_and_mismatches():
    parent = [{"check": "kappa", "seed": 0, "dim": 2, "pass": True, "worst_margin": 2.0},
              {"check": "kappa", "seed": 0, "dim": 3, "pass": True, "worst_margin": 1e-8},
              {"check": "ratio", "seed": 0, "dim": 2, "pass": True, "worst_margin": float("inf")}]
    change = [dict(parent[0], worst_margin=2.0 * (1 + 1e-12)),
              dict(parent[1], **{"pass": False, "worst_margin": -1e-8}),
              dict(parent[2])]
    table, mismatched = diagnose_diff.compare(parent, change)
    assert mismatched == 0
    assert table["kappa"]["records"] == 2 and table["kappa"]["flips"] == 1
    assert table["kappa"]["identical"] == 0 and table["kappa"]["max_rel"] == 2.0
    assert table["ratio"] == {"records": 1, "flips": 0, "identical": 1, "max_rel": 0.0,
                              "max_scaled": 0.0}
    _, mismatched = diagnose_diff.compare(parent, [dict(parent[0], dim=5)] + change[1:2])
    assert mismatched == 2  # one dim differs, one record unpaired
    _, mismatched = diagnose_diff.compare(parent, [dict(parent[0], seed=1)] + change[1:])
    assert mismatched == 1

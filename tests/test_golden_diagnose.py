"""Golden diagnose records: `run_suite("all", 24, 0)` must reproduce the
records recorded from the diagnostics before they were batched over alpha
grids, sample populations and probes. That is 144 records, four of each
dimension in (2, 3, 5, 8) per check, half with tomography-gradient and half
with plain Hermitian directions.

check, dim and pass must match exactly; worst_margin within
1e-10 * max(1, |ref|), since stacked evaluation may reorder a sum.

    PYTHONPATH=src python tests/test_golden_diagnose.py          # compare only
    PYTHONPATH=src python tests/test_golden_diagnose.py --write  # rewrite the file

Without an argument the script writes nothing: it prints the table of
tools/diagnose_diff.py, the golden records against today's (bit-identical
margins and largest deviations per check), and exits nonzero on a check,
seed, dim or pass mismatch. Rewrite the file only on purpose.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from expgrad.suites import run_suite

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "diagnose_all_24_seed0.json"
SAMPLES, SEED = 24, 0

_spec = importlib.util.spec_from_file_location(
    "diagnose_diff", Path(__file__).resolve().parents[1] / "tools" / "diagnose_diff.py")
diagnose_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diagnose_diff)


def test_reproduces_golden_records():
    want = json.loads(GOLDEN.read_text())
    got = run_suite("all", SAMPLES, SEED)
    assert len(got) == len(want) == 6 * SAMPLES
    for g, w in zip(got, want):
        assert (g["check"], g["seed"], g["dim"], g["pass"]) == (
            w["check"], w["seed"], w["dim"], w["pass"])
        assert g["worst_margin"] == pytest.approx(
            w["worst_margin"], rel=1e-10, abs=1e-10), (g["check"], g["dim"])


def test_records_cover_every_check_and_dimension():
    want = json.loads(GOLDEN.read_text())
    assert {(r["check"], r["dim"]) for r in want} == {
        (c, d) for c in {r["check"] for r in want} for d in (2, 3, 5, 8)}
    assert len({r["check"] for r in want}) == 6
    assert all(r["pass"] for r in want)


def test_script_compares_unless_asked_to_write(tmp_path, capsys):
    path = tmp_path / GOLDEN.name
    assert main(["--write", "extra"], path) == 2 and not path.exists()
    assert main(["--write"], path) == 0
    assert json.loads(path.read_text()) == run_suite("all", SAMPLES, SEED)
    path.write_text(GOLDEN.read_text())
    capsys.readouterr()
    assert main([], path) == 0
    assert path.read_text() == GOLDEN.read_text()
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    assert sum(int(row[1]) for row in rows) == 6 * SAMPLES
    assert all(row[2] == "0" for row in rows)
    assert lines[-1] == "check, seed or dim mismatches: 0"
    records = json.loads(GOLDEN.read_text())
    records[5]["pass"] = not records[5]["pass"]
    path.write_text(json.dumps(records))
    assert main([], path) == 1
    assert json.loads(path.read_text()) == records


def main(argv, golden=GOLDEN) -> int:
    """`python tests/test_golden_diagnose.py [--write]`."""
    if argv not in ([], ["--write"]):
        print("usage: PYTHONPATH=src python tests/test_golden_diagnose.py [--write]", file=sys.stderr)
        return 2
    records = run_suite("all", SAMPLES, SEED)
    if argv:
        golden.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
        print(f"wrote {len(records)} records to {golden}")
        return 0
    return diagnose_diff.report(*diagnose_diff.compare(json.loads(golden.read_text()), records))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

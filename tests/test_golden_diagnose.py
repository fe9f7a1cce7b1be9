"""Golden diagnose records: `run_suite("all", 24, 0)` must reproduce the
records recorded from the diagnostics before they were batched over alpha
grids, sample populations and probes. That is 144 records, four of each
dimension in (2, 3, 5, 8) per check, half with tomography-gradient and half
with plain Hermitian directions.

check, dim and pass must match exactly; worst_margin within
1e-10 * max(1, |ref|), since stacked evaluation may reorder a sum.

    PYTHONPATH=src python tests/test_golden_diagnose.py          # compare only
    PYTHONPATH=src python tests/test_golden_diagnose.py --write  # rewrite the file

Without an argument the script writes nothing: it prints how many margins
are bit-identical and the largest relative deviation per check, and exits
nonzero on a check, dim or pass mismatch. Rewrite the file only on purpose.
"""

import json
import sys
from pathlib import Path

import pytest

from expgrad.suites import run_suite

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "diagnose_all_24_seed0.json"
SAMPLES, SEED = 24, 0


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
    assert main([], path) == 0
    assert path.read_text() == GOLDEN.read_text()
    assert f"of {6 * SAMPLES} margins bit-identical" in capsys.readouterr().out
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
    want = json.loads(golden.read_text())
    keys = ("check", "seed", "dim", "pass")
    mismatched = len(records) != len(want) or any(
        tuple(g[k] for k in keys) != tuple(w[k] for k in keys) for g, w in zip(records, want))
    same, deviation = 0, {}
    for g, w in zip(records, want):
        a, b = g["worst_margin"], w["worst_margin"]
        same += repr(a) == repr(b)
        rel = abs(a - b) / abs(b) if b else abs(a)
        deviation[w["check"]] = max(deviation.get(w["check"], 0.0), rel)
    print(f"{same} of {len(want)} margins bit-identical")
    for check, rel in deviation.items():
        print(f"{check}: largest relative deviation {rel:.3g}")
    if mismatched:
        print("check, seed, dim or pass differs from the golden records", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

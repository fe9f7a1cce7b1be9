"""Golden diagnose records: `run_suite("all", 24, 0)` must reproduce the
records recorded from the diagnostics before they were batched over alpha
grids, sample populations and probes. That is 144 records, four of each
dimension in (2, 3, 5, 8) per check, half with tomography-gradient and half
with plain Hermitian directions.

check, dim and pass must match exactly; worst_margin within
1e-10 * max(1, |ref|), since stacked evaluation may reorder a sum.
Rewrite the file only on purpose, with

    PYTHONPATH=src python tests/test_golden_diagnose.py
"""

import json
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


def record():
    records = run_suite("all", SAMPLES, SEED)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


if __name__ == "__main__":
    record()

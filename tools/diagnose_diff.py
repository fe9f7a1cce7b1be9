"""Compare the ``diagnose`` records of two source trees.

    git archive PARENT_REV | tar -x -C /tmp/parent
    python3 tools/diagnose_diff.py /tmp/parent .

Each tree's ``expgrad`` (from ``TREE/src``) is imported in its own
subprocess, which runs ``run_suite("all", 100, s)`` for s in (0, 1, 2, 7).
The records are paired in order. For each check the table gives the
records, the pass flags that flip, the margins that are the same bits, and
the largest deviation of the others: relative, |a - b| / max(|a|, |b|), and
scaled as the golden records' tolerance, |a - b| / max(1, |a|, |b|). A margin
such as 1e-8 - r, with r a round-off-sized relative error, has a relative
deviation of order 1e-5 when r moves by 1e-13; the scaled one reads 1e-13.
Exits 1 if the record lists differ in length, or in a check, seed, dim or
pass flag.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SEEDS = (0, 1, 2, 7)
SAMPLES = 100

_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from expgrad.suites import run_suite
print(json.dumps([r for s in {seeds} for r in run_suite("all", {samples}, s)]))
""".format(seeds=SEEDS, samples=SAMPLES)


def records(tree: Path) -> list[dict]:
    """The records of every seed, from the tree's own package."""
    out = subprocess.run([sys.executable, "-c", _RUN, str(Path(tree).resolve() / "src")],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def deviation(a: float, b: float, floor: float = 0.0) -> float:
    """|a - b| / max(floor, |a|, |b|); zero for the same value, inf ones
    included."""
    if a == b:
        return 0.0
    return abs(a - b) / max(floor, abs(a), abs(b))


def compare(parent: list[dict], change: list[dict]) -> tuple[dict, int]:
    """Per check: records, pass flips, identical margins, largest relative
    and scaled deviations; and the number of record pairs whose check, seed
    or dim differ (the unpaired records of a longer list count too)."""
    table: dict[str, dict] = {}
    mismatched = abs(len(parent) - len(change))
    for p, c in zip(parent, change):
        if any(p[key] != c[key] for key in ("check", "seed", "dim")):
            mismatched += 1
            continue
        row = table.setdefault(p["check"], {"records": 0, "flips": 0, "identical": 0,
                                            "max_rel": 0.0, "max_scaled": 0.0})
        row["records"] += 1
        row["flips"] += p["pass"] != c["pass"]
        a, b = p["worst_margin"], c["worst_margin"]
        row["identical"] += a.hex() == b.hex()
        row["max_rel"] = max(row["max_rel"], deviation(a, b))
        row["max_scaled"] = max(row["max_scaled"], deviation(a, b, 1.0))
    return table, mismatched


def report(table: dict, mismatched: int) -> int:
    """Print what compare gives, one row per check and then the mismatch
    count; the exit code, 1 on a mismatch or a pass flag that flips."""
    print(f"{'check':<18}{'records':>8}{'flips':>7}{'identical':>11}{'max_rel':>11}{'max_scaled':>12}")
    for check, row in table.items():
        print(f"{check:<18}{row['records']:>8}{row['flips']:>7}{row['identical']:>11}"
              f"{row['max_rel']:>11.2e}{row['max_scaled']:>12.2e}")
    print(f"check, seed or dim mismatches: {mismatched}")
    return int(mismatched > 0 or any(row["flips"] for row in table.values()))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return report(*compare(records(Path(args[0])), records(Path(args[1]))))


if __name__ == "__main__":
    sys.exit(main())

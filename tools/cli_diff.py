"""Compare the CLI outputs of two source trees.

    git archive PARENT_REV | tar -x -C /tmp/parent
    python3 tools/cli_diff.py /tmp/parent .

Each tree's ``expgrad`` (from ``TREE/src``) runs one fixed script of CLI
commands in its own subprocess and its own temporary directory: ``gen`` of
two ensembles; ``run --trace --summary`` for each of the five objective
families (tomography d = 6 with 24 operators, hedged at lambda = 1e-3,
Poisson on 12 x 5 rows, Burg d = 7, quadratic d = 4); an 8-weight
``lambda-sweep`` at d = 16 with 64 operators; a 40-sample
``diagnose --suite all --report``; and three runs through ``--config``: a
tomography ``run`` filled from a file, a 3-weight ``lambda-sweep`` whose
``--max-iter`` overrides its file, and a ``run`` whose file has an unknown
key (exit 2, JSON error on stderr); three tomography ``run``s on
malformed ensemble files: JSON cut short (exit 1), a float ``dim`` (exit 2),
and a malformed operator before a syntax error (exit 1); a tomography
and a Poisson ``run`` on files holding an integer entry no double holds
(exit 2 each); two tomography ``run``s on an ensemble file nested too deep
for the JSON decoder (exit 1) and on one with a numeric string entry
(exit 2); a tomography ``run`` on an ensemble file whose second operator
is zero (exit 2); two ``run``s given an input their objective does not
read, a tomography ``--dim`` and a Burg ``--operators`` naming a missing
file (exit 2 each); a hedged ``run`` at lambda = 1e-3 and alpha-bar = 1e6 on a
d = 2 ensemble of 4 operators that ``gen`` writes at seed 46, whose search
passes a step with a subnormal smallest eigenvalue (exit 0); and two
tomography ``run``s on files written as bytes that are not UTF-8, an
ensemble file (exit 1) and a config file (exit 2). Every file the
script leaves, each command's stdout, stderr and exit code among them, is
compared byte for byte, with the ``wall_time_ms`` field of ``run``'s summary
(a timing) left out. Prints the files that differ and exits 1 if any does,
or if a file is missing from one tree.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FULL = {"dim": 6, "ops": 24, "rows": (12, 5), "burg": 7, "quadratic": 4,
        "sweep_dim": 16, "sweep_ops": 64, "lambdas": 8, "samples": 40}
SMALL = {"dim": 3, "ops": 6, "rows": (4, 3), "burg": 3, "quadratic": 2,
         "sweep_dim": 3, "sweep_ops": 6, "lambdas": 3, "samples": 8}

# runs each command of the script through expgrad.cli.main, in the current
# directory, keeping its stdout, stderr and exit code as files
_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from expgrad.cli import main
for name, argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:  # a crash is an output to compare too
            code = f"{type(exc).__name__}: {exc}"
    for ext, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()), ("exit", f"{code}\\n")):
        with open(f"{name}.{ext}", "w") as fh:
            fh.write(text)
"""

_WALL_TIME = re.compile(rb', "wall_time_ms": [^,}]*')

# the config files the script reads; every key but the unknown one is a
# solver flag, which both run and lambda-sweep take
CONFIGS = {
    "run_config.json": {"alpha-bar": 2.0, "tau": 0.25, "max-iter": 40},
    "sweep_config.json": {"max-iter": 5, "shrink": 0.25, "tol": 1e-8},
    "unknown_config.json": {"max_iter": 3},
}

# malformed input files, each read by one run of the objective named: the two
# operators are the standard basis of d = 2, and _TOO_LARGE an integer entry
# no double holds
_OPERATORS = ('[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], '
              '[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]')
_TOO_LARGE = "1" + "0" * 400
MALFORMED = {
    "truncated": ("qst", '{"dim": 2, "operators": ' + _OPERATORS[:-20]),
    "dim-float": ("qst", '{"dim": 2.0, "operators": ' + _OPERATORS + "}"),
    "bad-operator-then-syntax-error": ("qst", '{"dim": 2, "operators": [5.0, ' + _OPERATORS + "}"),
    "entry-too-large": ("qst", '{"dim": 1, "operators": [[[[%s, 0.0]]]]}' % _TOO_LARGE),
    "rows-entry-too-large": ("poisson", '{"dim": 1, "rows": [[%s]]}' % _TOO_LARGE),
    "nested-too-deep": ("qst", "[" * 100_000),
    "numeric-string-entry": ("qst", '{"dim": 2, "operators": [[[["1", 0.0], [0.0, 0.0]], '
                                    '[[0.0, 0.0], [1.0, 0.0]]]]}'),
    # the identity and the zero matrix of d = 2
    "qst-zero-operator": ("qst", '{"dim": 2, "operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], '
                                 '[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}'),
}

# input files that are not UTF-8, written as bytes: an ensemble file and a
# config file
NOT_UTF8 = {"not_utf8_ens.json": b'\xff\xfe{"dim": 2}', "not_utf8_config.json": b'{"max-iter": 3, "tol": "\xff"}'}


def script(sizes: dict) -> list[tuple[str, list[str]]]:
    """The (name, argv) commands of one run, at the given instance sizes."""
    lambdas = ",".join(repr(float(x)) for x in np.geomspace(1e-1, 1e-4, sizes["lambdas"]))
    lambdas_3 = ",".join(repr(float(x)) for x in np.geomspace(1e-1, 1e-3, 3))
    commands = [
        ("gen", ["gen", "--dim", str(sizes["dim"]), "--num-ops", str(sizes["ops"]),
                 "--seed", "3", "--out", "ens.json"]),
        ("gen-sweep", ["gen", "--dim", str(sizes["sweep_dim"]), "--num-ops",
                       str(sizes["sweep_ops"]), "--seed", "2", "--out", "sweep_ens.json"]),
    ]
    for family, extra in (("qst", ["--operators", "ens.json"]),
                          ("hedged-qst", ["--operators", "ens.json", "--lambda", "1e-3"]),
                          ("poisson", ["--operators", "rows.json"]),
                          ("burg", ["--dim", str(sizes["burg"])]),
                          ("quadratic", ["--dim", str(sizes["quadratic"]), "--seed", "4"])):
        commands.append((f"run-{family}", ["run", "--objective", family, *extra,
                                           "--trace", f"{family}.csv",
                                           "--summary", f"{family}.json"]))
    commands += [
        ("lambda-sweep", ["lambda-sweep", "--operators", "sweep_ens.json",
                          "--lambdas", lambdas, "--out", "sweep.json"]),
        ("diagnose", ["diagnose", "--suite", "all", "--samples", str(sizes["samples"]),
                      "--seed", "0", "--report", "diagnose.json"]),
        ("run-config", ["run", "--objective", "qst", "--operators", "ens.json",
                        "--config", "run_config.json", "--trace", "config.csv",
                        "--summary", "config.json"]),
        ("lambda-sweep-config", ["lambda-sweep", "--operators", "sweep_ens.json",
                                 "--lambdas", lambdas_3, "--config", "sweep_config.json",
                                 "--max-iter", "30", "--out", "sweep-config.json"]),
        ("run-unknown-key", ["run", "--objective", "qst", "--operators", "ens.json",
                             "--config", "unknown_config.json"]),
    ]
    commands += [(f"run-{name}", ["run", "--objective", objective, "--operators", f"{name}.json"])
                 for name, (objective, _) in MALFORMED.items()]
    commands += [
        ("run-qst-unread-dim", ["run", "--objective", "qst", "--operators", "ens.json", "--dim", "7"]),
        ("run-burg-unread-operators", ["run", "--objective", "burg", "--dim", "3",
                                       "--operators", "missing.json"]),
        ("gen-subnormal", ["gen", "--dim", "2", "--num-ops", "4", "--seed", "46", "--out", "subnormal_ens.json"]),
        ("run-hedged-subnormal", ["run", "--objective", "hedged-qst", "--operators", "subnormal_ens.json",
                                  "--lambda", "1e-3", "--alpha-bar", "1e6"]),
        ("run-not-utf-8", ["run", "--objective", "qst", "--operators", "not_utf8_ens.json"]),
        ("run-config-not-utf-8", ["run", "--objective", "qst", "--operators", "ens.json",
                                  "--config", "not_utf8_config.json"]),
    ]
    return commands


def run_script(tree: Path, workdir: Path, sizes: dict) -> None:
    """Run the script with the tree's own package, leaving its files in
    workdir; the Poisson rows, the config files and the malformed input
    files are written there first."""
    m, d = sizes["rows"]
    rows = np.random.default_rng(5).random((m, d)) + 0.01
    (workdir / "rows.json").write_text(json.dumps({"dim": d, "rows": rows.tolist()}))
    for name, config in CONFIGS.items():
        (workdir / name).write_text(json.dumps(config))
    for name, (_, text) in MALFORMED.items():
        (workdir / f"{name}.json").write_text(text)
    for name, data in NOT_UTF8.items():
        (workdir / name).write_bytes(data)
    subprocess.run([sys.executable, "-c", _RUN, str(Path(tree).resolve() / "src"),
                    json.dumps(script(sizes))], cwd=workdir, check=True)


def compare(parent: Path, change: Path) -> tuple[list[str], list[str]]:
    """The names of the files in either directory, and of those that differ
    or are missing from one, with wall_time_ms left out."""
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    differ = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()) or (
                _WALL_TIME.sub(b"", a.read_bytes()) != _WALL_TIME.sub(b"", b.read_bytes())):
            differ.append(name)
    return names, differ


def diff(parent_tree: Path, change_tree: Path, sizes: dict = FULL) -> tuple[list[str], list[str]]:
    """Run the script in both trees and compare what each left."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = Path(tmp) / "parent", Path(tmp) / "change"
        for tree, workdir in zip((parent_tree, change_tree), dirs):
            workdir.mkdir()
            run_script(tree, workdir, sizes)
        return compare(*dirs)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    names, differ = diff(Path(args[0]), Path(args[1]))
    for name in differ:
        print(f"DIFFERS {name}")
    print(f"{len(names)} files, {len(differ)} differ")
    return int(bool(differ))


if __name__ == "__main__":
    sys.exit(main())

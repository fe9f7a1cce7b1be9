"""Batch command-line front end.

Subcommands: ``gen`` (synthesize a measurement ensemble), ``run`` (one solve,
emitting a trace CSV and a summary JSON), ``diagnose`` (seeded diagnostic
suites), ``lambda-sweep`` (barrier-weight sweep of the hedged objective).

Exit codes: 0 success, 2 usage error (InvalidInput), 1 any other failure;
both failures print a machine-readable JSON object on stderr, named by the
exception. ``run`` and ``lambda-sweep`` may also take flags from ``--config
FILE``, a JSON object keyed by the long option name; explicit flags override
the file. Both take the solver flags ``alpha-bar``, ``shrink``, ``tau``,
``max-iter``, ``max-backtracks`` and ``tol``, and ``run`` also the keys
``seed`` and ``lambda``; any other key is a usage error. Which of its four
inputs ``run`` reads, ``operators`` and ``dim`` as flags and ``seed`` and
``lambda`` as flags or keys, depends on the objective, as OBJECTIVE_INPUTS
lists them. One rule holds for all four: an input that the objective does
not read is a usage error, and so is a missing one that it requires. Each value is checked by the package function
that reads it (``SolverConfig`` for the solver flags), before any input
file is read, so a malformed one is a usage error whose message names that
function's field, such as ``max_iters`` or ``stop_tol``.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import sys
import time

import numpy as np

from .entropy import ProbabilityVector
from .errors import InvalidInput
from .linalg import DensityState, _count, _positive
from .objectives import (
    MeasurementEnsemble,
    burg_objective,
    hedged_qst_objective,
    poisson_linear_objective,
    qst_objective,
    quadratic_objective,
)
from .serialize import load_ensemble, load_rows, save_ensemble
from .solver import SolverConfig, solve, write_trace_csv
from .suites import SUITE_NAMES, run_suite
from . import diagnostics

# the inputs each objective reads, the first of which it requires: the
# --operators file and --dim as flags, seed and lambda as flags or config keys
OBJECTIVE_INPUTS = {"qst": ("operators",), "hedged-qst": ("operators", "lambda"), "poisson": ("operators",),
                    "burg": ("dim",), "quadratic": ("dim", "seed")}

_Flag = collections.namedtuple("_Flag", "dest default")

# every flag a config file may fill, keyed by its long option name, which is
# its config key: (argparse dest, default). A flag's type is its default's.
# The solver flags are SolverConfig's fields, which every objective reads;
# run also takes seed and lambda. Each value is checked where the package
# reads it: by SolverConfig, or, for seed and lambda, by linalg's scalar
# checks before any input file is read.
_SOLVER_FLAGS = {key: _Flag(field.name, field.default)
                 for key, field in zip(("alpha-bar", "shrink", "tau", "max-iter", "max-backtracks", "tol"),
                                       dataclasses.fields(SolverConfig), strict=True)}
_FLAGS = {**_SOLVER_FLAGS, "seed": _Flag("seed", 0), "lambda": _Flag("lambda", 0.1)}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, then from defaults.
    Raises InvalidInput on a file that is not a JSON object, on a key that
    names no flag of _FLAGS the subcommand takes, and, for run, on an input
    (flag or key) that OBJECTIVE_INPUTS does not list for its objective or a
    missing one that it requires."""
    if "config" not in args:
        return args
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise InvalidInput(f"config file is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise InvalidInput("config file must contain a JSON object")
    flags = {key: flag for key, flag in _FLAGS.items() if flag.dest in args}
    for key in config:
        if key not in flags:
            raise InvalidInput(f"unknown config key {key!r}; {args.command} takes "
                               + ", ".join(sorted(flags)))
    if "objective" in args:
        reads = OBJECTIVE_INPUTS[args.objective]
        for key in dict.fromkeys(name for names in OBJECTIVE_INPUTS.values() for name in names):
            if key not in reads and (getattr(args, key) is not None or key in config):
                raise InvalidInput(f"the {args.objective} objective does not read {key!r}")
        if getattr(args, reads[0]) is None:
            raise InvalidInput(f"the {args.objective} objective requires {reads[0]!r}")
    for key, flag in flags.items():
        if getattr(args, flag.dest) is None:
            setattr(args, flag.dest, config.get(key, flag.default))
    return args


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)})


def _build_problem(args):
    """Returns (objective, initial_state), from the inputs that
    OBJECTIVE_INPUTS lists for args.objective."""
    kind = args.objective
    if kind == "burg":
        return burg_objective(args.dim), ProbabilityVector.uniform(args.dim)
    if kind == "poisson":
        rows = load_rows(args.operators)
        return poisson_linear_objective(rows), ProbabilityVector.uniform(rows.shape[1])
    if kind == "quadratic":
        _count(args.seed, "seed", 0)
        target = diagnostics.random_density(np.random.default_rng(args.seed), args.dim).matrix
        return quadratic_objective(target), DensityState.maximally_mixed(args.dim)
    if kind == "hedged-qst":
        _positive(getattr(args, "lambda"), "lambda")  # a usage error before the file is read
    ens = load_ensemble(args.operators)
    objective = qst_objective(ens) if kind == "qst" else hedged_qst_objective(ens, getattr(args, "lambda"))
    return objective, DensityState.maximally_mixed(ens.dim)


def _write_json(path, payload) -> None:
    """payload as one line of JSON at path, ended by a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def cmd_gen(args) -> int:
    _count(args.dim, "--dim", 2)
    _count(args.num_ops, "--num-ops", 1)
    _count(args.seed, "seed", 0)
    rng = np.random.default_rng(args.seed)
    ops = [diagnostics.random_psd(rng, args.dim) for _ in range(args.num_ops)]
    save_ensemble(MeasurementEnsemble(ops), args.out)
    return 0


def cmd_run(args) -> int:
    cfg = _solver_config(args)
    objective, state0 = _build_problem(args)
    start = time.perf_counter()
    result = solve(state0, objective, cfg)
    wall_ms = (time.perf_counter() - start) * 1e3
    if args.trace:
        write_trace_csv(result.trace, args.trace)
    final_f = result.trace[-1].f_value if result.trace else objective.value(state0)
    summary = {
        "status": result.status.value,
        "iters": len(result.trace),
        "final_f": final_f,
        "final_min_eig": result.final_state.min_eig,
        "wall_time_ms": wall_ms,
    }
    if args.summary:
        _write_json(args.summary, summary)
    print(json.dumps(summary))
    return 0


def cmd_diagnose(args) -> int:
    records = run_suite(args.suite, args.samples, args.seed)
    if args.report:
        _write_json(args.report, records)
    failed = [r for r in records if not r["pass"]]
    print(f"{len(records) - len(failed)}/{len(records)} checks passed")
    for r in failed:
        print(f"FAIL {r['check']} dim={r['dim']} margin={r['worst_margin']:.3e}")
    return 0 if not failed else 1


def _sweep_point(ens, lam, cfg):
    hedged = hedged_qst_objective(ens, lam)
    result = solve(DensityState.maximally_mixed(ens.dim), hedged, cfg)
    unhedged_f = qst_objective(ens).value(result.final_state)
    hedged_f = result.trace[-1].f_value if result.trace else hedged.value(result.final_state)
    return {
        "lambda": lam,
        "hedged_f": hedged_f,
        "f": unhedged_f,
        "iters": len(result.trace),
        "status": result.status.value,
    }


def cmd_lambda_sweep(args) -> int:
    cfg = _solver_config(args)
    try:
        lambdas = [float(s) for s in args.lambdas.split(",") if s.strip()]
    except ValueError:
        raise InvalidInput(f"lambdas must be comma-separated numbers, got {args.lambdas!r}") from None
    if not lambdas:
        raise InvalidInput("--lambdas must list at least one value")
    for lam in lambdas:  # a usage error before the file is read
        _positive(lam, "lambdas")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise InvalidInput("barrier weights must be strictly descending")
    ens = load_ensemble(args.operators)
    rows = [_sweep_point(ens, lam, cfg) for lam in lambdas]
    if args.out:
        _write_json(args.out, rows)
    for row in rows:
        print(json.dumps(row))
    return 0


def _add_config_flags(p: argparse.ArgumentParser, flags: dict):
    """``--config`` and the flags of `flags` (_FLAGS or _SOLVER_FLAGS) it may fill."""
    for key, flag in flags.items():
        p.add_argument(f"--{key}", dest=flag.dest, type=type(flag.default),
                       default=None, metavar=key.upper().replace("-", "_"))
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expgrad")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random PSD measurement ensemble")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--num-ops", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run one solve, emitting trace and summary")
    p_run.add_argument("--objective", choices=OBJECTIVE_INPUTS, required=True)
    p_run.add_argument("--operators", default=None, help="ensemble or rows JSON file")
    p_run.add_argument("--dim", type=int, default=None)
    p_run.add_argument("--trace", default=None, help="trace CSV output path")
    p_run.add_argument("--summary", default=None, help="summary JSON output path")
    _add_config_flags(p_run, _FLAGS)
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser("diagnose", help="run a diagnostics suite")
    p_diag.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p_diag.add_argument("--samples", type=int, default=100)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--report", default=None, help="report JSON output path")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sweep = sub.add_parser("lambda-sweep", help="sweep the hedged barrier weight")
    p_sweep.add_argument("--operators", required=True)
    p_sweep.add_argument("--lambdas", required=True,
                         help="comma-separated descending positive weights")
    p_sweep.add_argument("--out", default=None, help="table JSON output path")
    _add_config_flags(p_sweep, _SOLVER_FLAGS)
    p_sweep.set_defaults(func=cmd_lambda_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, InvalidInput) else 1


if __name__ == "__main__":
    sys.exit(main())

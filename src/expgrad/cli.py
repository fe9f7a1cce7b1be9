"""Batch command-line front end.

Subcommands: ``gen`` (synthesize a measurement ensemble), ``run`` (one solve,
emitting a trace CSV and a summary JSON), ``diagnose`` (seeded diagnostic
suites), ``lambda-sweep`` (barrier-weight sweep of the hedged objective).

Exit codes: 0 success, 1 runtime/domain error, 2 usage error. Runtime errors
print a machine-readable JSON object on stderr. Flags may also be supplied
through ``--config FILE`` (JSON, same names in kebab-case); explicit flags
override the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .entropy import ProbabilityVector
from .errors import BacktrackCapExceeded, DomainError, InvalidInput
from .linalg import DensityState, HermitianOperator
from .objectives import (
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
from .objectives import MeasurementEnsemble

OBJECTIVE_KINDS = ("qst", "hedged-qst", "burg", "poisson", "quadratic")


def _integer(name, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    return value


def _positive_integer(name, value):
    if _integer(name, value) < 1:
        raise InvalidInput(f"{name} must be at least 1, got {value!r}")
    return value


def _number(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidInput(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _number_list(name, value):
    try:
        numbers = [float(s) for s in str(value).split(",") if s.strip()]
    except ValueError:
        raise InvalidInput(f"{name} must be comma-separated numbers, got {value!r}") from None
    return [_number(name, x) for x in numbers]


# the type of every flag that reaches a command as a value, command line or
# config file alike; argparse's own conversion checks only the command line
_FLAG_TYPES = {
    "alpha_bar": _number, "shrink": _number, "tau": _number, "tol": _number,
    "lam": _number, "max_iter": _integer, "max_backtracks": _integer,
    "seed": _integer, "jobs": _positive_integer, "lambdas": _number_list,
}


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, then from defaults, and
    check the type of every value, raising InvalidInput on a mismatch."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise InvalidInput("config file must contain a JSON object")
    for dest, default in parser_defaults.items():
        if getattr(args, dest, None) is None:
            key = dest.replace("_", "-")
            setattr(args, dest, config.get(key, default))
    for dest, check in _FLAG_TYPES.items():
        if hasattr(args, dest):
            setattr(args, dest, check(dest.replace("_", "-"), getattr(args, dest)))
    return args


# solver flag -> SolverConfig field
_SOLVER_FIELDS = {
    "alpha_bar": "alpha_bar", "shrink": "shrink", "tau": "tau", "max_iter": "max_iters",
    "max_backtracks": "max_backtracks", "tol": "stop_tol",
}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**{field: getattr(args, flag) for flag, field in _SOLVER_FIELDS.items()})


def _build_problem(args):
    """Returns (objective, initial_state)."""
    kind = args.objective
    if kind in ("qst", "hedged-qst", "poisson") and args.operators is None:
        raise InvalidInput(f"--operators is required for the {kind} objective")
    if kind == "qst":
        ens = load_ensemble(args.operators)
        return qst_objective(ens), DensityState.maximally_mixed(ens.dim)
    if kind == "hedged-qst":
        ens = load_ensemble(args.operators)
        return hedged_qst_objective(ens, args.lam), DensityState.maximally_mixed(ens.dim)
    if kind == "burg":
        if args.dim is None:
            raise InvalidInput("--dim is required for the burg objective")
        d = int(args.dim)
        return burg_objective(d), ProbabilityVector.uniform(d)
    if kind == "poisson":
        rows = load_rows(args.operators)
        return poisson_linear_objective(rows), ProbabilityVector.uniform(rows.shape[1])
    if kind == "quadratic":
        if args.dim is None:
            raise InvalidInput("--dim is required for the quadratic objective")
        d = int(args.dim)
        if d < 1:
            raise InvalidInput("--dim must be at least 1")
        rng = np.random.default_rng(args.seed)
        target = HermitianOperator(diagnostics.random_density(rng, d).matrix)
        return quadratic_objective(target), DensityState.maximally_mixed(d)
    raise InvalidInput(f"unknown objective {kind!r}")


def cmd_gen(args) -> int:
    dim, num_ops = int(args.dim), int(args.num_ops)
    if dim < 2:
        raise InvalidInput("--dim must be at least 2")
    if num_ops < 1:
        raise InvalidInput("--num-ops must be at least 1")
    rng = np.random.default_rng(int(args.seed))
    ops = []
    for _ in range(num_ops):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ops.append(HermitianOperator(a.conj().T @ a))  # PSD by construction
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
        with open(args.summary, "w") as fh:
            json.dump(summary, fh)
            fh.write("\n")
    print(json.dumps(summary))
    return 0


def cmd_diagnose(args) -> int:
    records = run_suite(args.suite, int(args.samples), int(args.seed))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(records, fh)
            fh.write("\n")
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
    lambdas = args.lambdas
    if not lambdas:
        raise InvalidInput("--lambdas must list at least one value")
    if any(l <= 0.0 for l in lambdas):
        raise InvalidInput("barrier weights must be positive")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise InvalidInput("barrier weights must be strictly descending")
    ens = load_ensemble(args.operators)
    cfg = _solver_config(args)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(lambda lam: _sweep_point(ens, lam, cfg), lambdas))
    else:
        rows = [_sweep_point(ens, lam, cfg) for lam in lambdas]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh)
            fh.write("\n")
    for row in rows:
        print(json.dumps(row))
    return 0


_SOLVER_FLAG_DEFAULTS = {
    **{flag: getattr(SolverConfig(), field) for flag, field in _SOLVER_FIELDS.items()},
    "seed": 0,
}


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha-bar", type=float, default=None)
    p.add_argument("--shrink", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--max-backtracks", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expgrad")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random PSD measurement ensemble")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--num-ops", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen, defaults={})

    p_run = sub.add_parser("run", help="run one solve, emitting trace and summary")
    p_run.add_argument("--objective", choices=OBJECTIVE_KINDS, required=True)
    p_run.add_argument("--operators", default=None, help="ensemble or rows JSON file")
    p_run.add_argument("--lambda", dest="lam", type=float, default=None)
    p_run.add_argument("--dim", type=int, default=None)
    p_run.add_argument("--trace", default=None, help="trace CSV output path")
    p_run.add_argument("--summary", default=None, help="summary JSON output path")
    _add_solver_flags(p_run)
    p_run.set_defaults(func=cmd_run, defaults={**_SOLVER_FLAG_DEFAULTS, "lam": 0.1})

    p_diag = sub.add_parser("diagnose", help="run a diagnostics suite")
    p_diag.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p_diag.add_argument("--samples", type=int, default=100)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--report", default=None, help="report JSON output path")
    p_diag.set_defaults(func=cmd_diagnose, defaults={})

    p_sweep = sub.add_parser("lambda-sweep", help="sweep the hedged barrier weight")
    p_sweep.add_argument("--operators", required=True)
    p_sweep.add_argument("--lambdas", required=True,
                         help="comma-separated descending positive weights")
    p_sweep.add_argument("--out", default=None, help="table JSON output path")
    p_sweep.add_argument("--jobs", type=int, default=1)
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_lambda_sweep, defaults=_SOLVER_FLAG_DEFAULTS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, args.defaults)
        return args.func(args)
    except InvalidInput as exc:
        print(json.dumps({"error": "InvalidInput", "message": str(exc)}), file=sys.stderr)
        return 2
    except (DomainError, BacktrackCapExceeded, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests of the command-line interface: exit codes, file outputs,
config merging, and determinism of the emitted artifacts."""

import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from expgrad import InvalidInput, MeasurementEnsemble, standard_basis_ensemble
from expgrad.cli import main
from expgrad.serialize import load_ensemble, load_rows, save_ensemble
from helpers import json_load_ensemble

LOG2 = math.log(2.0)


@pytest.fixture
def basis_file(tmp_path):
    path = tmp_path / "basis2.json"
    save_ensemble(standard_basis_ensemble(2), path)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestGen:
    def test_writes_psd_ensemble(self, tmp_path):
        out = tmp_path / "ens.json"
        assert main(["gen", "--dim", "3", "--num-ops", "5", "--seed", "7",
                     "--out", str(out)]) == 0
        ens = load_ensemble(out)
        assert isinstance(ens, MeasurementEnsemble)
        assert ens.operators.shape == (5, 3, 3)
        assert np.min(np.linalg.eigvalsh(ens.operators)) >= -1e-10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen", "--dim", "2", "--num-ops", "3", "--seed", "11",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_small_dim(self, tmp_path):
        assert main(["gen", "--dim", "1", "--num-ops", "2",
                     "--out", str(tmp_path / "x.json")]) == 2


class TestRun:
    def test_qst_reaches_known_value(self, basis_file, tmp_path, capsys):
        summary_path = tmp_path / "s.json"
        trace_path = tmp_path / "t.csv"
        rc = main(["run", "--objective", "qst", "--operators", basis_file,
                   "--trace", str(trace_path), "--summary", str(summary_path)])
        assert rc == 0
        summary = read_json(summary_path)
        assert summary["final_f"] == pytest.approx(2 * LOG2, abs=1e-9)
        assert summary["status"] in ("Stationary", "Converged")
        assert summary["iters"] >= 1 and summary["wall_time_ms"] > 0.0
        # stdout carries the same summary
        assert json.loads(capsys.readouterr().out) == summary
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "f", "alpha", "backtracks", "delta",
                           "bregman_gap_bar", "min_eig"]
        assert len(rows) == summary["iters"] + 1

    def test_hedged_keeps_eigenvalues_interior(self, basis_file, tmp_path):
        summary_path = tmp_path / "s.json"
        rc = main(["run", "--objective", "hedged-qst", "--operators", basis_file,
                   "--lambda", "0.01", "--summary", str(summary_path)])
        assert rc == 0
        assert read_json(summary_path)["final_min_eig"] > 1e-6

    def test_burg_on_simplex(self, tmp_path, capsys):
        rc = main(["run", "--objective", "burg", "--dim", "4"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        # uniform start is already the minimizer
        assert summary["final_f"] == pytest.approx(4 * math.log(4.0), abs=1e-10)

    def test_poisson_on_simplex(self, tmp_path, capsys):
        rows = [[1.0, 2.0, 0.5], [0.5, 1.0, 3.0], [2.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        rows_path = tmp_path / "rows.json"
        rows_path.write_text(json.dumps({"dim": 3, "rows": rows}))
        rc = main(["run", "--objective", "poisson", "--operators", str(rows_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] in ("Stationary", "Converged")
        # finite, and below the value at the uniform start
        start = -np.log(np.mean(rows, axis=1)).sum()
        assert math.isfinite(summary["final_f"]) and summary["final_f"] < start

    def test_zero_iterations(self, basis_file, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        rc = main(["run", "--objective", "qst", "--operators", basis_file,
                   "--max-iter", "0", "--trace", str(trace_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "MaxIters" and summary["iters"] == 0
        with open(trace_path, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1  # header only

    def test_backtrack_cap_hit_is_a_status(self, tmp_path, capsys):
        # every candidate from alpha_bar = 1e6 down to 1e6 / 8 overshoots the barrier
        ens_path = tmp_path / "ens.json"
        main(["gen", "--dim", "2", "--num-ops", "4", "--out", str(ens_path)])
        rc = main(["run", "--objective", "hedged-qst", "--operators", str(ens_path),
                   "--lambda", "1e-3", "--alpha-bar", "1e6", "--max-backtracks", "3"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "BacktrackCapHit" and summary["iters"] == 0

    def test_trace_deterministic(self, basis_file, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["run", "--objective", "qst", "--operators", basis_file,
                  "--trace", str(path)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_merge_and_override(self, tmp_path, capsys):
        ens_path = tmp_path / "ens.json"
        main(["gen", "--dim", "3", "--num-ops", "6", "--seed", "21",
              "--out", str(ens_path)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max-iter": 2, "alpha-bar": 0.5}))
        main(["run", "--objective", "qst", "--operators", str(ens_path),
              "--config", str(cfg_path)])
        summary = json.loads(capsys.readouterr().out)
        assert summary["iters"] == 2  # config caps the run
        main(["run", "--objective", "qst", "--operators", str(ens_path),
              "--config", str(cfg_path), "--max-iter", "1"])
        summary = json.loads(capsys.readouterr().out)
        assert summary["iters"] == 1  # explicit flag wins

    def test_config_lambda_sets_the_barrier_weight(self, tmp_path, capsys):
        ens_path = tmp_path / "ens.json"
        main(["gen", "--dim", "4", "--num-ops", "8", "--seed", "22", "--out", str(ens_path)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda": 5.0, "max-iter": 3}))
        argv = ["run", "--objective", "hedged-qst", "--operators", str(ens_path)]
        finals = []
        for extra in (["--config", str(cfg_path)], ["--lambda", "5.0", "--max-iter", "3"],
                      ["--max-iter", "3"]):
            assert main(argv + extra) == 0
            finals.append(json.loads(capsys.readouterr().out)["final_f"])
        assert finals[0] == finals[1] != finals[2]

    def test_hedged_barrier_weight_defaults_to_a_tenth(self, basis_file, capsys):
        argv = ["run", "--objective", "hedged-qst", "--operators", basis_file, "--max-iter", "3"]
        finals = []
        for extra in ([], ["--lambda", "0.1"]):
            assert main(argv + extra) == 0
            finals.append(json.loads(capsys.readouterr().out)["final_f"])
        assert finals[0] == finals[1]

    def test_missing_operator_file(self, tmp_path):
        assert main(["run", "--objective", "qst",
                     "--operators", str(tmp_path / "absent.json")]) == 1

    def test_operators_required(self):
        assert main(["run", "--objective", "qst"]) == 2

    def test_dim_required_for_burg(self):
        assert main(["run", "--objective", "burg"]) == 2

    @pytest.mark.parametrize("objective", ["burg", "quadratic"])
    def test_nonpositive_dim_is_usage_error(self, objective):
        assert main(["run", "--objective", objective, "--dim", "0"]) == 2


class TestDiagnose:
    def test_small_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        rc = main(["diagnose", "--suite", "kappa", "--samples", "4",
                   "--seed", "3", "--report", str(report)])
        assert rc == 0
        records = read_json(report)
        assert len(records) == 4
        assert set(records[0]) == {"check", "seed", "dim", "pass", "worst_margin"}
        assert "4/4 checks passed" in capsys.readouterr().out

    def test_failed_records_are_listed_with_exit_1(self, monkeypatch, capsys):
        records = [{"check": "kappa", "seed": 0, "dim": 2, "pass": True, "worst_margin": 0.5},
                   {"check": "kappa", "seed": 0, "dim": 3, "pass": False, "worst_margin": -0.25}]
        monkeypatch.setattr("expgrad.cli.run_suite", lambda name, samples, seed: records)
        assert main(["diagnose", "--suite", "kappa", "--samples", "2"]) == 1
        assert capsys.readouterr().out == "1/2 checks passed\nFAIL kappa dim=3 margin=-2.500e-01\n"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--suite", "bogus"])
        capsys.readouterr()
        assert exc.value.code == 2


class TestLambdaSweep:
    def test_sweep_approaches_unhedged_optimum(self, basis_file, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(["lambda-sweep", "--operators", basis_file,
                   "--lambdas", "0.1,0.01,0.001", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        rows = read_json(out)
        assert [r["lambda"] for r in rows] == [0.1, 0.01, 0.001]
        gaps = [abs(r["f"] - 2 * LOG2) for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 1e-3

    def test_jobs_flag_is_not_accepted(self, basis_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lambda-sweep", "--operators", basis_file, "--lambdas", "0.1", "--jobs", "2"])
        assert "usage:" in capsys.readouterr().err
        assert exc.value.code == 2

    def test_seed_flag_is_not_accepted(self, basis_file, capsys):
        # no hedged solve reads a seed
        with pytest.raises(SystemExit) as exc:
            main(["lambda-sweep", "--operators", basis_file, "--lambdas", "0.1", "--seed", "3"])
        assert "usage:" in capsys.readouterr().err
        assert exc.value.code == 2

    def test_rejects_bad_weight_lists(self, basis_file):
        for bad in (",", "0.01,0.1", "0.1,-0.2"):
            assert main(["lambda-sweep", "--operators", basis_file,
                         "--lambdas", bad]) == 2


def matrix_payload(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def ensemble_payload(*mats, dim=2):
    return {"dim": dim, "operators": [matrix_payload(m) for m in mats]}


MALFORMED_ENSEMBLES = {
    "empty": {"dim": 2, "operators": []},
    "non-square": ensemble_payload(np.ones((2, 3))),
    "mixed-dimensions": ensemble_payload(np.eye(2), np.eye(3)),
    "nan-entry": ensemble_payload(np.eye(2), np.diag([np.nan, 1.0])),
    "infinity-entry": ensemble_payload(np.eye(2), np.diag([np.inf, 1.0])),
    "indefinite": ensemble_payload(np.diag([1.0, -1.0])),
    "all-zero": ensemble_payload(np.zeros((2, 2)), np.zeros((2, 2))),
    "one-zero-operator": ensemble_payload(np.eye(2), np.zeros((2, 2))),
    "dim-mismatch": ensemble_payload(np.eye(2), dim=3),
    "scalar-operator": {"dim": 2, "operators": [5.0]},
    "string-entry": {"dim": 2, "operators": [[[["a", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
    "numeric-string-entry": {"dim": 2, "operators": [[[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
    "top-level-not-an-object": [matrix_payload(np.eye(2))],
    # finite entries whose Hermitian part overflows
    "overflow": ensemble_payload(np.eye(2), np.diag([1.5e308, 1.0])),
    "dim-true": ensemble_payload(np.eye(1), dim=True),
    "dim-float": ensemble_payload(np.eye(2), dim=2.0),
}


# every key a config file may fill: its SolverConfig field (or its flag's
# dest, as the package reads it), and a value out of its range
CONFIG_KEYS = {
    "alpha-bar": ("alpha_bar", 0.0), "shrink": ("shrink", 1.0), "tau": ("tau", 0.0),
    "max-iter": ("max_iters", -1), "max-backtracks": ("max_backtracks", 0), "tol": ("stop_tol", -1e-8),
    "seed": ("seed", -1), "lambda": ("lambda", 0.0),
}
MALFORMED_VALUES = {"string": "1", "bool": True, "null": None, "list": [1], "non-finite": math.inf}

# the inputs each objective reads, its first required (as the README states)
OBJECTIVE_READS = {"qst": ("operators",), "hedged-qst": ("operators", "lambda"), "poisson": ("operators",),
                   "burg": ("dim",), "quadratic": ("dim", "seed")}
# each input of run: where it may be given, and a valid value as its flag
# takes it (a config key takes that text as JSON); ABSENT names a file that
# does not exist, so a run that opens it exits 1
INPUTS = {"operators": (("flag",), "ABSENT"), "dim": (("flag",), "3"),
          "seed": (("flag", "config"), "3"), "lambda": (("flag", "config"), "0.5")}


class TestMalformedInput:
    """Every malformed flag, config value or input file ends in exit 2 with a
    JSON InvalidInput object on stderr, never in a traceback or a silent cast."""

    @pytest.mark.parametrize("config, flags", [
        ({"max-iter": "abc"}, []),
        ({"max-iter": 3.7}, []),
        (None, ["--lambdas", "0.1,abc"]),
    ], ids=["config-max-iter-string", "config-max-iter-fraction", "lambdas-not-numbers"])
    def test_usage_error_as_json(self, basis_file, tmp_path, capsys, config, flags):
        argv = ["lambda-sweep", "--operators", basis_file, "--lambdas", "0.1"]
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv + flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"

    @pytest.mark.parametrize("argv, config", [
        (["run", "--objective", "qst", "--operators", "BASIS"], {"tol": "x"}),
        (["run", "--objective", "qst", "--operators", "BASIS"], [1, 2]),
        (["gen", "--dim", "2", "--num-ops", "0", "--out", "OUT"], None),
        (["run", "--objective", "quadratic"], None),
        (["run", "--objective", "qst", "--operators", "BASIS", "--max-backtracks", "1100"], None),
        (["gen", "--dim", "1", "--num-ops", "2", "--out", "OUT"], None),
        (["run", "--objective", "quadratic", "--dim", "0"], None),
    ], ids=["config-tol-string", "config-not-an-object", "gen-zero-operators", "quadratic-without-dim",
            "cap-past-the-smallest-step", "gen-dim-one", "quadratic-dim-zero"])
    def test_boundary_rejections_as_json(self, basis_file, tmp_path, capsys, argv, config):
        paths = {"BASIS": basis_file, "OUT": str(tmp_path / "ens.json")}
        argv = [paths.get(a, a) for a in argv]
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "ens.json").exists()
        assert json.loads(captured.err)["error"] == "InvalidInput"

    @pytest.mark.parametrize("value", [*MALFORMED_VALUES, "out-of-range"])
    @pytest.mark.parametrize("command, key", [("run", key) for key in CONFIG_KEYS]
                             + [("lambda-sweep", key) for key in CONFIG_KEYS if key not in ("seed", "lambda")])
    def test_malformed_config_value_as_json(self, basis_file, tmp_path, capsys, command, key, value):
        # the CLI passes each value on as it is; the package function that
        # reads it rejects it, under the key or its SolverConfig field name
        field, out_of_range = CONFIG_KEYS[key]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: MALFORMED_VALUES.get(value, out_of_range)}))
        objective = {"seed": "quadratic", "lambda": "hedged-qst"}.get(key, "qst")
        argv = (["lambda-sweep", "--lambdas", "0.1"] if command == "lambda-sweep"
                else ["run", "--objective", objective])
        argv += ["--dim", "2"] if objective == "quadratic" else ["--operators", basis_file]
        assert main(argv + ["--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and (key in err["message"] or field in err["message"])

    @pytest.mark.parametrize("operators", ["BASIS", "ABSENT"])
    @pytest.mark.parametrize("lambdas", ["-1", "inf", "nan", "0.1,-1"])
    def test_lambdas_that_are_not_positive_finite_numbers(self, basis_file, tmp_path, capsys,
                                                          operators, lambdas):
        # checked before the file is read
        path = basis_file if operators == "BASIS" else str(tmp_path / "absent.json")
        assert main(["lambda-sweep", "--operators", path, "--lambdas", lambdas]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and "lambdas" in err["message"]

    @pytest.mark.parametrize("argv, config", [
        (["run", "--objective", "hedged-qst", "--lambda", "-1"], None),
        (["run", "--objective", "hedged-qst", "--lambda", "0"], None),
        (["run", "--objective", "hedged-qst", "--lambda", "nan"], None),
        (["run", "--objective", "hedged-qst"], {"lambda": "x"}),
        (["run", "--objective", "qst", "--tol", "0"], None),
        (["lambda-sweep", "--lambdas", "0.1", "--alpha-bar", "0"], None),
    ], ids=["lambda-negative", "lambda-zero", "lambda-nan", "lambda-string", "run-tol-zero",
            "sweep-alpha-bar-zero"])
    def test_malformed_value_next_to_a_missing_file(self, tmp_path, capsys, argv, config):
        # a usage error, found before the --operators file is opened
        argv = argv + ["--operators", str(tmp_path / "absent.json")]
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["error"] == "InvalidInput"

    @pytest.mark.parametrize("command, text, named", [
        ("run", json.dumps({"max_iter": 1}), "max_iter"),
        ("run", json.dumps({"lam": 5.0}), "lam"),
        ("lambda-sweep", json.dumps({"lambda": 5.0}), "lambda"),
        ("run", '{"max-iter": 1', None),
        ("lambda-sweep", json.dumps({"seed": 3}), "seed"),
    ], ids=["config-unknown-key", "config-lam-key", "config-key-of-another-command",
            "config-not-json", "config-seed-of-lambda-sweep"])
    def test_config_error_as_json(self, basis_file, tmp_path, capsys, command, text, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        argv = {"run": ["run", "--objective", "hedged-qst"],
                "lambda-sweep": ["lambda-sweep", "--lambdas", "0.1"]}[command]
        assert main(argv + ["--operators", basis_file, "--config", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"
        if named is not None:
            assert repr(named) in err["message"]

    @pytest.mark.parametrize("argv, config", [
        (["--objective", "burg", "--dim", "3", "--lambda", "-1"], None),
        (["--objective", "qst", "--operators", "BASIS", "--lambda", "5"], None),
        (["--objective", "quadratic", "--dim", "3"], {"lambda": 5}),
    ], ids=["burg-flag", "qst-flag", "quadratic-config"])
    def test_lambda_without_hedged_objective(self, basis_file, tmp_path, capsys, argv, config):
        argv = ["run"] + [basis_file if a == "BASIS" else a for a in argv]
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and "'lambda'" in err["message"]

    @pytest.mark.parametrize("argv, config", [
        (["--seed", "3"], None),
        ([], {"seed": 3}),
    ], ids=["flag", "config"])
    def test_seed_without_quadratic_objective(self, basis_file, tmp_path, capsys, argv, config):
        argv = ["run", "--objective", "qst", "--operators", basis_file] + argv
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and "'seed'" in err["message"]

    @pytest.mark.parametrize("objective, key, where", [
        (objective, key, where) for objective, reads in OBJECTIVE_READS.items()
        for key, (places, _) in INPUTS.items() if key not in reads for where in places])
    def test_input_the_objective_does_not_read(self, tmp_path, capsys, objective, key, where):
        # every input, as a flag or a config key, with every objective that
        # does not read it: a usage error that names it, before any file is
        # opened (the operators file, read or not, does not exist)
        required = OBJECTIVE_READS[objective][0]
        argv = ["run", "--objective", objective, f"--{required}", INPUTS[required][1]]
        if where == "flag":
            argv += [f"--{key}", INPUTS[key][1]]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({key: json.loads(INPUTS[key][1])}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main([str(tmp_path / "absent.json") if a == "ABSENT" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and repr(key) in err["message"]

    @pytest.mark.parametrize("objective", list(OBJECTIVE_READS))
    def test_missing_required_input(self, tmp_path, capsys, objective):
        # the other inputs it reads do not stand in for it
        argv = ["run", "--objective", objective]
        for key in OBJECTIVE_READS[objective][1:]:
            argv += [f"--{key}", INPUTS[key][1]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and repr(OBJECTIVE_READS[objective][0]) in err["message"]

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--suite", "ratio", "--seed", "-1"],
        ["gen", "--dim", "2", "--num-ops", "2", "--seed", "-1", "--out", "OUT"],
        ["run", "--objective", "quadratic", "--dim", "2", "--seed", "-1"],
        ["run", "--objective", "quadratic", "--dim", "2", "--config", "CONFIG"],
    ], ids=["diagnose", "gen", "run", "run-config"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, argv):
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
        paths = {"OUT": str(tmp_path / "ens.json"), "CONFIG": str(tmp_path / "cfg.json")}
        assert main([paths.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "ens.json").exists()
        err = json.loads(captured.err)
        assert err["error"] == "InvalidInput" and "seed" in err["message"]

    def test_config_seed_sets_the_quadratic_target(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 4}))
        argv = ["run", "--objective", "quadratic", "--dim", "3"]
        finals = []
        for extra in (["--config", str(cfg_path)], ["--seed", "4"], []):
            assert main(argv + extra) == 0
            finals.append(json.loads(capsys.readouterr().out)["final_f"])
        assert finals[0] == finals[1] != finals[2]

    @pytest.mark.parametrize("objective, payload", [
        ("poisson", {"dim": 1, "rows": [["a"]]}),
        ("poisson", {"dim": 2, "rows": [[1, 2], [3]]}),
        ("qst", {"dim": 2, "operators": 5}),
        ("poisson", {"dim": 1, "rows": [[10 ** 400]]}),
        ("qst", {"dim": 1, "operators": [[[[10 ** 400, 0]]]]}),
    ], ids=["rows-not-numbers", "rows-ragged", "operators-not-a-list", "rows-entry-too-large",
            "operators-entry-too-large"])
    def test_malformed_input_file_as_json(self, tmp_path, capsys, objective, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(["run", "--objective", objective, "--operators", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"

    @pytest.mark.parametrize("command", ["run", "lambda-sweep"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_ENSEMBLES))
    def test_malformed_ensemble_file_is_a_usage_error(self, tmp_path, capsys, command, name):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(MALFORMED_ENSEMBLES[name]))
        argv = {"run": ["run", "--objective", "qst"], "lambda-sweep": ["lambda-sweep", "--lambdas", "0.1"]}
        assert main(argv[command] + ["--operators", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert json.loads(captured.err)["error"] == "InvalidInput"


class TestUnreadableFile:
    """A file that cannot be read as JSON text ends in one JSON error object
    on stderr, never in a traceback: a config file as a usage error (exit 2),
    an operators file under its exception's name (exit 1)."""

    @pytest.mark.parametrize("flag, data, code, error", [
        ("--operators", b'\xff\xfe{"dim": 2}', 1, "UnicodeDecodeError"),
        ("--config", b'{"max-iter": 3, "tol": "\xff"}', 2, "InvalidInput"),
        ("--operators", b"[" * 100_000, 1, "RecursionError"),
    ], ids=["operators-not-utf-8", "config-not-utf-8", "operators-nested-too-deep"])
    def test_error_as_json(self, basis_file, tmp_path, capsys, flag, data, code, error):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        argv = {"--operators": ["--operators", str(path)],
                "--config": ["--operators", basis_file, "--config", str(path)]}[flag]
        assert main(["run", "--objective", "qst", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert json.loads(captured.err)["error"] == error


class TestLoaders:
    @pytest.mark.parametrize("dim", [True, 2.0, "2", None])
    def test_ensemble_dim_must_be_an_integer(self, tmp_path, dim):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble_payload(np.eye(1 if dim is True else 2), dim=dim)))
        with pytest.raises(InvalidInput, match="integer 'dim'"):
            load_ensemble(path)

    @pytest.mark.parametrize("dim, rows", [(True, [[1.0]]), (2.0, [[1.0, 2.0]]), ("2", [[1.0, 2.0]])])
    def test_rows_dim_must_be_an_integer(self, tmp_path, capsys, dim, rows):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"dim": dim, "rows": rows}))
        with pytest.raises(InvalidInput, match="integer 'dim'"):
            load_rows(path)
        assert main(["run", "--objective", "poisson", "--operators", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"

    @pytest.mark.parametrize("dim, rows", [(2, [[1.0, 2.0, 3.0]]), (3, [[1.0, 2.0]]), (2, [1.0, 2.0])],
                             ids=["longer", "shorter", "one-dimensional"])
    def test_rows_must_match_the_declared_dimension(self, tmp_path, capsys, dim, rows):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"dim": dim, "rows": rows}))
        with pytest.raises(InvalidInput, match="declared dimension"):
            load_rows(path)
        assert main(["run", "--objective", "poisson", "--operators", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"

    def test_rows_round_trip(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"dim": 2, "rows": [[1.0, 0.5], [0.0, 2.0]]}))
        rows = load_rows(path)
        assert rows.dtype == np.float64 and rows.tolist() == [[1.0, 0.5], [0.0, 2.0]]

    def test_load_peak_memory_is_the_text_and_a_few_stacks(self, tmp_path):
        # parsing the whole file at once, about 120 B of Python objects per
        # complex entry, peaked at 3.35 MB here: 12.8 stacks, against 5.2
        # streamed and a bound of 6.6
        rng = np.random.default_rng(16)
        a = rng.standard_normal((64, 16, 16)) + 1j * rng.standard_normal((64, 16, 16))
        ens = MeasurementEnsemble(a.conj().swapaxes(-1, -2) @ a)
        path = tmp_path / "ens.json"
        save_ensemble(ens, path)
        tracemalloc.start()
        try:
            load_ensemble(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + 4 * ens.operators.nbytes

    def test_ensemble_round_trip_keeps_the_stack(self, tmp_path):
        rng = np.random.default_rng(24)
        mats = []
        for _ in range(4):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            mats.append(a.conj().T @ a)
        ens = MeasurementEnsemble(mats)
        path = tmp_path / "ens.json"
        save_ensemble(ens, path)
        assert load_ensemble(path).operators.tobytes() == ens.operators.tobytes()


def spaced(text):
    """text with JSON whitespace of each kind around every bracket, comma and
    colon (no string of the payloads holds one)."""
    return " \r\n" + re.sub(r"([\[\]{},:])", "\n \\1\t\r", text) + "\n "


VALID = json.dumps(ensemble_payload(np.eye(2), np.diag([0.0, 1.0])))
OPS = VALID[VALID.index("["):-1]  # the text of its operators list

# file texts on which the streaming loader must do what json.load did
LOADER_TEXTS = {
    **{f"malformed-{name}": json.dumps(payload) for name, payload in MALFORMED_ENSEMBLES.items()},
    "valid": VALID,
    "spaced": spaced(VALID),
    "spaced-malformed": spaced(json.dumps(MALFORMED_ENSEMBLES["string-entry"])),
    "reordered-and-extra-keys": '{"extra": {"operators": 5, "dim": 1.5}, "operators": %s, '
                                '"notes": [1, {"a": null}, "]"], "dim": 2}' % OPS,
    "duplicate-operators-first-malformed": '{"dim": 2, "operators": [5.0, "x"], "operators": %s}' % OPS,
    "duplicate-operators-last-malformed": '{"dim": 2, "operators": %s, "operators": [[["a"]]]}' % OPS,
    "duplicate-operators-last-not-a-list": '{"dim": 2, "operators": %s, "operators": 5}' % OPS,
    "duplicate-operators-malformed-then-a-number": '{"dim": 2, "operators": [5.0], "operators": 5}',
    "duplicate-operators-last-a-list": '{"dim": 2, "operators": 5, "operators": %s}' % OPS,
    "duplicate-dim": '{"dim": 3, "operators": %s, "dim": 2}' % OPS,
    "nan-entries": json.dumps(ensemble_payload(np.diag([np.nan, -np.inf]))),
    # an entry no double holds: InvalidInput from the conversion of its
    # matrix payload (serialize.matrix_from_json), which both loaders make
    "integer-entry-too-large": '{"dim": 1, "operators": [[[[1%s, 0]]]]}' % ("0" * 400),
    "escaped-key": '{"dim": 2, "op\\u0065rators": %s}' % OPS,
    "empty-operators": '{"dim": 2, "operators": [ ]}',
    "operators-a-number": '{"dim": 2, "operators": 5}',
    "operators-an-object": '{"dim": 2, "operators": {"0": []}}',
    "top-level-list": json.dumps([1, 2]),
    "top-level-number": "5",
    "top-level-null": " null ",
    "empty-object": "{}",
    "dim-float-next-to-malformed-operator": '{"dim": 2.0, "operators": [5.0]}',
    "no-dim-next-to-malformed-operator": '{"operators": [[["a"]]]}',
    "syntax-error-after-malformed-operator": '{"dim": 2, "operators": [5.0, [[[1.0, 0.0]]',
    "syntax-error-after-malformed-list": '{"dim": 2, "operators": [5.0], "dim" 2}',
    "empty-file": "",
    "whitespace-only": " \n",
    "truncated": VALID[:-20],
    "trailing-data": VALID + " {}",
    "trailing-whitespace": VALID + " \n\t",
    "trailing-comma-in-list": '{"dim": 2, "operators": [%s,]}' % OPS[1:-1],
    "trailing-comma-in-object": '{"dim": 2, "operators": %s,}' % OPS,
    "missing-comma-in-list": '{"dim": 2, "operators": [[] []]}',
    "missing-comma-in-object": '{"dim": 2 "operators": %s}' % OPS,
    "missing-colon": '{"dim" 2, "operators": %s}' % OPS,
    "single-quoted-key": "{'dim': 2}",
    "unquoted-key": '{dim: 2}',
    "unterminated-key": '{"dim',
    "control-character-in-key": '{"di\tm": 2, "operators": %s}' % OPS,
    "unclosed-list": '{"dim": 2, "operators": [',
    "byte-order-mark": "\ufeff" + VALID,
}


def load_outcome(load, path):
    """What load(path) gives: the dimension and the stack's bytes, or the
    type and message of what it raises."""
    try:
        ens = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ens.dim, ens.operators.tobytes()


class TestLoaderMatchesJsonLoad:
    """load_ensemble parses one operator at a time, yet raises what json.load
    of the whole file and then the checks raised, in the same order, and
    gives the same stack."""

    @pytest.mark.parametrize("name", sorted(LOADER_TEXTS))
    def test_same_outcome(self, tmp_path, name):
        path = tmp_path / "ens.json"
        path.write_text(LOADER_TEXTS[name], encoding="utf-8")
        assert load_outcome(load_ensemble, path) == load_outcome(json_load_ensemble, path)

    @pytest.mark.parametrize("name, code, error", [
        ("syntax-error-after-malformed-operator", 1, "JSONDecodeError"),
        ("dim-float-next-to-malformed-operator", 2, "InvalidInput"),
        ("duplicate-operators-first-malformed", 0, None),
    ])
    def test_cli_exit_code(self, tmp_path, capsys, name, code, error):
        path = tmp_path / "ens.json"
        path.write_text(LOADER_TEXTS[name])
        assert main(["lambda-sweep", "--operators", str(path), "--lambdas", "0.1"]) == code
        captured = capsys.readouterr()
        if error is not None:
            assert json.loads(captured.err)["error"] == error


class TestSaveEnsemble:
    @pytest.mark.parametrize("d", [2, 16])
    def test_bytes_match_json_dump_of_nested_lists(self, tmp_path, d):
        rng = np.random.default_rng(23)
        signed_zero = np.eye(d)
        signed_zero[0, 1] = signed_zero[1, 0] = -0.0
        ops = [signed_zero]
        for _ in range(3):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ops.append(a.conj().T @ a)
        ens = MeasurementEnsemble(ops)
        payload = {"dim": d, "operators": [[[[float(z.real), float(z.imag)] for z in row]
                                            for row in op] for op in ens.operators]}
        want = tmp_path / "want.json"
        with open(want, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        got = tmp_path / "got.json"
        save_ensemble(ens, got)
        assert "-0.0" in want.read_text()
        assert got.read_bytes() == want.read_bytes()

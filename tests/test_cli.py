"""End-to-end tests of the command-line interface: exit codes, file outputs,
config merging, and determinism of the emitted artifacts."""

import csv
import json
import math

import numpy as np
import pytest

from expgrad import MeasurementEnsemble, standard_basis_ensemble
from expgrad.cli import main
from expgrad.serialize import load_ensemble, save_ensemble

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
        assert ens.dim == 3 and len(ens.operators) == 5
        for op in ens.operators:
            assert np.min(np.linalg.eigvalsh(op.mat)) >= -1e-10

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

    def test_zero_iterations(self, basis_file, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        rc = main(["run", "--objective", "qst", "--operators", basis_file,
                   "--max-iter", "0", "--trace", str(trace_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "MaxIters" and summary["iters"] == 0
        with open(trace_path, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1  # header only

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

    def test_parallel_matches_serial(self, basis_file, tmp_path, capsys):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        main(["lambda-sweep", "--operators", basis_file,
              "--lambdas", "0.1,0.01", "--out", str(serial)])
        main(["lambda-sweep", "--operators", basis_file,
              "--lambdas", "0.1,0.01", "--out", str(parallel), "--jobs", "2"])
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_rejects_bad_weight_lists(self, basis_file):
        for bad in (",", "0.01,0.1", "0.1,-0.2"):
            assert main(["lambda-sweep", "--operators", basis_file,
                         "--lambdas", bad]) == 2


class TestMalformedInput:
    """Every malformed flag or config value ends in exit 2 with a JSON
    InvalidInput object on stderr, never in a traceback or a silent cast."""

    @pytest.mark.parametrize("config, flags", [
        ({"max-iter": "abc"}, []),
        ({"max-iter": 3.7}, []),
        (None, ["--lambdas", "0.1,abc"]),
        (None, ["--jobs", "0"]),
        (None, ["--jobs", "-2"]),
    ], ids=["config-max-iter-string", "config-max-iter-fraction", "lambdas-not-numbers",
            "jobs-zero", "jobs-negative"])
    def test_usage_error_as_json(self, basis_file, tmp_path, capsys, config, flags):
        argv = ["lambda-sweep", "--operators", basis_file, "--lambdas", "0.1"]
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        assert main(argv + flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInput"

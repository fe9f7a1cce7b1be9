"""tools/cli_diff.py: the CLI outputs of two trees, compared file by file."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "cli_diff.py"

spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
cli_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_diff)


def test_repo_against_itself_is_identical():
    names, differ = cli_diff.diff(REPO, REPO, cli_diff.SMALL)
    assert differ == []
    for family in ("qst", "hedged-qst", "poisson", "burg", "quadratic"):
        assert {f"{family}.csv", f"{family}.json", f"run-{family}.stdout"} <= set(names)
    assert {"ens.json", "sweep.json", "diagnose.json", "lambda-sweep.stdout"} <= set(names)
    assert {"config.csv", "sweep-config.json", "run-unknown-key.stderr"} <= set(names)
    assert {f"run-{name}.stderr" for name in cli_diff.MALFORMED} <= set(names)


# the commands that fail by design: their exit codes and errors
FAILS = {
    "run-unknown-key": ("2", "InvalidInput"),
    "run-truncated": ("1", "JSONDecodeError"),
    "run-dim-float": ("2", "InvalidInput"),
    "run-bad-operator-then-syntax-error": ("1", "JSONDecodeError"),
    "run-entry-too-large": ("2", "InvalidInput"),
    "run-rows-entry-too-large": ("2", "InvalidInput"),
    "run-qst-unread-dim": ("2", "InvalidInput"),
    "run-burg-unread-operators": ("2", "InvalidInput"),
    "run-nested-too-deep": ("1", "RecursionError"),
    "run-numeric-string-entry": ("2", "InvalidInput"),
    "run-qst-zero-operator": ("2", "InvalidInput"),
    "run-not-utf-8": ("1", "UnicodeDecodeError"),
    "run-config-not-utf-8": ("2", "InvalidInput"),
}


def test_every_command_succeeds(tmp_path):
    # but those of FAILS, which fail as they should
    cli_diff.run_script(REPO, tmp_path, cli_diff.SMALL)
    commands = [name for name, _ in cli_diff.script(cli_diff.SMALL)]
    assert set(FAILS) <= set(commands)
    for name in commands:
        exit_code, stderr = ((tmp_path / f"{name}.{ext}").read_text() for ext in ("exit", "stderr"))
        if name in FAILS:
            assert (exit_code[:-1], json.loads(stderr)["error"]) == FAILS[name], name
        else:
            assert exit_code == "0\n" and stderr == "", name


def test_compare_ignores_wall_time_only(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    summary = '{{"status": "Converged", "iters": 3, "final_f": {f}, "wall_time_ms": {ms}}}\n'
    (parent / "run.json").write_text(summary.format(f=1.5, ms=2.25))
    (change / "run.json").write_text(summary.format(f=1.5, ms=7.0))
    (parent / "trace.csv").write_text("k,f\n0,1.5\n")
    (change / "trace.csv").write_text("k,f\n0,1.5000000000000002\n")
    (parent / "only_parent.stdout").write_text("")
    names, differ = cli_diff.compare(parent, change)
    assert names == ["only_parent.stdout", "run.json", "trace.csv"]
    assert differ == ["only_parent.stdout", "trace.csv"]


def test_usage():
    out = subprocess.run([sys.executable, str(TOOL), str(REPO)], capture_output=True, text=True)
    assert out.returncode == 2 and "tools/cli_diff.py" in out.stderr

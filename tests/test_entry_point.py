"""The CLI across a process boundary: ``python -m icofridge.cli`` in a
subprocess, run from a temporary directory, checked by exit code and bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icofridge
from icofridge import verify

# the checkout (or install) these tests import, ahead of anything else
SRC = str(Path(icofridge.__file__).resolve().parents[1])


def icofridge_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "icofridge.cli", *args], cwd=cwd, env=env, capture_output=True, check=False
    )


def test_cycle_stdout_equals_out_file(tmp_path):
    args = ["cycle", "--k", "100", "--r-start", "0.5"]
    to_stdout = icofridge_cli(args, tmp_path)
    to_file = icofridge_cli(args + ["--out", "cycle.csv"], tmp_path)
    assert to_stdout.returncode == 0, to_stdout.stderr
    assert to_file.returncode == 0, to_file.stderr
    assert to_file.stdout == b""
    assert to_stdout.stdout == (tmp_path / "cycle.csv").read_bytes()
    assert to_stdout.stdout.count(b"\n") > 20_000


@pytest.mark.parametrize(
    "args, code, message",
    (
        (["branches", "--r-list", "1e-320"], 1, "usage error: ratio 1e-320 is subnormal"),
        (["branches", "--out", "missing/x.csv"], 3, "io error: cannot write missing/x.csv"),
    ),
    ids=("usage", "io"),
)
def test_error_exit_codes(args, code, message, tmp_path):
    # main returns the code; only the process's own status shows that it
    # reaches sys.exit
    run = icofridge_cli(args, tmp_path)
    assert run.returncode == code
    assert run.stdout == b""
    assert message in run.stderr.decode()


def test_json_rows_hold_every_defect_and_tolerance(tmp_path):
    run = icofridge_cli(["verify", "--format", "json", "--out", "verify.json"], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == b""
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["columns"] == ["name", "passed", "defect", "tol", "seconds", "detail"]
    rows = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
    assert len(rows) == 30
    assert [row["name"] for row in rows] == list(verify.CHECKS)
    assert all(row["passed"] and row["defect"] <= row["tol"] for row in rows)

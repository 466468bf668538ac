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


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def icofridge_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "icofridge.cli", *args], cwd=cwd, env=_env(), capture_output=True, check=False
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


# 20,000 rows, five blocks: far more than a pipe holds
_LONG_GRID = ["--n-list", ",".join(map(str, range(2, 802))), "--d-list", "2,3,4,5,8"]


@pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize(
    "args, take",
    (
        (["branches", *_LONG_GRID], 16),
        (["branches", *_LONG_GRID, "--format", "json"], 16),
        (["cycle", "--k", "100"], 16),
        (["demon", "--particles", "100"], 0),
        (["verify", "--checks", "qmat_algebra"], 0),
    ),
    ids=("branches csv", "branches json", "cycle", "demon", "verify"),
)
def test_closed_stdout_exits_3_with_one_line(args, take, buffered, tmp_path):
    # the reader takes a few bytes of a long table, or none of a short one,
    # and closes its end: the next write fails with EPIPE, reported once,
    # and the flush at exit stays silent whether or not stdout is buffered
    env = {key: value for key, value in _env().items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "icofridge.cli", *args]
    with subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(take)) == take
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err.decode()) == (3, "io error: [Errno 32] Broken pipe\n")

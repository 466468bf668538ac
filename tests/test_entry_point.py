"""The CLI across a process boundary: ``python -m icofridge.cli`` in a
subprocess, run from a temporary directory, checked by exit code and bytes."""

import os
import subprocess
import sys
from pathlib import Path

import icofridge

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

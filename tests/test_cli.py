import argparse
import itertools
import json
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from icofridge import cli, demon, fridge, verify
from icofridge.cswap import cooling_reservoir_marginal, cooling_target_marginal, cswap_populations
from icofridge.thermal import excited_weight


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_branches_contains_hot_two_channel_point(capsys):
    code, out = run(["branches", "--n-list", "2", "--d-list", "2", "--r-list", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config: command=branches")
    assert lines[1] == "n,d,r,p_c,p_H,dE_h,dE_c,weighted_dE_h"
    fields = lines[2].split(",")
    assert fields[0] == "2"
    assert abs(float(fields[4]) - 0.375) < 1e-12


def test_branches_weighted_energy_monotone_in_n(capsys):
    n_list = ",".join(str(n) for n in range(2, 101))
    code, out = run(["branches", "--n-list", n_list, "--d-list", "2", "--r-list", "0.1"], capsys)
    assert code == 0
    values = [float(line.split(",")[-1]) for line in out.strip().splitlines()[2:]]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_json_format(capsys):
    code, out = run(
        ["branches", "--n-list", "2,3", "--d-list", "2", "--r-list", "0.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["command"] == "branches"
    assert len(payload["rows"]) == 2


# tables _emit must write exactly as json.dumps(..., indent=1) lays them out
_WRITER_TABLES = {
    "strings": (
        ["a", "b", "c", "d"],
        [
            [",", "[", "]", '"'],
            ["\\", "\n", "],\n   [", "k\u00e4lte \u2603 \U0001d11e"],
            ["[[", "]]", "\n  ],\n  [\n   ", ""],
        ],
    ),
    "constants": (
        ["t", "f", "none", "big", "neg_zero", "tiny", "huge"],
        [[True, False, None, 2**53 + 1, -0.0, 5e-324, 1e300], [False, True, None, -(2**64), 0.0, -5e-324, -1e300]],
    ),
    "non_finite": (["x", "y", "z", "w"], [[math.nan, math.inf, -math.inf, 1.0], [0.5, 2, "nan", math.nan]]),
    "one_row": (["n", "r", "p"], [[2, 0.5, 0.25]]),
    "one_column": (["n"], [[1], [2.5], ["x"]]),
    "no_rows": (["n", "r"], []),
}


@pytest.mark.parametrize("table", sorted(_WRITER_TABLES))
def test_json_writer_matches_indented_dumps(table, capsys):
    columns, rows = _WRITER_TABLES[table]
    args = argparse.Namespace(command="t", format="json", out=None)
    cli._emit(columns, rows, args)
    cells = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in rows]
    doc = {"config": {"command": "t", "format": "json"}, "columns": columns, "rows": cells}
    assert capsys.readouterr().out == json.dumps(doc, indent=1, allow_nan=False) + "\n"


def _points(config, *keys):
    """The grid points of a config echo's list keys, in grid order."""
    kinds = {"scheme": str, "n_list": int, "d_list": int}
    return itertools.product(*([kinds.get(key, float)(x) for x in config[key].split(",")] for key in keys))


def _point_rows(command, config):
    """A grid command's rows, a one-ratio call of the closed forms per point."""
    if command == "branches":
        rows = []
        for n, d, r in _points(config, "n_list", "d_list", "r_list"):
            pt = fridge.OperatingPoint.at("ico", n, d, r)
            rows.append([n, d, r, pt.p_c, pt.p_heating, pt.e_heat - pt.a, pt.e_cool - pt.a, pt.weighted_energy])
        return rows
    if command == "cop":
        beta = config["beta_r"]
        rows = []
        for scheme, n, d, r in _points(config, "scheme", "n_list", "d_list", "r_list"):
            r_hot = r if config["r_hot"] is None else config["r_hot"]
            value = fridge.cop(n, d, r, r_hot, beta, scheme)
            rows.append([scheme, n, d, r, r_hot, value, value / beta])
        return rows
    if command == "limits":
        return [[s, k, r, fridge.lowest_r(s, r, k)] for s, k, r in _points(config, "scheme", "k_list", "r_list")]
    if command == "traj":
        rows = []
        for n, r in _points(config, "n_list", "r_list"):
            pt = fridge.OperatingPoint.at("traj", n, 2, r)
            rows.append([n, r, pt.p_c, pt.p_heating, pt.weighted_energy, pt.weighted_energy / pt.entropy])
        return rows
    rows = []
    for n, r in _points(config, "n_list", "r_list"):
        p_c, p_h, cool, heat = cswap_populations(n, r)
        t_pop = excited_weight(2, r)
        target = float(cooling_target_marginal(n, r)[1, 1].real)
        reservoir = float(cooling_reservoir_marginal(n, r)[1, 1].real)
        ratio = (cool.sum() - (n + 1) * t_pop) / (target - t_pop) if target != t_pop else math.nan
        rows.append([n, r, p_c, p_h, target, reservoir, float(heat[0]), ratio])
    return rows


# each grid command on its default grid, and edge grids: the smallest normal
# ratio, r = 1, D up to 9, a million channels, a fixed hot ratio, a NaN cell
@pytest.mark.parametrize(
    "argv",
    (
        ["branches"],
        ["cop"],
        ["limits"],
        ["cswap"],
        ["traj"],
        ["branches", "--n-list", "2,3,10", "--d-list", "2,3,6,9", "--r-list", "1e-300,2.3e-308,0.3,0.999999,1"],
        ["cop", "--scheme", "ico,cswap,traj", "--n-list", "2,7,1000000"]
        + ["--r-list", "1e-300,0.5,1", "--beta-r", "0.3"],
        ["cop", "--r-hot", "0.7"],
        ["cswap", "--n-list", "2,16", "--r-list", "0.5,1"],
    ),
    ids=" ".join,
)
def test_grid_tables_equal_their_points_one_at_a_time(argv, capsys):
    # a whole --r-list per kernel call writes the bytes that a one-ratio call
    # per point, formatted cell by cell, gives
    code, out = run([*argv, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = _point_rows(argv[0], doc["config"])
    cells = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in rows]
    assert out == json.dumps(doc | {"rows": cells}, indent=1, allow_nan=False) + "\n"
    code, out = run(argv, capsys)
    lines = [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n" for row in rows]
    assert (code, out.split("\n", 1)[1]) == (0, ",".join(doc["columns"]) + "\n" + "".join(lines))


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


# every JSON table on its default grid and with r = 1 in its grid, where
# cswap's total_over_target is 0/0 and written null
@pytest.mark.parametrize(
    "argv",
    (
        ["branches"],
        ["cop"],
        ["limits"],
        ["cswap"],
        ["traj"],
        ["branches", "--r-list", "0.5,1"],
        ["cop", "--r-list", "0.5,1"],
        ["limits", "--r-list", "0.5,1"],
        ["cswap", "--n-list", "2,3", "--r-list", "0.5,1"],
        ["traj", "--r-list", "0.5,1"],
        ["verify", "--checks", "qmat_algebra"],
        ["demon", "--particles", "100"],
        ["demon", "--r", "1"],
    ),
    ids=" ".join,
)
def test_json_tables_keep_indented_layout(argv, capsys):
    # float repr round-trips, so re-dumping the parsed table pins the layout;
    # the strict parse rejects a bare NaN, which json.loads reads and
    # json.dumps writes back
    code, out = run([*argv, "--format", "json"], capsys)
    assert code == 0
    assert json.dumps(json.loads(out, parse_constant=_reject_constant), indent=1) + "\n" == out


def test_cop_ratio_column(capsys):
    code, out = run(
        ["cop", "--scheme", "cswap,ico", "--n-list", "4", "--d-list", "2", "--r-list", "0.3"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    values = {row[0]: float(row[5]) for row in rows}
    assert abs(values["cswap"] / values["ico"] - 3.0) < 1e-9


def test_limits_rows(capsys):
    code, out = run(["limits", "--scheme", "ico", "--k-list", "1", "--r-list", "0.2"], capsys)
    assert code == 0
    row = out.strip().splitlines()[2].split(",")
    assert float(row[3]) == 0.0


def test_cycle_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, _ = run(
        [
            "cycle",
            "--scheme",
            "ico",
            "--k",
            "1",
            "--r-start",
            "0.3",
            "--out",
            str(out_path),
            "--max-cycles",
            "50",
        ],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().splitlines()
    assert lines[1] == "cycle,branch,r_cold,r_hot,heat_cold,heat_hot,work,entropy"
    assert len(lines) == 2 + 50
    # the header echoes the flags, then the run's stop reason and audit
    config = cli.parse_config_comment(lines[0])
    flags = ["scheme", "n", "d", "k", "r_start", "n_cold", "max_cycles", "seed", "format"]
    assert list(config) == ["command", *flags, "stop", "audit_defect"]
    ens = fridge.ReservoirEnsemble.from_ratio(1.0, 0.3, n_cold=16.0)
    trace = fridge.run_cycles("ico", ens, n=2, max_cycles=50)
    assert config["stop"] == trace.stop_reason
    assert float(config["audit_defect"]) == trace.audit_defect()
    assert text.split("\n", 1)[1] == "".join(trace.to_csv())


def test_cycle_streams_its_csv(tmp_path):
    # the CSV goes out in blocks as they are formatted; a writer that joins
    # the rows, prepends the header and encodes the text peaks above 3x
    out = tmp_path / "cycle.csv"
    argv = ["cycle", "--k", "100", "--r-start", "0.5", "--out", str(out)]
    assert cli.main(argv + ["--max-cycles", "10"]) == 0  # first-call allocations
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * out.stat().st_size


def test_cswap_table(capsys):
    code, out = run(["cswap", "--n-list", "3", "--r-list", "0.5"], capsys)
    assert code == 0
    row = out.strip().splitlines()[2].split(",")
    assert abs(float(row[-1]) - 3.0) < 1e-9


def test_traj_table(capsys):
    code, out = run(["traj", "--n-list", "2", "--r-list", "0.5"], capsys)
    assert code == 0
    row = out.strip().splitlines()[2].split(",")
    # heating probability 2r/(N(1+r)^2) at N=2, r=0.5
    assert abs(float(row[3]) - 2 * 0.5 / (2 * 1.5**2)) < 1e-12


def test_demon_files(tmp_path, capsys):
    out_path = tmp_path / "demon.json"
    code, _ = run(
        ["demon", "--particles", "500", "--n", "2", "--r", "0.2", "--seed", "5", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"] == {
        "command": "demon", "scheme": "ico", "particles": 500, "n": 2, "d": 2, "r": 0.2, "rounds": 1,
        "seed": 5, "format": "json",
    }
    (row,) = doc["rows"]
    report = demon.run_demon(demon.DemonConfig(particles=500, n=2, r=0.2, seed=5))
    assert row == [getattr(report, column) for column in doc["columns"]]
    assert row[0] + row[1] == 500
    # the histogram keeps the bytes of its former f-string writer
    edges, c_counts, d_counts = report.histogram()
    lines = ["bin_left,bin_right,count_boxC,count_boxD"]
    lines += [f"{edges[i]:.12g},{edges[i + 1]:.12g},{c_counts[i]},{d_counts[i]}" for i in range(len(c_counts))]
    assert (tmp_path / "demon.json.hist.csv").read_text() == "\n".join(lines) + "\n"


def test_demon_histogram_when_no_energy_moves(tmp_path, capsys):
    # at r = 1 every particle keeps its energy, so all ratios are equal and
    # the 50 bins span [0, 1e-12]
    out_path = tmp_path / "demon.json"
    code, _ = run(["demon", "--particles", "200", "--r", "1", "--out", str(out_path)], capsys)
    assert code == 0
    (row,) = json.loads(out_path.read_text())["rows"]
    lines = (tmp_path / "demon.json.hist.csv").read_text().splitlines()
    assert len(lines) == 51
    assert lines[1] == f"0,2e-14,{row[1]},{row[0]}"
    assert all(line.endswith(",0,0") for line in lines[2:])
    assert lines[-1].startswith("9.8e-13,1e-12,")


def _command_parser(command):
    (commands,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    return commands.choices[command]


# every deterministic command with flags off their defaults, one float at 17
# significant digits; the second cop run leaves r_hot at its default, echoed null
_REGENERATE = {
    "branches": [
        "branches", "--n-list", "2,7", "--d-list", "2,3", "--r-list", "0.12345678901234567,0.9"
    ],
    "cop": [
        "cop", "--scheme", "ico,traj", "--n-list", "3", "--r-list", "0.3", "--r-hot", "0.7", "--beta-r", "2.5"
    ],
    "cop-default-r-hot": ["cop", "--n-list", "2,5", "--r-list", "0.12345678901234567", "--beta-r", "0.5"],
    "limits": ["limits", "--scheme", "ico,traj", "--k-list", "0.5,3.3333333333333335", "--r-list", "0.2"],
    "cswap": ["cswap", "--n-list", "2,5", "--r-list", "0.12345678901234567"],
    "traj": ["traj", "--n-list", "4", "--r-list", "0.12345678901234567"],
    "cycle": [
        "cycle", "--n", "3", "--d", "3", "--k", "3.3333333333333335", "--r-start", "0.12345678901234567",
        "--n-cold", "8", "--max-cycles", "40", "--seed", "9",
    ],
    "demon": [
        "demon", "--particles", "300", "--n", "3", "--d", "3", "--r", "0.12345678901234567", "--rounds", "2",
        "--seed", "4",
    ],
}
_FORMATS = {
    name: [a for a in _command_parser(argv[0])._actions if a.dest == "format"][0].choices
    for name, argv in _REGENERATE.items()
}


@pytest.mark.parametrize(
    "name, fmt", [pytest.param(name, fmt, id=f"{name}-{fmt}") for name in _REGENERATE for fmt in _FORMATS[name]]
)
def test_echo_regenerates_identical_output(name, fmt, capsys):
    argv = _REGENERATE[name]
    code, first = run([*argv, "--format", fmt], capsys)
    assert code == 0
    config = json.loads(first)["config"] if fmt == "json" else cli.parse_config_comment(first.splitlines()[0])
    # rebuild the command line from the echoed keys that are its flags:
    # not command, not a run's results, not a default that is null
    flags = {a.dest for a in _command_parser(argv[0])._actions}
    rebuilt = [argv[0]] + [
        f"--{key.replace('_', '-')}={value}"
        for key, value in config.items()
        if key in flags and value not in (None, "None")
    ]
    code, second = run(rebuilt, capsys)
    assert code == 0
    assert second == first


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep config\nn_list=2,3\nd_list=2\nr_list=0.5\n")
    code, out = run(["branches", "--config", str(cfg), "--r-list", "0.9"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 2
    assert all(row.split(",")[2] == "0.9" for row in rows)
    # flags that have a default of their own are set from the file too
    cfg.write_text("scheme=traj\nn=3\nk=2\nr_start=0.3\nseed=4\nmax_cycles=30\n")
    code, out = run(["cycle", "--config", str(cfg), "--seed", "5"], capsys)
    assert code == 0
    config = cli.parse_config_comment(out.splitlines()[0])
    assert (config["scheme"], config["n"], config["r_start"]) == ("traj", "3", "0.3")
    assert (config["seed"], config["max_cycles"]) == ("5", "30")


def test_config_file_format_is_honoured(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n")
    code, out = run(["limits", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["format"] == "json"
    cfg.write_text("format=csv\n")
    assert cli.main(["demon", "--config", str(cfg)]) == 1


def test_usage_error_exit_code(capsys):
    assert cli.main(["branches", "--n-list", "abc"]) == 1
    assert cli.main(["cycle", "--scheme", "nonesuch"]) == 1
    cfg_err = cli.main(["branches", "--config", "/nonexistent/path.cfg"])
    assert cfg_err == 3


@pytest.mark.parametrize(
    "argv, message",
    (
        (["cycle", "--k", "inf"], "reservoir size ratio k=inf must be positive and finite"),
        (["cycle", "--n-cold", "nan"], "particle count nan must be positive and finite"),
        (["cycle", "--max-cycles", "0"], "max_cycles must be at least 1"),
        (["cycle", "--max-cycles", "-3"], "max_cycles must be at least 1"),
        (["limits", "--k-list", "nan"], "reservoir size ratio k=nan must be positive and finite"),
        (["limits", "--k-list", "inf"], "reservoir size ratio k=inf must be positive and finite"),
        (["cop", "--r-hot", "nan"], "hot ratio nan must be positive and finite"),
        (["cop", "--r-hot", "inf"], "hot ratio inf must be positive and finite"),
        (["cop", "--beta-r", "0"], "beta_r=0.0 must be positive and finite"),
        (["cop", "--beta-r", "nan"], "beta_r=nan must be positive and finite"),
        (["cop", "--beta-r", "-1"], "beta_r=-1.0 must be positive and finite"),
        # --k is checked itself: an error names k, never the product k * n_cold
        (["cycle", "--k", "1e308"], "reservoir size ratio k=1e+308 overflows the hot particle count at n_cold=16.0"),
        (["cycle", "--k", "1e-320", "--max-cycles", "2"], "reservoir size ratio k=1e-320 is subnormal"),
        (["cycle", "--k", "0"], "reservoir size ratio k=0.0 must be positive and finite"),
        (
            ["cycle", "--k", "1e-300", "--n-cold", "1e-10"],
            "reservoir size ratio k=1e-300 underflows the hot particle count at n_cold=1e-10",
        ),
        (["cycle", "--n-cold", "1e-320"], "particle count 1e-320 is subnormal"),
    ),
)
def test_nonfinite_and_empty_inputs_exit_1(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    (
        (["cop", "--scheme", "foo"], "unknown scheme 'foo'"),
        (["limits", "--scheme", "foo"], "no closed-form temperature limit for scheme 'foo'"),
        (["cycle", "--scheme", "foo"], "unknown scheme 'foo'"),
        (["demon", "--scheme", "foo"], "demon runs support schemes 'ico' and 'traj'"),
        (["verify", "--checks", "nosuch"], "unknown checks: ['nosuch']"),
        (["traj", "--n-list", "1"], "need at least two channels"),
        (["branches", "--r-list", "1e-320"], "ratio 1e-320 is subnormal"),
        (["demon", "--r", "1e-320"], "ratio 1e-320 is subnormal"),
        (["cswap", "--n-list", "1001"], "1001 reservoir qubits exceed the population guard (n <= 1000)"),
        # argparse's "choose from" wording differs across Python versions
        (["cycle", "--format", "json"], "argument --format: invalid choice: 'json'"),
        (["demon", "--format", "csv"], "argument --format: invalid choice: 'csv'"),
        (["verify", "--format", "csv"], "argument --format: invalid choice: 'csv'"),
        (["limits", "--r-list", "1e-320"], "ratio 1e-320 is subnormal"),
        (["cycle", "--scheme", "ico,traj"], "unknown scheme 'ico,traj'"),
        (["demon", "--scheme", "traj,ico"], "demon runs support schemes 'ico' and 'traj'"),
        (["cop", "--r-hot", "1e-320", "--n-list", "2", "--r-list", "0.5"], "ratio 1e-320 is subnormal"),
        # an empty list flag is an error, not an empty grid
        (["branches", "--n-list", "", "--d-list", "2", "--r-list", "0.5"], "argument --n-list: empty list"),
        (["branches", "--r-list", ""], "argument --r-list: empty list"),
        (["branches", "--n-list", ","], "argument --n-list: empty list"),
        (["limits", "--k-list", " , "], "argument --k-list: empty list"),
        (["cop", "--scheme", ""], "unknown scheme ''"),
        (["limits", "--scheme", ","], "no closed-form temperature limit for scheme ''"),
        (["verify", "--checks"], "argument --checks: expected one argument"),
        # a heating probability that underflows to 0 is an error, not a p_H = 0 row
        (["traj", "--n-list", "1" + "0" * 30, "--r-list", "1e-300"], "heating probability underflows to 0"),
        (["cop", "--n-list", "1" + "0" * 30, "--r-list", "1e-300"], "heating probability underflows to 0"),
        (["branches", "--n-list", "1" + "0" * 30, "--r-list", "1e-300"], "heating probability underflows to 0"),
        # an overflow inside a closed form is an error, not a nan or 0 row
        (
            ["limits", "--scheme", "ico", "--k-list", "1e308", "--r-list", "0.5"],
            "reservoir size ratio k=1e+308 overflows the temperature limit",
        ),
        (
            ["cop", "--r-hot", "1e308", "--d-list", "3", "--n-list", "2", "--r-list", "0.5"],
            "hot ratio 1e+308 overflows the bath energy at d=3",
        ),
        (
            ["cop", "--beta-r", "1e-320", "--n-list", "2", "--r-list", "0.5"],
            "erasure work overflows at beta_r=1e-320",
        ),
        (
            ["cop", "--n-list", "1" + "0" * 15, "--r-list", "0.5", "--beta-r", "3e-308"],
            "erasure work overflows at beta_r=3e-308",
        ),
        # only cycle and demon draw random numbers, so only they take --seed
        (["branches", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["verify", "--seed", "1"], "unrecognized arguments: --seed 1"),
        # an N whose N - 1, or cswap's (N - 1)(N - 2), no float holds is
        # named, where the kernel would raise OverflowError
        (["cop", "--scheme", "cswap", "--n-list", "1" + "0" * 200], "number of channels overflows a float"),
        (["branches", "--n-list", "1" + "0" * 400], "number of channels overflows a float"),
        # limits holds k to the rule that cycle --k follows
        (["limits", "--k-list", "1e-320"], "reservoir size ratio k=1e-320 is subnormal"),
    ),
)
def test_user_errors_exit_1_with_message(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: {message}" in captured.err


_HUGE_N = "1" + "0" * 30


def test_fault_after_a_good_ratio_in_one_list_exits_1(capsys):
    # a bad ratio after a good one in the same --r-list: exit 1, no table
    cases = (
        (["branches", "--r-list", "0.5,0"], "ratio 0.0 outside (0, 1]"),
        (["cop", "--r-list", "0.5,1e-320"], "ratio 1e-320 is subnormal"),
        (["traj", "--n-list", _HUGE_N, "--r-list", "0.5,1e-300"], "heating probability underflows to 0"),
        # two faults in one list: each stage checks the whole list before the
        # next one runs (inputs, then the heating underflow, then cop's hot
        # ratio, then the erasure work), so the earlier stage's fault is the
        # one reported even where it comes later in the list
        (["traj", "--n-list", _HUGE_N, "--r-list", "1e-300,0"], "ratio 0.0 outside (0, 1]"),
        (["cop", "--n-list", "1", "--r-list", "0.5,0"], "ratio 0.0 outside (0, 1]"),
        (
            ["cop", "--beta-r", "0", "--n-list", _HUGE_N, "--r-list", "0.5,1e-300"],
            f"heating probability underflows to 0 at n={_HUGE_N}, d=2, r=1e-300",
        ),
        # across slices the grid order holds: the huge N's underflow comes
        # before the next slice's N = 1
        (["traj", "--n-list", _HUGE_N + ",1", "--r-list", "1e-300"], "heating probability underflows to 0"),
    )
    for argv, message in cases:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), argv
        assert f"usage error: {message}" in captured.err, argv


def test_faults_across_blocks_report_the_first_slice_fault(capsys):
    # a table evaluates one block per (scheme, D) over every N, so faults in
    # several slices must still be reported as one call per slice in grid
    # order meets them: the first faulty slice, and in it the earlier stage
    big = "1" + "0" * 15
    cases = (
        (["branches", "--n-list", "2,1", "--d-list", "2,1"], "dimension must be at least 2"),
        (["branches", "--n-list", "1,2", "--d-list", "2,1"], "need at least two channels"),
        (
            ["branches", "--n-list", _HUGE_N + ",2", "--d-list", "2,1", "--r-list", "1e-300"],
            f"heating probability underflows to 0 at n={_HUGE_N}, d=2, r=1e-300",
        ),
        (["cop", "--scheme", "ico,bogus", "--n-list", "1"], "need at least two channels"),
        (["cop", "--scheme", "bogus,ico", "--n-list", "1"], "unknown scheme 'bogus'"),
        (["cop", "--scheme", "ico,cswap", "--d-list", "3,2", "--n-list", "1,2"], "need at least two channels"),
        (
            ["cop", "--scheme", "ico,cswap", "--n-list", "2,1" + "0" * 200, "--d-list", "3,2"],
            "scheme 'cswap' is defined for qubit working systems",
        ),
        (
            ["cop", "--scheme", "traj,ico", "--n-list", "2," + _HUGE_N, "--r-list", "0.5,1e-300", "--beta-r", "0"],
            "erasure inverse temperature beta_r=0.0 must be positive and finite",
        ),
        (
            ["cop", "--n-list", "2," + big, "--r-list", "0.9,0.5", "--beta-r", "3e-308"],
            "erasure work overflows at beta_r=3e-308 (entropy 26.39693192676302)",
        ),
        (
            ["cop", "--n-list", "2,3", "--r-list", "0.5", "--r-hot", "1e308", "--d-list", "2,3"],
            "hot ratio 1e+308 overflows the bath energy at d=3",
        ),
        (["traj", "--n-list", "2,1,1" + "0" * 34, "--r-list", "1e-300,0.5"], "need at least two channels"),
        (["limits", "--scheme", "ico,foo", "--r-list", "0.5,0"], "ratio 0.0 outside (0, 1]"),
        (["limits", "--scheme", "foo", "--r-list", "0.5,0"], "no closed-form temperature limit for scheme 'foo'"),
        (["limits", "--k-list", "nan,1", "--r-list", "0.5,0"], "reservoir size ratio k=nan must be positive and finite"),
        (["limits", "--k-list", "1,nan", "--r-list", "0.5,0"], "ratio 0.0 outside (0, 1]"),
        (["limits", "--k-list", "1e308,1", "--r-list", "0.5,0"], "reservoir size ratio k=1e+308 overflows the temperature limit"),
        (
            ["limits", "--scheme", "traj,ico", "--k-list", "1e308,1", "--r-list", "0.5"],
            "reservoir size ratio k=1e+308 overflows the temperature limit",
        ),
        (["cswap", "--n-list", "2,1,1001", "--r-list", "0.5,0"], "ratio 0.0 outside (0, 1]"),
    )
    for argv, message in cases:
        code = cli.main(argv)
        assert (code, capsys.readouterr()) == (1, ("", f"usage error: {message}\n")), argv


def test_fault_only_a_whole_block_meets_is_still_reported():
    # the slice-by-slice rerun only picks which fault to report; if no slice
    # fails, the block's own fault still stops the table
    def block(args, ns, rs):
        if len(ns) > 1:
            raise ValueError("whole block")
        return (np.array(rs),)

    table = cli._table(["n", "r", "x"], block, ("n_list", "r_list"))
    with pytest.raises(ValueError, match="^whole block$"):
        table(argparse.Namespace(n_list=[2, 3], r_list=[0.5]))


def test_dimension_whose_d_minus_1_overflows_a_float_exits_1(capsys):
    # D - 1 reaches the kernel and excited_weight as a float; one too large
    # for it is named, like N, instead of raising OverflowError
    huge = "1" + "0" * 400
    for argv in (
        ["branches", "--d-list", huge],
        ["branches", "--d-list", "2," + huge],
        ["cop", "--d-list", huge],
        ["demon", "--d", huge],
        ["cycle", "--d", huge],
    ):
        code = cli.main(argv)
        assert (code, capsys.readouterr()) == (1, ("", f"usage error: dimension overflows a float: d={huge}\n")), argv
    # the largest D whose D - 1 a float holds still runs; one more is named
    top = int(sys.float_info.max) + 1
    assert cli.main(["branches", "--n-list", "2", "--d-list", str(top), "--r-list", "1e-300"]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith(f"2,{top},1e-300,")
    assert cli.main(["branches", "--d-list", str(top + 1)]) == 1
    assert capsys.readouterr().err == f"usage error: dimension overflows a float: d={top + 1}\n"


# each grid command on a tiny grid: its list flags in grid order, then its
# scalar flags, then format
_TINY_GRIDS = {
    "branches": (
        ["--n-list", "2", "--d-list", "3", "--r-list", "0.5"],
        {"n_list": "2", "d_list": "3", "r_list": "0.5"},
    ),
    "cop": (
        ["--scheme", "ico,traj", "--n-list", "2", "--r-list", "0.5", "--beta-r", "2"],
        {"scheme": "ico,traj", "n_list": "2", "d_list": "2", "r_list": "0.5"}
        | {"r_hot": None, "beta_r": 2.0},
    ),
    "limits": (
        ["--k-list", "1", "--r-list", "0.5"],
        {"scheme": "ico", "k_list": "1.0", "r_list": "0.5"},
    ),
    "cswap": (["--n-list", "2", "--r-list", "0.5"], {"n_list": "2", "r_list": "0.5"}),
    "traj": (["--n-list", "2", "--r-list", "0.5"], {"n_list": "2", "r_list": "0.5"}),
}


@pytest.mark.parametrize("command", sorted(_TINY_GRIDS))
def test_grid_config_echo(command, capsys):
    flags, echoed = _TINY_GRIDS[command]
    config = {"command": command, **echoed}
    code, out = run([command, *flags], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# config: " + " ".join(
        f"{k}={v}" for k, v in {**config, "format": "csv"}.items()
    )
    code, out = run([command, *flags, "--format", "json"], capsys)
    assert code == 0
    assert list(json.loads(out)["config"].items()) == list({**config, "format": "json"}.items())


def test_verify_config_echoes_its_flags(capsys):
    # the echo is the parsed command line, so verify's JSON records --checks
    argv = ["verify", "--checks", "qmat_algebra,kraus_completeness", "--format", "json"]
    code, out = run(argv, capsys)
    assert code == 0
    config = {"command": "verify", "checks": "qmat_algebra,kraus_completeness", "format": "json"}
    assert json.loads(out)["config"] == config
    code, out = run(["verify", "--checks", "qmat_algebra", "--format", "json"], capsys)
    assert (code, json.loads(out)["config"]["checks"]) == (0, "qmat_algebra")


def test_verify_echo_round_trips_through_config(tmp_path, capsys):
    # verify's JSON echo of checks, fed back as a config key, selects the same checks
    argv = ["verify", "--checks", "measurement_basis,qmat_algebra", "--format", "json"]
    code, out = run(argv, capsys)
    doc = json.loads(out)
    assert code == 0
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(f"checks={doc['config']['checks']}\nformat={doc['config']['format']}\n")
    code, again = run(["verify", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(again)["config"] == doc["config"]
    assert [row[0] for row in json.loads(again)["rows"]] == [row[0] for row in doc["rows"]]
    assert [row[0] for row in doc["rows"]] == ["measurement_basis", "qmat_algebra"]


def test_cswap_at_r_one_writes_nan_not_a_ratio(capsys):
    # at r = 1 the ratio is 0/0; its cell is NaN, written null in JSON
    code, out = run(["cswap", "--n-list", "2,3", "--r-list", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    column = doc["columns"].index("total_over_target")
    assert [row[column] for row in doc["rows"]] == [None, None]
    code, out = run(["cswap", "--n-list", "2", "--r-list", "1"], capsys)
    assert code == 0
    assert out.splitlines()[2].split(",")[-1] == "nan"


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli.fridge, "lowest_r", broken)
    with pytest.raises(KeyError):
        cli.main(["limits"])


@pytest.mark.parametrize("command", ("branches", "cop", "limits", "cycle", "cswap", "traj", "demon"))
def test_default_grid_succeeds(command, capsys):
    code, out = run([command], capsys)
    assert code == 0
    assert out


def test_cswap_default_n_list_and_config_precedence(tmp_path, capsys):
    code, out = run(["cswap", "--r-list", "0.5"], capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[2:]] == ["2", "3", "4", "10"]
    cfg = tmp_path / "cswap.cfg"
    cfg.write_text("n_list=5,12\n")
    code, out = run(["cswap", "--config", str(cfg), "--r-list", "0.5"], capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[2:]] == ["5", "12"]


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # k_list and seed are flags of other commands only; command and func
    # are attributes of the parsed arguments, not flags
    for key, value in (("bogus_key", "1"), ("k_list", "1"), ("command", "branches"), ("func", "x"), ("seed", "1")):
        cfg.write_text(f"{key}={value}\n")
        assert cli.main(["branches", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: unknown config key '{key}'" in captured.err
    # one flag named twice, in either spelling
    for second in ("n_list", "n-list"):
        cfg.write_text(f"n_list=2\n{second}=3\n")
        assert cli.main(["branches", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: {cfg}:2: duplicate config key 'n_list'" in captured.err


def test_config_line_without_equals_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# grid\nn_list 2\n")
    assert cli.main(["branches", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: {cfg}:2: expected key=value, got 'n_list 2'" in captured.err


def test_parse_config_comment_needs_a_header_line():
    with pytest.raises(ValueError, match="^not a config header line$"):
        cli.parse_config_comment("n,d,r,p_c,p_H,dE_h,dE_c,weighted_dE_h")


def test_empty_list_in_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("r_list=\n")
    assert cli.main(["branches", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: argument --r-list: empty list" in captured.err
    # the comma-separated --checks needs at least one name
    cfg.write_text("checks=\n")
    assert cli.main(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: argument --checks: empty list" in captured.err


def test_io_error_exit_code(capsys):
    code = cli.main(
        ["branches", "--n-list", "2", "--d-list", "2", "--r-list", "0.5", "--out", "/nonexistent/dir/x.csv"]
    )
    assert code == 3


def test_verify_subset(capsys):
    code, out = run(["verify", "--checks", "kraus_completeness,measurement_basis"], capsys)
    assert code == 0
    assert "PASS  kraus_completeness" in out
    assert "2/2 checks passed" in out
    assert re.search(r"^2/2 checks passed in \d+\.\d\d s$", out, re.MULTILINE)


def test_verify_unknown_check(capsys):
    assert cli.main(["verify", "--checks", "nonesuch"]) == 1


def test_config_file_names_several_checks(tmp_path, capsys):
    # the checks key is one comma-separated list, as every list key is
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("checks=kraus_completeness,measurement_basis\n")
    code, out = run(["verify", "--config", str(cfg)], capsys)
    assert code == 0
    assert re.findall(r"^PASS  (\w+)", out, re.MULTILINE) == ["kraus_completeness", "measurement_basis"]
    # the command line's --checks still wins
    code, out = run(["verify", "--config", str(cfg), "--checks", "qmat_algebra"], capsys)
    assert (code, re.findall(r"^PASS  (\w+)", out, re.MULTILINE)) == (0, ["qmat_algebra"])


def test_one_validation_and_one_kernel_per_row(monkeypatch, tmp_path):
    # each (scheme, D) block (every N against the whole --r-list), and the
    # cswap table, reads its points with one _validate and one _kernel call
    calls = {}

    def count(name):
        original = getattr(fridge, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(fridge, name, counted)

    count("_validate")
    count("_kernel")
    grid = ["--n-list", "2,5,7", "--r-list", "0.1,0.5,0.9"]
    blocks = (["branches", "--d-list", "2,3"], ["cop", "--scheme", "ico,traj"], ["cop", "--d-list", "2,3,4"], ["traj"], ["cswap"])
    for argv, count in zip(blocks, (2, 2, 3, 1, 1), strict=True):
        calls.update(_validate=0, _kernel=0)
        assert cli.main([*argv, *grid, "--out", str(tmp_path / f"{argv[0]}.csv")]) == 0
        assert calls == {"_validate": count, "_kernel": count}, argv


def test_rows_follow_grid_order(capsys):
    code, out = run(["branches", "--n-list", "3,2", "--d-list", "3,2", "--r-list", "0.8,0.2"], capsys)
    assert code == 0
    rows = [line.split(",")[:3] for line in out.strip().splitlines()[2:]]
    assert rows == [[n, d, r] for n in ("3", "2") for d in ("3", "2") for r in ("0.8", "0.2")]

    code, out = run(["cop", "--scheme", "traj,ico", "--n-list", "2,4", "--r-list", "0.5"], capsys)
    assert code == 0
    schemes = [line.split(",")[0] for line in out.strip().splitlines()[2:]]
    assert schemes == ["traj", "traj", "ico", "ico"]

    # the worker pool is gone: the flag and its config key are usage errors
    assert cli.main(["branches", "--threads", "2"]) == 1


def test_cycle_and_demon_io_error_exit_code(capsys):
    assert cli.main(["cycle", "--max-cycles", "5", "--out", "/nonexistent/dir/x.csv"]) == 3
    assert cli.main(["demon", "--particles", "10", "--out", "/nonexistent/dir/x.json"]) == 3
    assert "cannot write /nonexistent/dir/x.json" in capsys.readouterr().err


def test_text_yields_one_string_per_block(monkeypatch):
    # the head, then one string per block of rows, then the JSON tail
    monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
    cells = [["1", "2", "3", "4"], np.array([0.5, math.nan, 2.0, -math.inf])]
    assert list(cli._text(["k", "x"], cells, 4, "csv")) == ["k,x\n", "1,0.5\n2,nan\n3,2\n", "4,-inf\n", ""]
    parts = list(cli._text(["k", "x"], cells, 4, "json", {"command": "t"}))
    assert parts[1:] == ["  [\n   1,\n   0.5\n  ],\n  [\n   2,\n   null\n  ],\n  [\n   3,\n   2.0\n  ]",
                         ",\n  [\n   4,\n   null\n  ]", "\n ]\n}\n"]
    assert json.loads("".join(parts))["rows"] == [[1, 0.5], [2, None], [3, 2.0], [4, None]]


def _fixed_checks(names=None):
    # seven rows over three 3-row blocks: NaN defects (a check that raised)
    # in the first and a later block, a failed check, a non-ASCII detail
    rows = [("qmat_algebra", True, "ok", 0.25, 1e-15, 1e-12), ("kraus_completeness", False, "raised", 0.5)]
    rows += [(f"check_{i}", i != 4, f"kälte {i}", 0.125 * i, 10.0**-i, 1e-9) for i in range(2, 6)]
    rows += [("last", True, "raised ☃", 2.0, math.nan, 1e-3)]
    return [verify.CheckResult(*row) for row in rows]


# at a block size of 3 every table writes the bytes of the default size: NaN
# total_over_target cells in a later block, a one-row grid, verify's rows
# with NaN defects, demon's row and 50-bin histogram, a 7-cycle trace
@pytest.mark.parametrize(
    "argv",
    (
        ["cswap", "--n-list", "2,3,4", "--r-list", "0.5,1"],
        ["cswap", "--n-list", "2,3,4", "--r-list", "0.5,1", "--format", "json"],
        ["branches", "--n-list", "2", "--d-list", "3", "--r-list", "0.5"],
        ["branches", "--n-list", "2", "--d-list", "3", "--r-list", "0.5", "--format", "json"],
        ["cop", "--scheme", "ico,cswap,traj", "--n-list", "2,3", "--format", "json"],
        ["verify", "--format", "json"],
        ["demon", "--particles", "300", "--r", "0.3"],
        ["cycle", "--max-cycles", "7"],
    ),
    ids=" ".join,
)
def test_tables_do_not_depend_on_the_block_size(argv, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.verify, "run_checks", _fixed_checks)

    def written(name):
        (tmp_path / name).mkdir()
        assert cli.main([*argv, "--out", str(tmp_path / name / "table")]) in (0, 2)
        return {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}

    default = written("default")
    monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
    assert written("three") == default


def test_verify_json_writes_a_nan_defect_as_null(monkeypatch, capsys):
    monkeypatch.setattr(cli.verify, "run_checks", _fixed_checks)
    code, out = run(["verify", "--format", "json"], capsys)
    assert code == 2
    doc = json.loads(out, parse_constant=_reject_constant)
    rows = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row] for row in
            [[r.name, r.passed, r.defect, r.tol, r.seconds, r.detail] for r in _fixed_checks()]]
    assert out == json.dumps(doc | {"rows": rows}, indent=1) + "\n"


@pytest.mark.parametrize(
    "argv",
    (
        ["cswap", "--n-list", "2,3", "--r-list", "0.5,0"],
        ["branches", "--d-list", "2,1" + "0" * 400],
        ["cop", "--scheme", "ico,foo"],
    ),
    ids=("first block", "later D block", "later scheme block"),
)
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_grid_fault_with_out_creates_no_file(argv, fmt, tmp_path, capsys):
    # every block is evaluated and checked before the output is opened
    out = tmp_path / "table"
    assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_grid_table_memory_grows_by_its_value_array(fmt, tmp_path):
    # a branches table holds its five float value columns (40 B a row) and
    # one block of formatted rows; a writer that formats the whole table
    # before writing it grows by 470 (CSV) to 680 B (JSON) a row
    def peak(n):
        argv = ["branches", "--n-list", ",".join(map(str, range(2, 2 + n))), "--d-list", "2,3,4,5,8"]
        argv += ["--r-list", ",".join(str(i / 30) for i in range(1, 31)), "--format", fmt]
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--out", str(tmp_path / "table")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations
    small, large = peak(80), peak(160)  # 12,000 and 24,000 rows
    assert (large - small) / 12_000 < 150


def test_broken_pipe_points_stdout_at_the_null_device(tmp_path, monkeypatch, capsys):
    # the reader has gone: the error is reported once, and what stdout still
    # holds for the flush at exit goes to the null device, not to the pipe
    class Closed:
        def __init__(self, fh):
            self.fh = fh

        def writelines(self, parts):
            next(iter(parts))
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fh.fileno()

    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", Closed(fh))
        code = cli.main(["branches"])
        os.write(fh.fileno(), b"flushed at exit")
    assert (code, capsys.readouterr().err) == (3, "io error: [Errno 32] Broken pipe\n")
    assert (tmp_path / "stdout").read_bytes() == b""


def test_invalid_seed_is_named_before_any_work(monkeypatch, capsys):
    def no_kernel(*args):
        raise AssertionError("the kernel was built before the seed was checked")

    monkeypatch.setattr(fridge, "_kernel", no_kernel)
    ens = fridge.ReservoirEnsemble.from_ratio(100.0, 0.5, n_cold=16)
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        fridge.run_cycles("ico", ens, n=2, seed=-1)
    assert cli.main(["cycle", "--k", "100", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error: seed must be nonnegative, got -1" in captured.err
    # a non-integer seed is a TypeError, as a float D or N is
    with pytest.raises(TypeError, match=r"^seed must be an integer, got 1\.5$"):
        fridge.run_cycles("ico", ens, n=2, seed=1.5)
    with pytest.raises(TypeError, match=r"^seed must be an integer, got 1\.5$"):
        demon.DemonConfig(particles=100, n=2, r=0.3, seed=1.5)
    # Philox takes a key in [0, 2**128): both ends are named, 0 and the top key run
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**128), got {seed}")):
            demon.DemonConfig(particles=10, n=2, r=0.3, seed=seed)
    for seed in (0, 2**128 - 1):
        assert demon.run_demon(demon.DemonConfig(particles=10, n=2, r=0.3, seed=seed)).cooled_count >= 0
    assert cli.main(["demon", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error: seed must be in [0, 2**128), got -1" in captured.err

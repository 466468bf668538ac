import json

import pytest

from icofridge import cli


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


def test_branches_empty_grid_header_only(capsys):
    code, out = run(["branches", "--n-list", "", "--d-list", "2", "--r-list", "0.5"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2  # config + header


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
    lines = out_path.read_text().strip().splitlines()
    assert lines[1] == "cycle,branch,r_cold,r_hot,heat_cold,heat_hot,work,entropy"
    assert len(lines) == 2 + 50


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
    payload = json.loads(out_path.read_text())
    assert payload["cooled_count"] + payload["heated_count"] == 500
    hist = (tmp_path / "demon.json.hist.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count_boxC,count_boxD"


def test_round_trip_regenerates_identical_output(tmp_path, capsys):
    args = ["branches", "--n-list", "2,5", "--d-list", "2,3", "--r-list", "0.1,0.9"]
    code, first = run(args, capsys)
    assert code == 0
    config = cli.parse_config_comment(first.splitlines()[0])
    rebuilt = [
        config["command"],
        "--n-list",
        config["n_list"],
        "--d-list",
        config["d_list"],
        "--r-list",
        config["r_list"],
        "--seed",
        config["seed"],
        "--format",
        config["format"],
    ]
    code, second = run(rebuilt, capsys)
    assert code == 0
    assert first == second


def test_cycle_round_trip_from_header(tmp_path, capsys):
    args = ["cycle", "--scheme", "traj", "--k", "2", "--r-start", "0.4", "--seed", "9", "--max-cycles", "40"]
    code, first = run(args, capsys)
    assert code == 0
    config = cli.parse_config_comment(first.splitlines()[0])
    k = float(config["n_hot"]) / float(config["n_cold"])
    rebuilt = [
        "cycle",
        "--scheme",
        config["scheme"],
        "--n",
        config["n"],
        "--d",
        config["d"],
        "--k",
        str(k),
        "--r-start",
        config["r_start"],
        "--n-cold",
        config["n_cold"],
        "--seed",
        config["seed"],
        "--max-cycles",
        config["max_cycles"],
    ]
    code, second = run(rebuilt, capsys)
    assert code == 0
    assert first == second


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep config\nn_list=2,3\nd_list=2\nr_list=0.5\n")
    code, out = run(["branches", "--config", str(cfg), "--r-list", "0.9"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 2
    assert all(row.split(",")[2] == "0.9" for row in rows)


def test_usage_error_exit_code(capsys):
    assert cli.main(["branches", "--n-list", "abc"]) == 1
    assert cli.main(["cycle", "--scheme", "nonesuch"]) == 1
    cfg_err = cli.main(["branches", "--config", "/nonexistent/path.cfg"])
    assert cfg_err == 3


@pytest.mark.parametrize(
    "argv, message",
    (
        (["cycle", "--k", "inf"], "particle count inf must be positive and finite"),
        (["cycle", "--n-cold", "nan"], "particle count nan must be positive and finite"),
        (["cycle", "--max-cycles", "0"], "max_cycles must be at least 1"),
        (["cycle", "--max-cycles", "-3"], "max_cycles must be at least 1"),
        (["limits", "--k-list", "nan"], "reservoir size ratio k=nan must be positive and finite"),
        (["limits", "--k-list", "inf"], "reservoir size ratio k=inf must be positive and finite"),
        (["cop", "--r-hot", "nan"], "hot ratio nan must be positive and finite"),
        (["cop", "--r-hot", "inf"], "hot ratio inf must be positive and finite"),
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
        (["cswap", "--n-list", "17"], "17 reservoir qubits exceed the population guard (n <= 16)"),
    ),
)
def test_user_errors_exit_1_with_message(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: {message}" in captured.err


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
    cfg.write_text("bogus_key=1\n")
    assert cli.main(["branches", "--config", str(cfg)]) == 1


def test_io_error_exit_code(capsys):
    code = cli.main(
        ["branches", "--n-list", "2", "--d-list", "2", "--r-list", "0.5", "--out", "/nonexistent/dir/x.csv"]
    )
    assert code == 3


def test_verify_subset(capsys):
    code, out = run(["verify", "--checks", "kraus_completeness", "measurement_basis"], capsys)
    assert code == 0
    assert "PASS  kraus_completeness" in out
    assert "2/2 checks passed" in out


def test_verify_unknown_check(capsys):
    assert cli.main(["verify", "--checks", "nonesuch"]) == 1


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

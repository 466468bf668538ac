"""The README's library tour runs as written against the package it documents."""

import re
import shlex
from pathlib import Path

import icofridge
from icofridge import cli, verify

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_every_export_resolves():
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert tour.startswith("from icofridge import *\n")
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    missing = [name for name in icofridge.__all__ if not hasattr(icofridge, name)]
    assert not missing
    assert set(icofridge.__all__) <= namespace.keys()
    # the comment under the tour's point is its repr, as printed
    shown = re.search(r"^point = .*\n((?:# .*\n)+)", tour, re.MULTILINE).group(1)
    assert " ".join(line[1:].strip() for line in shown.splitlines()) == repr(namespace["point"])


def _cell_words(cell):
    """The bare words a table cell puts in backticks: `csv`, not `<out>.hist.csv`."""
    return set(re.findall(r"`(\w+)`", cell))


def test_command_table_matches_the_parser():
    (commands,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    table = re.search(r"^\| command \| (.*) \|\n\| ---.*\n((?:\|.*\n)+)", README.read_text(), re.MULTILINE)
    header, rows = table.groups()
    assert header.split(" | ") == ["`--format`", "`--seed`"]
    documented = []
    for row in rows.splitlines():
        names, formats, seed = row.strip("| ").split(" | ")
        for name in _cell_words(names):
            documented.append(name)
            actions = {a.dest: a for a in commands.choices[name]._actions}
            assert _cell_words(formats) == set(actions["format"].choices), name
            # a command without --seed says "none"; one with it says what it seeds
            assert (seed != "none") == ("seed" in actions), name
    assert sorted(documented) == sorted(commands.choices)


def test_check_table_matches_the_suite():
    table = re.search(
        r"^\| check \| closed side \| oracle side \|\n\| ---.*\n((?:\|.*\n)+)", README.read_text(), re.MULTILINE
    )
    rows = [row.strip("| ").split(" | ") for row in table.group(1).splitlines()]
    assert all(len(row) == 3 for row in rows)
    assert [name.strip("`") for name, _, _ in rows] == list(verify.CHECKS)
    # a property has no oracle side; a comparison names one
    for name, closed, oracle in rows:
        assert closed.startswith("property: ") == (oracle == "—"), name
    flagged = {name.strip("`") for name, _, oracle in rows if "kernel against kernel" in oracle}
    assert flagged == {"cop_zero_point", "cop_cswap_tripling"}


def test_shell_examples_run(tmp_path, monkeypatch, capsys):
    # every icofridge line of the README's sh blocks but the bracketed
    # verify synopsis, run as written from an empty directory
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("icofridge ")]
    examples = [shlex.split(line, comments=True)[1:] for line in lines if "[" not in line]
    assert len(examples) == len(lines) - 1
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
    # "The example above converges after 3,105 cycles."
    header, columns, *rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert cli.parse_config_comment(header)["stop"] == "converged"
    assert len(rows) == 3105
    assert (tmp_path / "demon.json.hist.csv").exists()

"""The README's library tour runs as written against the package it documents."""

import re
from pathlib import Path

import icofridge
from icofridge import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_every_export_resolves():
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert tour.startswith("from icofridge import *\n")
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    missing = [name for name in icofridge.__all__ if not hasattr(icofridge, name)]
    assert not missing
    assert set(icofridge.__all__) <= namespace.keys()


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

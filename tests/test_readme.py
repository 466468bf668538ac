"""The README's library tour runs as written against the package it documents."""

import re
from pathlib import Path

import icofridge

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_every_export_resolves():
    (tour,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert tour.startswith("from icofridge import *\n")
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    missing = [name for name in icofridge.__all__ if not hasattr(icofridge, name)]
    assert not missing
    assert set(icofridge.__all__) <= namespace.keys()

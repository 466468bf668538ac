import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from icofridge import cli, fridge, nswitch, verify


def test_defect_above_tolerance_fails(monkeypatch, capsys):
    _, tol = verify.CHECKS["qudit_boost"]
    monkeypatch.setitem(verify.CHECKS, "qudit_boost", (lambda: iter([2 * tol]), tol))
    (res,) = verify.run_checks(["qudit_boost"])
    assert res.passed is False
    assert (res.defect, res.tol) == (2 * tol, tol)
    assert cli.main(["verify", "--checks", "kraus_completeness,qudit_boost"]) == 2
    out = capsys.readouterr().out
    assert re.search(r"^FAIL  qudit_boost ", out, re.MULTILINE)
    assert "1/2 checks passed" in out


def test_raising_check_fails_and_the_next_still_runs(monkeypatch, tmp_path):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.CHECKS, "qmat_algebra", (broken, 1e-12))
    first, second = verify.run_checks(["qmat_algebra", "kraus_completeness"])
    assert first.passed is False
    assert first.detail == "raised RuntimeError: boom"
    assert math.isnan(first.defect)
    assert second.passed

    # a raise after a finite defect still fails the check
    def raises_after_a_defect():
        yield 0.0
        raise RuntimeError("late boom")

    monkeypatch.setitem(verify.CHECKS, "qmat_algebra", (raises_after_a_defect, 1e-12))
    (late,) = verify.run_checks(["qmat_algebra"])
    assert late.passed is False
    assert late.detail == "raised RuntimeError: late boom"
    assert math.isnan(late.defect)
    # the JSON rows write the NaN defect as null: bare NaN is not JSON
    path = tmp_path / "verify.json"
    args = ["verify", "--checks", "qmat_algebra", "--format", "json", "--out", str(path)]
    assert cli.main(args) == 2
    text = path.read_text()
    assert "NaN" not in text
    assert json.loads(text)["rows"][0][1:3] == [False, None]


def test_failed_side_condition_fails_its_check(monkeypatch):
    monkeypatch.setattr(nswitch, "offdiagonal_blocks_equal", lambda out: False)
    (res,) = verify.run_checks(["noncyclic_order_sets"])
    assert res.passed is False
    assert math.isnan(res.defect)
    assert res.detail == "raised AssertionError: off-diagonal blocks differ for n=3"


def test_nan_defect_after_the_first_grid_point_fails(monkeypatch):
    at = fridge.OperatingPoint.at

    def nan_at_r_03(scheme, n, dim, r):
        point = at(scheme, n, dim, r)
        return point._replace(e_heat=math.nan) if r == 0.3 else point

    monkeypatch.setattr(fridge.OperatingPoint, "at", staticmethod(nan_at_r_03))
    (res,) = verify.run_checks(["weighted_energy_doubling"])
    assert res.passed is False
    assert math.isnan(res.defect)
    assert math.isnan(verify._worst(0.0, math.nan, 1.0))


def test_negative_defects_fold_to_the_zero_floor(monkeypatch):
    # one-sided distances go negative on passing points; the fold starts at 0
    monkeypatch.setitem(verify.CHECKS, "weighted_energy_doubling", (lambda: iter([-0.5, -1e-3]), 0.0))
    (res,) = verify.run_checks(["weighted_energy_doubling"])
    assert res.passed
    assert res.defect == 0.0


def test_audit_defect_keeps_nan():
    trace = fridge.CycleTrace(cycles=[1, 2], heat_cold=[0.1, math.nan], heat_hot=[0.1, 0.2])
    assert math.isnan(trace.audit_defect())
    arrays = fridge.CycleTrace(
        cycles=np.arange(1, 3), heat_cold=np.array([0.1, math.nan]), heat_hot=np.array([0.1, 0.2])
    )
    assert math.isnan(arrays.audit_defect())
    assert fridge.CycleTrace(cycles=np.arange(1, 1)).audit_defect() == 0.0


def test_cswap_checks_hold_one_dense_joint_at_a_time():
    # the n = 6 control x target x reservoir joint is 768 x 768 float64;
    # building the next grid point's joint while the last one is still held
    # would peak near two of them, and a complex joint near two on its own.
    # tracemalloc's peak repeats to within a kilobyte
    joint_bytes = (6 * 2**7) ** 2 * np.dtype(np.float64).itemsize
    verify.run_checks(["cswap_marginals"])  # first-call allocations are not the check's
    tracemalloc.start()
    try:
        (result,) = verify.run_checks(["cswap_marginals"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 1.5 * joint_bytes


def test_repeated_check_names_are_a_usage_error(monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(verify.CHECKS, "qmat_algebra", (lambda: ran.append(1) or iter([0.0]), 1e-12))
    names = ["qmat_algebra", "kraus_completeness", "qmat_algebra", "kraus_completeness", "qudit_boost"]
    with pytest.raises(ValueError, match=re.escape("repeated checks: ['qmat_algebra', 'kraus_completeness']")):
        verify.run_checks(names)
    assert cli.main(["verify", "--checks", "qmat_algebra,qmat_algebra"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error: repeated checks: ['qmat_algebra']" in captured.err
    assert ran == []  # rejected before any check runs

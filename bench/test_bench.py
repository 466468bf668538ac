"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from icofridge import cli, cswap, demon, fridge, nswitch, thermal, verify  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", run.NAMES)
def test_inputs_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].inputs
    assert make(7) == make(7)
    if name != "verify":  # verify runs the checks' built-in inputs
        assert make(7) != make(8)


def test_timed_passes_refuse_wrapped_functions(tmp_path):
    originals = (cli.cswap_evolve, cswap.cswap_evolve, fridge.run_cycles, fridge.CycleTrace.to_csv)
    workload = workloads.WORKLOADS["sweep"]
    inputs = {"commands": {"limits": ["limits", "--k-list", "1", "--r-list", "0.5"]}}
    with tracing.Tracer():
        assert "icofridge.cli.cswap_evolve" in tracing.wrapped_names()
        with pytest.raises(RuntimeError, match="unwrapped"):
            run.timed_passes(workload, inputs, tmp_path, 0, run.Tally())
    assert tracing.wrapped_names() == []
    assert (cli.cswap_evolve, cswap.cswap_evolve, fridge.run_cycles, fridge.CycleTrace.to_csv) == originals
    walls, _ = run.timed_passes(workload, inputs, tmp_path, 0, run.Tally())
    assert len(walls) == 1


def test_injected_wrong_output_fails_the_gate(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["sweep"]
    inputs = {"commands": {"limits": ["limits", "--k-list", "1,10", "--r-list", "0.3,0.6"]}}
    tally = run.Tally()
    run.timed_passes(workload, inputs, tmp_path, 0, tally)
    assert (tally.attempted, tally.failed) == (workload.ops, 0)

    monkeypatch.setattr(fridge, "lowest_r", lambda scheme, r_start, k: 2 * r_start)
    run.timed_passes(workload, inputs, tmp_path, 0, tally)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
    assert tally.failures == ["limits"]


def test_gates_reject_wrong_values():
    desk = workloads.desk_inputs(1)
    assert workloads.desk_gate(desk, {"tree": workloads._tree(desk["tree"])}) == []
    assert workloads.desk_gate(desk, {"tree": 0.5}) == ["tree"]
    assert workloads.desk_gate(desk, {"demon": workloads.Failed(ValueError("x"))}) == ["demon"]

    ok = verify.CheckResult(name="qmat_algebra", passed=True, detail="", seconds=0.1)
    bad = verify.CheckResult(name="qmat_algebra", passed=False, detail="", seconds=0.1)
    inputs = {"checks": ["qmat_algebra"]}
    assert workloads.verify_gate(inputs, {"results": [ok]}) == []
    assert workloads.verify_gate(inputs, {"results": [bad]}) == ["qmat_algebra"]


def test_tracer_counts_and_self_time():
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_pass()
        demon.expected_transfer_exact(2, 2, 0.3, 3)
        ens = fridge.ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
        trace = fridge.run_cycles("ico", ens, n=2)
        spec = thermal.ThermalSpec.qubit(0.4)
        nswitch.switch_bruteforce(nswitch.OrderSet.cyclic(2), thermal.gibbs_state(spec), spec)
        tracer.end_pass(1.0)
        demon.expected_transfer_exact(2, 2, 0.3, 2)  # between passes: not recorded
    (m,) = tracer.per_pass()
    assert m["demon.tree_nodes"] == 2**4 - 2
    assert m["fridge.cycles"] == len(trace.cycles)
    assert m["fridge.run_cycles.calls"] == 1
    assert m["fridge.stop_converged"] + m["fridge.stop_cold_exhausted"] + m["fridge.stop_budget"] == 1
    assert m["nswitch.kraus_tuples"] == 2 * 4**2
    assert m["thermal.calls"] >= 2
    for layer in tracing.LAYERS:
        assert m[f"{layer}.self_s"] >= 0.0
    assert 0.0 < m["trace.coverage"] <= 1.0


def test_per_layer_names_match_benchmark_json():
    tracer = tracing.Tracer()
    tracer.begin_pass()
    tracer.end_pass(1.0)
    with tracer:
        pass
    traced = set(tracer.per_pass()[0])
    traced |= {f"verify.{name}.s" for name in verify.CHECKS}
    traced |= {"cswap.peak_mb", "trace.tracemalloc_peak_mb", "trace.wall_s", "trace.overhead_s"}
    assert traced == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_table_rows_counts_written_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# config: command=x\na,b\n1,2\n3,4\n", encoding="utf-8")
    assert workloads.table_rows({"t": (0, path), "bad": (1, path), "x": np.float64(1)}) == 2

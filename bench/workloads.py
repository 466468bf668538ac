"""The benchmark's three workloads: seeded inputs, one pass, and the gate.

A pass is a closed loop of one caller: each call into ``icofridge`` starts
only when the previous one has returned. A workload's ``inputs(seed)`` returns
plain data and is the only place the seed is used; the program sees nothing
but these inputs. ``gate`` runs outside the timed region and returns the names
of the operations whose output is wrong (a raised exception, a nonzero CLI
exit, or a value that fails an oracle pair the package already has, at the
tolerance ``icofridge verify`` uses for that pair).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from icofridge import cli, demon, measurement, nswitch, thermal, trajectories, verify
from icofridge import cswap as cswap_mod
from icofridge import fridge

SWEEP_N = list(range(2, 41)) + [50, 64, 100, 128, 256, 1000]
SWEEP_D = [2, 3, 4, 5, 8]
DESK_CSWAP_N = list(range(2, 9))
CYCLE_K = 100.0
# The cycle CLI's default start ratio; at k=100 it sits next to the ico
# critical point k/(2k+3), so the run needs ~26k cycles whatever the seed.
CYCLE_R_START = 0.5


class Failed:
    """Output slot of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _unit_interval(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform ratios in (0, 1]."""
    return 1.0 - rng.random(size)


def _random_state(rng: np.random.Generator, dim: int) -> list:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return (rho / np.trace(rho).real).tolist()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    r_list = _floats(np.sort(_unit_interval(rng, 31)))
    k_list = _floats(np.sort(10.0 ** rng.uniform(-1.0, 3.0, 32)))
    n_list = ",".join(str(n) for n in SWEEP_N)
    return {
        "commands": {
            # ~7k closed-form points: per-point Python overhead in nswitch,
            # thermal and cli formatting; the vectorized kernel shows here.
            "branches": ["branches", "--n-list", n_list, "--d-list", ",".join(map(str, SWEEP_D)),
                         "--r-list", r_list, "--format", "json"],
            # all three schemes at the optimal point r_hot = r: fridge closed forms.
            "cop": ["cop", "--scheme", "ico,cswap,traj", "--n-list", n_list, "--d-list", "2",
                    "--r-list", r_list],
            # trajectory branch data: fridge closed forms with the traj kernel.
            "traj": ["traj", "--n-list", n_list, "--r-list", r_list],
            # temperature limits over reservoir size ratios k in [0.1, 1000].
            "limits": ["limits", "--scheme", "ico,traj", "--k-list", k_list, "--r-list", r_list],
        }
    }


def _out_path(workdir: Path, name: str, argv: list[str]) -> Path:
    return workdir / (name + (".json" if "json" in argv else ".csv"))


def _run_cli(argv: list[str], out: Path):
    try:
        return cli.main(argv + ["--out", str(out)])
    except Exception as exc:  # one failed call must not stop the run
        return Failed(exc)


def sweep_pass(inputs: dict, workdir: Path) -> dict:
    outputs = {}
    for name, argv in inputs["commands"].items():
        out = _out_path(workdir, name, argv)
        outputs[name] = (_run_cli(argv, out), out)
    return outputs


def read_table(path: Path) -> list[dict]:
    """Rows of a table written by ``icofridge`` (CSV with config header, or JSON)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        return [dict(zip(doc["columns"], row)) for row in doc["rows"]]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def _sweep_rows_ok(name: str, rows: list[dict]) -> bool:
    if not rows:
        return False
    if name == "branches":
        # verify: branch_probability_closure, tol 1e-12
        return all(abs(float(r["p_c"]) + float(r["p_H"]) - 1.0) <= 1e-12 for r in rows)
    if name == "traj":
        # verify: traj_branch_normalization, tol 1e-10
        return all(abs(float(r["p_c"]) + float(r["p_H"]) - 1.0) <= 1e-10 for r in rows)
    if name == "cop":
        # verify: cop_cswap_tripling, relative tol 1e-9
        by_point: dict[tuple, dict] = {}
        for r in rows:
            by_point.setdefault((r["n"], r["r"]), {})[r["scheme"]] = float(r["cop"])
        return all(
            abs(v["cswap"] / v["ico"] - 3.0) / 3.0 <= 1e-9 for v in by_point.values()
        )
    if name == "limits":
        return all(0.0 <= float(r["r_lowest"]) <= float(r["r_start"]) for r in rows)
    raise KeyError(name)


def _passes(check, out) -> bool:
    """Whether ``out`` passes ``check``; an output the check cannot even read
    fails it, so a malformed result counts as one failed operation."""
    if isinstance(out, Failed):
        return False
    try:
        return bool(check(out))
    except Exception:
        return False


def _cli_table_ok(check):
    """Check for a CLI call's (exit code, output path): exit 0 and a table
    that passes ``check``."""
    return lambda out: out[0] == 0 and check(out[1])


def sweep_gate(inputs: dict, outputs: dict) -> list[str]:
    return [
        name
        for name, out in outputs.items()
        if not _passes(_cli_table_ok(lambda path: _sweep_rows_ok(name, read_table(path))), out)
    ]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_inputs(seed: int) -> dict:
    # The trust path every user runs: 30 checks on their built-in inputs, so
    # the seed does not apply. fridge_fixed_points (80 run_cycles) dominates.
    return {"checks": list(verify.CHECKS)}


def verify_pass(inputs: dict, workdir: Path) -> dict:
    try:
        return {"results": verify.run_checks(inputs["checks"])}
    except Exception as exc:
        return {"results": Failed(exc)}


def verify_gate(inputs: dict, outputs: dict) -> list[str]:
    results = outputs["results"]
    if isinstance(results, Failed):
        return list(inputs["checks"])
    passed = {res.name for res in results if res.passed}
    return [name for name in inputs["checks"] if name not in passed]


# ---------------------------------------------------------------------------
# desk_scale
# ---------------------------------------------------------------------------


def desk_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    # Ratios stay in [0.1, 0.9], the range verify checks these oracle pairs
    # over; the tripling ratio loses digits as r -> 0.
    r = [float(x) for x in rng.uniform(0.1, 0.9, 7)]
    return {
        # dense cswap register up to the n=8 guard: the 268 MB joint sets peak_rss_mb.
        "cswap_argv": ["cswap", "--n-list", ",".join(map(str, DESK_CSWAP_N)), "--r-list", _floats(r[:1])],
        # Kraus-tuple enumeration near the 10**6 budget, qutrit and qubit.
        "bruteforce": [
            {"n": 4, "d": 3, "r": r[1], "rho": _random_state(rng, 3)},
            {"n": 7, "d": 2, "r": r[2], "rho": _random_state(rng, 2)},
        ],
        # O(N^2) loop over d x d control blocks at N=64.
        "measure": {"n": 64, "r": r[3]},
        # largest dilation under its amplitude budget.
        "dilation": {"n": 6, "r": r[4]},
        # exact demon branch tree: 2**15 - 2 nodes walked one at a time.
        "tree": {"n": int(rng.choice([2, 10, 100])), "r": r[5], "rounds": 14,
                 "scheme": str(rng.choice(["ico", "traj"]))},
        # 10**6 particles x 10 rounds: per-element numpy work and memory.
        "demon": {"particles": 10**6, "n": int(rng.choice([2, 10, 100])), "r": r[6],
                  "rounds": 10, "seed": int(rng.integers(2**32))},
        # one long serial cycle trace that batching across runs cannot help.
        "cycle_argv": ["cycle", "--scheme", "ico", "--k", repr(CYCLE_K),
                       "--r-start", repr(CYCLE_R_START), "--seed", str(int(rng.integers(2**31)))],
    }


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return Failed(exc)


def _bruteforce(case: dict):
    spec = thermal.ThermalSpec.degenerate(case["d"], case["r"])
    return nswitch.switch_bruteforce(nswitch.OrderSet.cyclic(case["n"]), np.array(case["rho"]), spec)


def _measure(case: dict):
    spec = thermal.ThermalSpec.qubit(case["r"])
    t = thermal.gibbs_state(spec)
    out = nswitch.switch_closed_form(case["n"], t, t)
    return measurement.measure_control(out, measurement.build_basis(case["n"]))


def _dilation(case: dict):
    spec = thermal.ThermalSpec.qubit(case["r"])
    cfg = trajectories.canonical_config(case["n"], spec)
    return trajectories.dilation_oracle(cfg, thermal.gibbs_state(spec))


def _tree(case: dict):
    return demon.expected_transfer_exact(case["n"], 2, case["r"], case["rounds"], case["scheme"])


def _demon(case: dict):
    return demon.run_demon(demon.DemonConfig(**case))


def desk_pass(inputs: dict, workdir: Path) -> dict:
    cswap_out = workdir / "cswap.csv"
    cycle_out = workdir / "cycle.csv"
    outputs = {"cswap_cli": (_run_cli(inputs["cswap_argv"], cswap_out), cswap_out)}
    for case in inputs["bruteforce"]:
        outputs[f"bruteforce_n{case['n']}_d{case['d']}"] = _guarded(_bruteforce, case)
    outputs["measure_control"] = _guarded(_measure, inputs["measure"])
    outputs["dilation"] = _guarded(_dilation, inputs["dilation"])
    outputs["tree"] = _guarded(_tree, inputs["tree"])
    outputs["demon"] = _guarded(_demon, inputs["demon"])
    outputs["cycle_cli"] = (_run_cli(inputs["cycle_argv"], cycle_out), cycle_out)
    return outputs


def _cswap_ok(path: Path) -> bool:
    rows = read_table(path)
    if [int(row["n"]) for row in rows] != DESK_CSWAP_N:
        return False
    for row in rows:
        n, r = int(row["n"]), float(row["r"])
        stats = nswitch.branch_stats(n, thermal.ThermalSpec.qubit(r))
        target = float(cswap_mod.cooling_target_marginal(n, r)[1, 1].real)
        reservoir = float(cswap_mod.cooling_reservoir_marginal(n, r)[1, 1].real)
        # verify: cswap_marginals (tol 1e-10) and cswap_tripling (relative tol 1e-9)
        checks = (
            abs(float(row["target_cool_pop"]) - target) <= 1e-10,
            abs(float(row["reservoir_cool_pop"]) - reservoir) <= 1e-10,
            abs(float(row["p_c"]) - stats.p_c) <= 1e-10,
            abs(float(row["p_H"]) - stats.p_heating_total) <= 1e-10,
            abs(float(row["target_heat_pop"]) - float(stats.rho_h[1, 1].real)) <= 1e-10,
            abs(float(row["total_over_target"]) - 3.0) / 3.0 <= 1e-9,
        )
        if not all(checks):
            return False
    return True


def _bruteforce_ok(case: dict, out) -> bool:
    # verify: bruteforce_arbitrary_input, tol 1e-10
    spec = thermal.ThermalSpec.degenerate(case["d"], case["r"])
    cf = nswitch.switch_closed_form(case["n"], np.array(case["rho"]), thermal.gibbs_state(spec))
    return float(np.max(np.abs(out.joint - cf.joint))) <= 1e-10


def _measure_ok(case: dict, outcomes) -> bool:
    # verify: measured_branches, tol 1e-12
    stats = nswitch.branch_stats(case["n"], thermal.ThermalSpec.qubit(case["r"]))
    worst = abs(sum(o.probability for o in outcomes) - 1.0)
    worst = max(worst, abs(outcomes[0].probability - stats.p_c))
    worst = max(worst, float(np.max(np.abs(outcomes[0].state - stats.rho_c))))
    for o in outcomes[1:]:
        worst = max(worst, abs(o.probability - stats.p_h))
        worst = max(worst, float(np.max(np.abs(o.state - stats.rho_h))))
    return len(outcomes) == case["n"] and worst <= 1e-12


def _dilation_ok(case: dict, out) -> bool:
    # verify: traj_dilation_agreement, tol 1e-10
    spec = thermal.ThermalSpec.qubit(case["r"])
    cfg = trajectories.canonical_config(case["n"], spec)
    ref = trajectories.traj_output(cfg, thermal.gibbs_state(spec))
    return float(np.max(np.abs(out.joint - ref.joint))) <= 1e-10


def _tree_ok(case: dict, value: float) -> bool:
    # verify: demon_rounds_invariance, tol 1e-10
    one = demon.expected_transfer_exact(case["n"], 2, case["r"], 1, case["scheme"])
    return abs(value - one) <= 1e-10


def _demon_ok(case: dict, report) -> bool:
    # verify: demon_statistics, 4-sigma binomial band on the first round,
    # where every particle still starts from the thermal state
    p_c = nswitch.branch_stats(case["n"], thermal.ThermalSpec.qubit(case["r"])).p_c
    particles = case["particles"]
    cooled = 1.0 - report.rounds_heated_count[0] / particles
    band = 4 * math.sqrt(p_c * (1 - p_c) / particles)
    return len(report.final_energies) == particles and abs(cooled - p_c) <= band


def _cycle_ok(path: Path) -> bool:
    # verify: fridge_fixed_points, tol 1e-3
    header = path.read_text(encoding="utf-8").split("\n", 1)[0]
    config = cli.parse_config_comment(header)
    rows = read_table(path)
    target = fridge.lowest_r("ico", CYCLE_R_START, CYCLE_K)
    return config["stop"] == "converged" and abs(float(rows[-1]["r_cold"]) - target) <= 1e-3


def desk_gate(inputs: dict, outputs: dict) -> list[str]:
    checks = {
        "cswap_cli": _cli_table_ok(_cswap_ok),
        "measure_control": lambda out: _measure_ok(inputs["measure"], out),
        "dilation": lambda out: _dilation_ok(inputs["dilation"], out),
        "tree": lambda out: _tree_ok(inputs["tree"], out),
        "demon": lambda out: _demon_ok(inputs["demon"], out),
        "cycle_cli": _cli_table_ok(_cycle_ok),
    }
    for case in inputs["bruteforce"]:
        checks[f"bruteforce_n{case['n']}_d{case['d']}"] = (
            lambda out, case=case: _bruteforce_ok(case, out)
        )
    return [name for name, out in outputs.items() if not _passes(checks[name], out)]


def table_rows(outputs: dict) -> int:
    """Data rows in the tables written by a pass's successful CLI calls."""
    return sum(
        len(read_table(out[1]))
        for out in outputs.values()
        if isinstance(out, tuple) and out[0] == 0
    )


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    run_pass: Callable[[dict, Path], dict]
    gate: Callable[[dict, dict], list[str]]
    ops: int  # operations attempted per pass


WORKLOADS = {
    # Closed-form grids through the CLI: per-point Python overhead, no linear
    # algebra and no cycle loop, so a vectorized branch kernel shows here only.
    "sweep": Workload("sweep", sweep_inputs, sweep_pass, sweep_gate, 4),
    # The trust path every user runs: many small calls, mostly short run_cycles.
    "verify": Workload("verify", verify_inputs, verify_pass, verify_gate, len(verify.CHECKS)),
    # Largest input each guarded layer takes: memory and per-element work; its
    # one long cycle trace cannot gain from batching run_cycles across runs.
    "desk_scale": Workload("desk_scale", desk_inputs, desk_pass, desk_gate, 8),
}

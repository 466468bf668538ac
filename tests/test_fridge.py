import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from icofridge import cli, fridge
from icofridge.demon import DemonConfig
from icofridge.fridge import OperatingPoint, ReservoirEnsemble, cop, lowest_r, run_cycles, work_cost
from icofridge.measurement import build_basis, measure_control
from icofridge.nswitch import SwitchOutput, switch_closed_form
from icofridge.thermal import ThermalSpec, degenerate_state, excited_weight, gibbs_state, ratio_of_weight


def test_register_entropy_hot_two_channel():
    s = OperatingPoint.at("ico", 2, 2, 1.0).entropy
    expected = -(5 / 8) * math.log(5 / 8) - (3 / 8) * math.log(3 / 8)
    assert abs(s - expected) < 1e-15
    assert abs(s - 0.6616) < 1e-4


def test_register_entropy_deterministic_limit():
    # near absolute zero the cooling branch is near-certain
    assert OperatingPoint.at("ico", 2, 2, 1e-9).entropy < 1e-6


def test_register_entropy_counts_heating_outcomes_individually():
    n, r = 8, 0.5
    point = OperatingPoint.at("ico", n, 2, r)
    p_c, p_h, s = point.p_c, point.p_h, point.entropy
    assert abs(s - (-p_c * math.log(p_c) - (n - 1) * p_h * math.log(p_h))) < 1e-15
    # coarse record plus leftover control mixedness reproduces it
    p_heating = (n - 1) * p_h
    coarse = -p_c * math.log(p_c) - p_heating * math.log(p_heating)
    assert abs(s - (coarse + p_heating * math.log(n - 1))) < 1e-12


def test_work_cost():
    assert work_cost(0.0, 2.0) == 0.0
    assert abs(work_cost(math.log(2), 1.0) - math.log(2)) < 1e-15
    assert abs(work_cost(OperatingPoint.at("ico", 2, 2, 1.0).entropy, 1.0) - 0.6616) < 1e-4
    with pytest.raises(ValueError):
        work_cost(-0.1, 1.0)
    for beta_r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta_r"):
            work_cost(0.5, beta_r)
        with pytest.raises(ValueError, match="beta_r"):
            cop(2, 2, 0.5, 0.5, beta_r, "ico")


def test_cop_zero_at_stop_point():
    for scheme in ("ico", "cswap", "traj"):
        for n in (2, 4):
            for r in (0.2, 0.5, 0.9):
                r_hot = OperatingPoint.at(scheme, n, 2, r).stop_ratio
                assert abs(cop(n, 2, r, r_hot, 1.0, scheme)) < 1e-10


def test_traj_stop_point_is_infinite_temperature():
    assert abs(OperatingPoint.at("traj", 3, 2, 0.4).stop_ratio - 1.0) < 1e-12


def test_cop_optimal_case_values():
    # optimal case r_hot = r: COP = weighted energy over erasure work
    for scheme in ("ico", "traj"):
        for n in (2, 5):
            r = 0.3
            point = OperatingPoint.at(scheme, n, 2, r)
            expected = point.weighted_energy / point.entropy
            assert abs(cop(n, 2, r, r, 1.0, scheme) - expected) < 1e-14


def test_cop_zero_at_infinite_temperature():
    assert cop(2, 2, 1.0, 1.0, 1.0, "ico") == 0.0


def test_cop_rejects_nonfinite_hot_ratio():
    for r_hot in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="hot ratio"):
            cop(2, 2, 0.5, r_hot, 1.0, "ico")
    # the traj stop point (infinite temperature) can round just above 1 and
    # stays a valid input
    r_hot = OperatingPoint.at("traj", 2, 2, 0.999).stop_ratio
    assert r_hot > 1.0 and abs(cop(2, 2, 0.999, r_hot, 1.0, "traj")) < 1e-10


def test_cop_nonnegative_in_refrigeration_region():
    for scheme in ("ico", "cswap", "traj"):
        for r in (0.2, 0.6, 0.95):
            for r_hot in np.linspace(0.01, r, 8):
                assert cop(3, 2, r, float(r_hot), 1.0, scheme) >= 0.0


def test_cswap_cop_tripled():
    for n in (2, 3, 7):
        for r in (0.1, 0.5, 0.9):
            ratio = cop(n, 2, r, r, 1.0, "cswap") / cop(n, 2, r, r, 1.0, "ico")
            assert abs(ratio - 3.0) < 1e-9


def test_ico_traj_weighted_energy_agree():
    # the two schemes move the same average heat; the efficiency gain of the
    # trajectory fridge comes from its cheaper register
    for n in (2, 10):
        for r in (0.1, 0.5):
            assert abs(
                OperatingPoint.at("ico", n, 2, r).weighted_energy
                - OperatingPoint.at("traj", n, 2, r).weighted_energy
            ) < 1e-15
            assert OperatingPoint.at("traj", n, 2, r).entropy < OperatingPoint.at("ico", n, 2, r).entropy


def test_lowest_r_closed_forms():
    assert lowest_r("ico", 0.2, 1.0) == 0.0
    assert abs(lowest_r("ico", 0.6, 1e6) - 0.142857) < 1e-3
    assert lowest_r("traj", 0.25, 1.0) == 0.0  # raw value -0.0909 clamps
    for r in (0.3, 0.7, 0.99):
        assert lowest_r("traj", r, 1e6) == 0.0
    assert abs(lowest_r("ico", 1.0, 3.0) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        lowest_r("cswap", 0.5, 1.0)
    with pytest.raises(ValueError):
        lowest_r("ico", 0.5, 0.0)
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            lowest_r("ico", 0.5, k)


def test_run_cycles_reaches_absolute_zero_boundary():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.2, n_cold=16)
    trace = run_cycles("ico", ens, n=2, seed=1)
    assert trace.final_r_cold < 1e-3


def test_run_cycles_matches_closed_form():
    for scheme in ("ico", "traj"):
        for k in (0.5, 5.0):
            for r0 in (0.35, 0.75):
                ens = ReservoirEnsemble.from_ratio(k, r0, n_cold=16)
                trace = run_cycles(scheme, ens, n=2, seed=2)
                assert abs(trace.final_r_cold - lowest_r(scheme, r0, k)) < 1e-3


def test_run_cycles_infinite_temperature_is_inert():
    ens = ReservoirEnsemble.from_ratio(1.0, 1.0, n_cold=16)
    trace = run_cycles("ico", ens, n=2, seed=3)
    assert trace.stop_reason == "converged"
    assert abs(trace.final_r_cold - 1.0) < 1e-10


def test_traj_outcools_ico():
    k, r0 = 5.0, 0.8
    cold = {}
    for scheme in ("ico", "traj"):
        ens = ReservoirEnsemble.from_ratio(k, r0, n_cold=16)
        cold[scheme] = run_cycles(scheme, ens, n=2, seed=4).final_r_cold
    assert cold["traj"] < cold["ico"] - 1e-3


def test_first_law_audit():
    for scheme in ("ico", "cswap", "traj"):
        ens = ReservoirEnsemble.from_ratio(2.0, 0.6, n_cold=16)
        trace = run_cycles(scheme, ens, n=3, seed=5, max_cycles=5000)
        assert trace.audit_defect() < 1e-10


def test_run_cycles_budget_stop():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    trace = run_cycles("ico", ens, n=2, seed=6, max_cycles=3)
    assert trace.stop_reason == "budget"
    assert len(trace.cycles) == 3


def test_trace_csv_format():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    trace = run_cycles("ico", ens, n=2, seed=7, max_cycles=5)
    lines = "".join(trace.to_csv()).strip().splitlines()
    assert lines[0] == "cycle,branch,r_cold,r_hot,heat_cold,heat_hot,work,entropy"
    assert len(lines) == 1 + 5


TRACE_COLUMNS = ("cycles", "branches", "r_cold", "r_hot", "heat_cold", "heat_hot", "work", "entropy")


def _fstring_csv(trace):
    """Reference writer: one f-string per row, written to a buffer."""
    buf = io.StringIO()
    buf.write("cycle,branch,r_cold,r_hot,heat_cold,heat_hot,work,entropy\n")
    for row in zip(*(getattr(trace, name) for name in TRACE_COLUMNS)):
        buf.write(
            f"{row[0]},{row[1]},{row[2]:.12g},{row[3]:.12g},{row[4]:.12g},"
            f"{row[5]:.12g},{row[6]:.12g},{row[7]:.12g}\n"
        )
    return buf.getvalue()


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("cswap", 2), ("traj", 2), ("ico", 3)))
def test_trace_csv_matches_fstring_reference(scheme, dim):
    for k, r0 in ((2.0, 0.6), (5.0, 0.1), (100.0, 0.5)):
        trace = run_cycles(scheme, ReservoirEnsemble.from_ratio(k, r0, n_cold=4), n=3, dim=dim, seed=5)
        assert "".join(trace.to_csv()) == _fstring_csv(trace)


@pytest.mark.parametrize("cycles", (4095, 4096, 4097, 8193))
def test_trace_csv_blocks_match_fstring_reference(cycles):
    # ico at k = 1 runs to the budget: its cold limit 0 is reached only like 1/cycles
    trace = run_cycles("ico", ReservoirEnsemble.from_ratio(1.0, 0.2, n_cold=16), n=2, seed=9, max_cycles=cycles)
    assert len(trace.cycles) == cycles and trace.stop_reason == "budget"
    blocks = list(trace.to_csv())
    # the column line, the blocks and the writer's empty CSV tail
    assert len(blocks) == 2 + -(-cycles // cli._CSV_BLOCK)
    assert "".join(blocks) == _fstring_csv(trace)


def test_trace_csv_extreme_values_match_fstring_reference():
    values = [-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 0.1 + 0.2, -1.5e-7, 123456789012345.0]
    m = len(values)
    trace = fridge.CycleTrace(
        cycles=list(range(1, m + 1)),
        branches=(["cooling", "heating"] * m)[:m], r_cold=values, r_hot=values[::-1],
        heat_cold=values, heat_hot=values[::-1], work=values, entropy=values[::-1],
    )
    text = "".join(trace.to_csv())
    assert text == _fstring_csv(trace)
    assert "\n1,cooling,-0,1.23456789012e+14,-0," in text and ",1e+300," in text
    assert "\n4,heating,nan,-inf,nan," in text and "\n5,cooling,inf,inf,inf," in text


def test_trace_csv_is_written_by_the_table_writer(monkeypatch):
    # the trace has no row format of its own: cli._text writes it, once
    calls = []
    text = cli._text
    monkeypatch.setattr(cli, "_text", lambda *args: calls.append(args[0]) or text(*args))
    trace = run_cycles("ico", ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16), n=2, seed=7, max_cycles=5)
    lines = "".join(trace.to_csv()).splitlines()
    assert calls == [fridge._TRACE_COLUMNS] and len(lines) == 1 + 5


def _reference_cycles(scheme, ens, n, dim, seed, max_cycles):
    """Per-cycle reference: one kernel call and one scalar draw per cycle."""
    rng = np.random.default_rng(seed)
    nc, nh = ens.n_cold, ens.n_hot
    a_c = excited_weight(dim, ens.r_cold)
    a_h = excited_weight(dim, ens.r_hot)
    cols = {name: [] for name in TRACE_COLUMNS}
    work, stop = 0.0, "budget"
    r_cold = float(ratio_of_weight(dim, a_c))
    for cycle in range(1, max_cycles + 1):
        point = OperatingPoint.at(scheme, n, dim, r_cold)
        p_c, p_h, e_cool, e_heat, n_med = point.p_c, point.p_h, point.e_cool, point.e_heat, point.n_med
        p_heating = (n - 1) * p_h
        branch = "cooling" if rng.random() < p_c else "heating"
        s = -p_c * math.log(p_c) - (n - 1) * p_h * math.log(p_h)
        work += s
        a_h_eq = (nh * a_h + e_heat) / (nh + n_med)
        d_cold = p_c * (e_cool - n_med * a_c) + p_heating * n_med * (a_h_eq - a_c)
        d_hot = p_heating * nh * (a_h_eq - a_h)
        a_c += d_cold / nc
        a_h += d_hot / nh
        r_cold = float(ratio_of_weight(dim, a_c))
        row = (cycle, branch, r_cold, float(ratio_of_weight(dim, a_h)), -d_cold, d_hot, work, s)
        for name, value in zip(TRACE_COLUMNS, row):
            cols[name].append(value)
        if abs(e_heat / n_med - a_h) < fridge.STOP_POPULATION_TOL:
            stop = "converged"
            break
        if r_cold < fridge.COLD_EXHAUSTED_TOL:
            stop = "cold-exhausted"
            break
    return cols, stop


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("cswap", 2), ("traj", 2), ("ico", 3), ("ico", 4)))
@pytest.mark.parametrize(
    "k, r0, max_cycles, stop",
    (
        (2.0, 0.6, 20_000, "converged"),
        (5.0, 0.1, 20_000, "cold-exhausted"),
        (2.0, 0.6, 1, "budget"),
        (2.0, 0.6, 3, "budget"),
        (1.0, 1e-300, 20_000, "cold-exhausted"),
    ),
)
def test_run_cycles_matches_per_cycle_reference(scheme, dim, k, r0, max_cycles, stop):
    # the loop iterates the bath state and the columns are derived after it;
    # every column must match a loop that records each cycle as it goes
    ens = ReservoirEnsemble.from_ratio(k, r0, n_cold=4)
    trace = run_cycles(scheme, ens, n=3, dim=dim, seed=5, max_cycles=max_cycles)
    ref, ref_stop = _reference_cycles(scheme, ens, 3, dim, 5, max_cycles)
    assert trace.stop_reason == ref_stop == stop
    dtypes = {"cycles": np.int64, "branches": object}
    for name in TRACE_COLUMNS:
        got, want = getattr(trace, name), ref[name]
        assert isinstance(got, np.ndarray) and got.shape == (len(want),), name
        assert got.dtype == dtypes.get(name, np.float64), name
        if name in ("work", "entropy"):
            # np.log and math.log may differ in the last place
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), name
        else:
            assert got.tolist() == want, name
    # labels are references to two shared strings, not one string per cycle
    assert {id(b) for b in trace.branches} <= {id(label) for label in fridge._LABELS}
    assert type(trace.final_r_cold) is float and trace.final_r_cold == ref["r_cold"][-1]
    # the first cycle runs at the start ratio, however small: the cold bath
    # cools, and it loses what the hot bath gains up to rounding
    assert trace.r_cold[0] < r0
    assert trace.audit_defect() <= 1e-13 * np.max(np.abs(trace.heat_cold))


def test_cswap_cycle_whose_heating_weight_underflows_keeps_the_thermal_sum():
    # N = 10^30 at r = 1e-300: the heating probability is 0, so the heating
    # mediums hold the bath's thermal sum and the first cycle moves no heat
    assert fridge._kernel("cswap", 10**30, 2)(1e-300, excited_weight(2, 1e-300))[1] == 0.0
    trace = run_cycles("cswap", ReservoirEnsemble.from_ratio(1.0, 1e-300, n_cold=16), n=10**30)
    assert (trace.stop_reason, trace.r_cold.tolist()) == ("converged", [1e-300])
    assert (trace.heat_cold.tolist(), trace.heat_hot.tolist(), trace.entropy.tolist()) == ([0.0], [0.0], [0.0])


def test_trace_columns_are_packed_arrays():
    # a k = 100 trace runs 26,251 cycles; what it keeps is counted by
    # tracemalloc, whose count repeats exactly run to run. Eight 8-byte
    # columns are 64 B per cycle; a list of boxed floats costs 32 per value
    ens = ReservoirEnsemble.from_ratio(100.0, 0.5, n_cold=16)
    run_cycles("ico", ens, n=2, seed=3)  # first-call allocations are not the trace's
    tracemalloc.start()
    try:
        trace = run_cycles("ico", ens, n=2, seed=3)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    m = len(trace.cycles)
    assert m > 20_000 and trace.stop_reason == "converged"
    assert kept < 80 * m
    for name in ("r_cold", "r_hot", "heat_cold", "heat_hot", "work", "entropy"):
        column = getattr(trace, name)
        assert isinstance(column, np.ndarray) and column.dtype == np.float64, name
        assert column.shape == (m,) and column.flags.c_contiguous, name


def test_trace_kernel_runs_over_slices_of_the_run():
    # the 26,251-cycle k = 100 run keeps 64.6 B per cycle and peaks at 96 B
    # with the post-loop kernel called over 8,192-cycle slices; one call over
    # the whole run holds its ~15 trace-length temporaries at once and
    # peaked at 169 B
    ens = ReservoirEnsemble.from_ratio(100.0, 0.5, n_cold=16)
    run_cycles("ico", ens, n=2, seed=3)  # first-call allocations are not the trace's
    tracemalloc.start()
    try:
        trace = run_cycles("ico", ens, n=2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = len(trace.cycles)
    assert m > 3 * fridge._TRACE_SLICE
    assert peak < 100 * m


def test_trace_deterministic_given_seed():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    a = run_cycles("ico", ens, n=2, seed=8, max_cycles=50)
    b = run_cycles("ico", ens, n=2, seed=8, max_cycles=50)
    assert np.array_equal(a.branches, b.branches)
    assert np.array_equal(a.r_cold, b.r_cold)


def test_sampled_branch_frequencies_follow_probabilities():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.9, n_cold=1e12)  # quasi-static
    trace = run_cycles("ico", ens, n=2, seed=9, max_cycles=4000)
    p_c = OperatingPoint.at("ico", 2, 2, 0.9).p_c
    freq = np.count_nonzero(trace.branches == "cooling") / len(trace.branches)
    assert abs(freq - p_c) < 4 * math.sqrt(p_c * (1 - p_c) / len(trace.branches))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        ReservoirEnsemble(n_cold=0, n_hot=1, r_cold=0.5, r_hot=0.5)
    with pytest.raises(ValueError):
        ReservoirEnsemble(n_cold=1, n_hot=1, r_cold=0.0, r_hot=0.5)
    assert ReservoirEnsemble.from_ratio(2.5, 0.5, n_cold=10).k == 2.5
    for n_cold, n_hot in ((math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ReservoirEnsemble(n_cold=n_cold, n_hot=n_hot, r_cold=0.5, r_hot=0.5)
    with pytest.raises(ValueError, match="finite"):
        ReservoirEnsemble.from_ratio(math.inf, 0.5, n_cold=16)
    with pytest.raises(ValueError, match="particle count 1e-320 is subnormal"):
        ReservoirEnsemble(n_cold=1.0, n_hot=1e-320, r_cold=0.5, r_hot=0.5)
    with pytest.raises(ValueError, match="k=1e-320 is subnormal"):
        ReservoirEnsemble.from_ratio(1e-320, 0.5, n_cold=16)
    with pytest.raises(ValueError, match="k=1e[+]300 overflows"):
        ReservoirEnsemble.from_ratio(1e300, 0.5, n_cold=1e10)
    # the smallest normal k and count are sizes like any other
    tiny = ReservoirEnsemble.from_ratio(2.2250738585072014e-308, 0.5, n_cold=1.0)
    assert tiny.n_hot == 2.2250738585072014e-308


def test_run_cycles_rejects_empty_budget():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    for max_cycles in (0, -3):
        with pytest.raises(ValueError, match="max_cycles"):
            run_cycles("ico", ens, n=2, max_cycles=max_cycles)


def test_point_validation():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    with pytest.raises(ValueError, match="unknown scheme"):
        OperatingPoint.at("bogus", 2, 2, 0.5)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_cycles("bogus", ens, n=2)
    with pytest.raises(ValueError, match="qubit"):
        cop(2, 3, 0.5, 0.5, 1.0, "traj")
    with pytest.raises(ValueError, match="qubit"):
        run_cycles("cswap", ens, n=2, dim=3)
    with pytest.raises(ValueError, match="two channels"):
        OperatingPoint.at("ico", 1, 2, 0.5)
    with pytest.raises(ValueError, match="two channels"):
        run_cycles("ico", ens, n=1)
    with pytest.raises(ValueError, match="outside"):
        OperatingPoint.at("ico", 2, 2, 0.0)
    with pytest.raises(ValueError, match="outside"):
        cop(2, 2, 1.5, 0.5, 1.0)
    with pytest.raises(ValueError, match="subnormal"):
        OperatingPoint.at("ico", 2, 2, 1e-320)


def test_channel_count_and_dimension_follow_the_family_rule():
    # n and D are integers, as ThermalSpec's D is, not floats that compare >= 2
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    for call in (
        lambda: OperatingPoint.at("ico", 2, 2.5, 0.3),
        lambda: OperatingPoint.at("ico", 2.5, 2, 0.3),
        lambda: cop(2.5, 2, 0.3, 0.3, 1.0),
        lambda: cop(2, 2.5, 0.3, 0.3, 1.0),
        lambda: run_cycles("ico", ens, n=2.5),
        lambda: run_cycles("ico", ens, n=2, dim=2.5),
        lambda: DemonConfig(particles=10, n=2.5, r=0.3),
        lambda: DemonConfig(particles=10, n=2, r=0.3, dim=2.5),
    ):
        with pytest.raises(TypeError):
            call()
    assert OperatingPoint.at("ico", np.int64(3), np.int64(2), 0.3) == OperatingPoint.at("ico", 3, 2, 0.3)
    # N - 1, and cswap's (N - 1)(N - 2), must fit a float
    with pytest.raises(ValueError, match="overflows a float in the branch kernel: n=10{200}$"):
        OperatingPoint.at("cswap", 10**200, 2, 0.3)
    with pytest.raises(ValueError, match="overflows a float in the branch kernel: n=10{400}$"):
        OperatingPoint.at("ico", 10**400, 2, 0.3)
    assert OperatingPoint.at("ico", 10**200, 2, 0.3).p_c > 0
    # k follows the size rule that ReservoirEnsemble.from_ratio applies
    with pytest.raises(ValueError, match="k=1e-320 is subnormal"):
        lowest_r("ico", 0.5, 1e-320)


def test_qudit_ico_cycle_runs():
    ens = ReservoirEnsemble.from_ratio(2.0, 0.4, n_cold=16)
    trace = run_cycles("ico", ens, n=2, dim=3, seed=10, max_cycles=20_000)
    assert trace.final_r_cold < 0.4
    assert trace.audit_defect() < 1e-10


def _measured(out, n):
    """(p_c, per-branch p_h, cooling and heating excited weights) of a switch output."""
    outcomes = measure_control(out, build_basis(n))
    excited = [1.0 - float(o.state[0, 0].real) for o in outcomes]
    for o, e in zip(outcomes[2:], excited[2:]):
        assert abs(o.probability - outcomes[1].probability) < 1e-12 and abs(e - excited[1]) < 1e-12
    return outcomes[0].probability, outcomes[1].probability, excited[0], excited[1]


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("n", (2, 5))
def test_branch_kernel_matches_measured_switch_off_thermal(n, dim):
    # the demon feeds non-thermal particles back in; check the kernel there
    # against the measured closed-form switch, for floats and for arrays
    xs = (0.0, 0.1, 0.5, 0.9)
    for r in (0.2, 0.7):
        spec = ThermalSpec.degenerate(dim, r)
        t = gibbs_state(spec)
        batch = fridge._kernel("ico", n, dim)(r, np.array(xs))[:4]
        for i, x in enumerate(xs):
            rho = degenerate_state(dim, x)
            ref = _measured(switch_closed_form(n, rho, t), n)
            got = fridge._kernel("ico", n, dim)(r, x)[:4]
            assert max(abs(g - e) for g, e in zip(got, ref)) < 1e-12
            assert [float(b[i]) for b in batch] == list(got)


@pytest.mark.parametrize("n", (2, 5))
def test_traj_branch_kernel_matches_measured_paths(n):
    # fridge and demon use blocks A rho A^dag for the traj scheme
    for r in (0.2, 0.7):
        t = gibbs_state(ThermalSpec.qubit(r))
        a = np.sqrt(t)
        for x in (0.0, 0.1, 0.5, 0.9):
            rho = degenerate_state(2, x)
            off = a @ rho @ a.conj().T
            joint = (np.kron(np.eye(n), t) + np.kron(np.ones((n, n)) - np.eye(n), off)) / n
            ref = _measured(SwitchOutput(joint=joint, control_dim=n, target_dim=2), n)
            got = fridge._kernel("traj", n, 2)(r, x)[:4]
            assert max(abs(g - e) for g, e in zip(got, ref)) < 1e-12


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("scheme", fridge.SCHEMES)
def test_kernel_float_and_array_paths_agree(scheme, dim):
    # one step per (scheme, N, D), called on floats and on an array, equals
    # a freshly built step bit for bit, down to the smallest normal ratio and
    # at a million channels, without dividing by zero anywhere
    xs = [0.0, 0.1, 0.5, 0.9, 1.0]
    with np.errstate(divide="raise", invalid="raise"):
        for n in (2, 5, 10**6):
            step = fridge._kernel(scheme, n, dim)
            for r in (2.3e-308, 1e-300, 1e-9, 0.2, 0.7, 1.0):
                xs_r = xs + [excited_weight(dim, r)]
                batch = step(r, np.array(xs_r))
                for i, x in enumerate(xs_r):
                    got = step(r, x)
                    assert got == fridge._kernel(scheme, n, dim)(r, x)
                    assert [float(b[i]) for b in batch[:4]] == list(got[:4])
                    if scheme == "cswap":
                        assert float(batch[4][i]) == got[4]
                    else:
                        assert batch[4] is None and got[4] is None
                # without x the input is thermal, at excited_weight's value
                thermal = np.array([r, r])
                assert step(r) == step(r, excited_weight(dim, r))
                for got, want in zip(step(thermal), step(thermal, excited_weight(dim, thermal))):
                    assert got is want is None or np.array_equal(got, want)


_POINT_VALUES = ("p_c", "p_h", "a", "e_cool", "e_heat", "p_heating", "entropy", "weighted_energy", "stop_ratio")


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("ico", 3), ("cswap", 2), ("traj", 2)))
def test_sequence_of_ratios_equals_the_float_calls(scheme, dim):
    # OperatingPoint.at and cop on a list are their per-float calls, bit for
    # bit, from the smallest normal ratio to r = 1 and at a million channels
    ratios = [2.3e-308, 1e-300, 1e-9, 0.2, 1 - 2**-40, 1.0]
    with np.errstate(divide="raise", invalid="raise"):
        for n in (2, 5, 10**6):
            many = OperatingPoint.at(scheme, n, dim, ratios)
            assert (many.n, many.dim) == (n, dim)
            for i, r in enumerate(ratios):
                one = OperatingPoint.at(scheme, n, dim, r)
                assert many.n_med == one.n_med
                for name in _POINT_VALUES:
                    assert float(getattr(many, name)[i]).hex() == getattr(one, name).hex(), (n, r, name)
            for r_hot in (0.7, ratios):
                hots = r_hot if isinstance(r_hot, list) else [r_hot] * len(ratios)
                got = cop(n, dim, ratios, r_hot, 1.3, scheme)
                want = [cop(n, dim, r, h, 1.3, scheme) for r, h in zip(ratios, hots)]
                assert [v.hex() for v in got] == [v.hex() for v in want], (n, r_hot)
        # np.log can miss math.log by an ulp on a few inputs in a thousand,
        # so a dense list pins the entropy to math.log
        dense = np.linspace(1e-3, 1.0, 4096).tolist()
        for n in (2, 5):
            point = OperatingPoint.at(scheme, n, dim, dense)
            got = point.entropy.tolist()
            assert got == [OperatingPoint.at(scheme, n, dim, r).entropy for r in dense], n
            probabilities = zip(point.p_c.tolist(), point.p_h.tolist())
            assert got == [-(c * math.log(c)) - (n - 1) * (h * math.log(h)) for c, h in probabilities], n


_GRID_N = [2, 5, 10**6, 2**53 + 1, 10**20]
_GRID_R = [2.3e-308, 1e-300, 1e-9, 0.2, 1 - 2**-40, 1.0]


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("ico", 3), ("cswap", 2), ("traj", 2)))
def test_list_of_n_equals_the_float_calls(scheme, dim):
    # OperatingPoint.at and cop on a list of N against a list of ratios are
    # their per-point float calls, bit for bit; 2^53 + 1 is where float(N) - 1
    # and float(N - 1) part, and N = 10^20 has p_h underflow at r = 2.3e-308
    for n in (_GRID_N, 10**20):
        with pytest.raises(ValueError, match=f"^heating probability underflows to 0 at n={10**20}, d={dim}, r=2.3e-308$"):
            OperatingPoint.at(scheme, n, dim, _GRID_R if n is _GRID_N else 2.3e-308)
    with np.errstate(divide="raise", invalid="raise"):
        for ns, ratios in ((_GRID_N, _GRID_R[1:]), (_GRID_N[:-1], _GRID_R)):
            grid = OperatingPoint.at(scheme, ns, dim, ratios)
            hot = [0.3, 0.9, 0.5, 0.7, 1.2, 0.4][: len(ratios)]
            cops = [cop(ns, dim, ratios, r_hot, 1.3, scheme) for r_hot in (ratios, 0.7, hot)]
            for i, n in enumerate(ns):
                for j, r in enumerate(ratios):
                    one = OperatingPoint.at(scheme, n, dim, r)
                    for name in _POINT_VALUES:
                        assert float(getattr(grid, name)[i, j]).hex() == getattr(one, name).hex(), (n, r, name)
                    for got, r_hot in zip(cops, (r, 0.7, hot[j])):
                        assert float(got[i, j]).hex() == cop(n, dim, r, r_hot, 1.3, scheme).hex(), (n, r, r_hot)


def test_lowest_r_over_a_grid_equals_the_float_calls():
    ks = [1e-300, 0.1, 1.0, 5.0, 1e300]
    ratios = [2.3e-308, 1e-9, 0.3, 1 - 2**-40, 1.0]
    got = lowest_r("ico", np.array(ratios), np.array(ks)[:, None])
    assert got.shape == (len(ks), len(ratios))
    want = [[lowest_r("ico", r, k) for r in ratios] for k in ks]
    assert [[v.hex() for v in row] for row in got.tolist()] == [[v.hex() for v in row] for row in want]
    got = lowest_r("traj", np.array(ratios[:-1]), np.array(ks)[:, None])
    assert got.tolist() == [[lowest_r("traj", r, k) for r in ratios[:-1]] for k in ks]
    # 2k overflows for ico; traj's denominator k r - 2 - k rounds to 0 at r = 1
    for args, message in (
        (("ico", 0.5, 1e308), "reservoir size ratio k=1e+308 overflows the temperature limit"),
        (("traj", 1.0, 1e300), "reservoir size ratio k=1e+300 is too large for the temperature limit at r_start=1.0"),
    ):
        scheme, r, k = args
        for r_arg, k_arg in ((r, k), (np.array([0.5, r]), np.array([[1.0], [k]]))):
            with pytest.raises(ValueError) as err:
                lowest_r(scheme, r_arg, k_arg)
            assert str(err.value) == message


@pytest.mark.parametrize("kind", (list, tuple, np.array))
def test_array_like_ratios_equal_the_list_call(kind):
    # a tuple or a 1-d array of ratios is the list call, for every public
    # closed form, and its faults keep their messages
    ratios = [1e-9, 0.3, 0.5, 1.0]
    hots = [0.7, 0.2, 1.2, 0.4]
    for scheme in fridge.SCHEMES:
        for n in (3, [2, 5]):
            want = OperatingPoint.at(scheme, n, 2, ratios)
            got = OperatingPoint.at(scheme, n, 2, kind(ratios))
            for name in _POINT_VALUES:
                assert np.array_equal(getattr(got, name), getattr(want, name)), (scheme, n, name)
            for r_hot in (ratios, hots, 0.7):
                hot = kind(r_hot) if isinstance(r_hot, list) else r_hot
                want = cop(n, 2, ratios, r_hot, 1.3, scheme)
                assert np.array_equal(cop(n, 2, kind(ratios), hot, 1.3, scheme), want), (scheme, n, r_hot)
    for scheme in ("ico", "traj"):
        assert lowest_r(scheme, kind(ratios), 5.0).tolist() == [lowest_r(scheme, r, 5.0) for r in ratios]
    assert work_cost(kind([0.1, 0.2]), 1.0).tolist() == [0.1, 0.2]
    for call, message in (
        (lambda: OperatingPoint.at("ico", 2, 2, kind([0.5, 0.0])), "ratio 0.0 outside (0, 1]"),
        (lambda: cop(2, 2, kind([0.5, 0.6]), kind([0.5, 0.0]), 1.0), "hot ratio 0.0 must be positive and finite"),
        (lambda: lowest_r("ico", kind([0.5, 2.0]), 5.0), "ratio 2.0 outside (0, 1]"),
        (lambda: work_cost(kind([0.1, -0.2]), 1.0), "entropy must be nonnegative"),
        (lambda: work_cost(kind([0.1, 1e300]), 1e-10), "erasure work overflows at beta_r=1e-10 (entropy 1e+300)"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("scheme", fridge.SCHEMES)
def test_one_ratio_gives_python_floats(scheme):
    # numpy 2 prints a numpy scalar as np.float64(...); a one-ratio call
    # returns Python floats equal to the one-element list call's entries
    one, many = OperatingPoint.at(scheme, 3, 2, 0.3), OperatingPoint.at(scheme, 3, 2, [0.3])
    pairs = [(getattr(one, name), getattr(many, name)[0]) for name in _POINT_VALUES]
    pairs.append((cop(3, 2, 0.3, 0.7, 1.3, scheme), cop(3, 2, [0.3], 0.7, 1.3, scheme)[0]))
    pairs.append((work_cost(one.entropy, 1.3), work_cost([one.entropy], 1.3)[0]))
    if scheme != "cswap":
        pairs.append((lowest_r(scheme, 0.3, 5.0), lowest_r(scheme, [0.3], 5.0)[0]))
    for v, entry in pairs:
        assert type(v) is float and v.hex() == float(entry).hex()
    assert "np." not in repr(one)


def _exact_branches(scheme, n, dim, r, x):
    """The kernel's defining expressions in exact rational arithmetic."""
    r, x = Fraction(r), Fraction(x)
    z = 1 + (dim - 1) * r
    g, a, k = 1 / z, (dim - 1) * r / z, r / z
    if scheme == "traj":
        m_g, m_e = g * (1 - x), k * x
    else:
        m_g, m_e = g * g * (1 - x), k * k * x
    cool_e, heat_e = a + (n - 1) * m_e, a - m_e
    tr_c, tr_h = g + (n - 1) * m_g + cool_e, g - m_g + heat_e
    out = [tr_c / n, tr_h / n, cool_e / tr_c, heat_e / tr_h]
    if scheme == "cswap":
        alpha = (n + (n - 1) * (n - 2) * (m_g + m_e)) / (n * n)
        beta = Fraction(2 * (n - 1), n * n)
        out.append((alpha * a + beta * m_e) / (alpha + beta * (m_g + m_e)))
    return out


def _int_constant_step(scheme, n, dim, r, x):
    """The kernel's step on Python floats with N's constants left as ints,
    each rounded once where it meets a float."""
    d1 = dim - 1
    z = 1.0 + d1 * r
    g, a, k = 1.0 / z, d1 * r / z, r / z
    if scheme == "traj":
        m_g, m_e, heat_g, heat_e = g * (1.0 - x), k * x, g * x, k * (d1 - x)
    else:
        m_g, m_e = g * g * (1.0 - x), k * k * x
        heat_g, heat_e = g * (a + g * x), a - m_e
    cool_e = a + (n - 1) * m_e
    tr_c, tr_h = g + (n - 1) * m_g + cool_e, heat_g + heat_e
    out = [tr_c / n, tr_h / n, cool_e / tr_c, heat_e / tr_h]
    if scheme == "cswap":
        alpha = (n + (n - 1) * (n - 2) * (m_g + m_e)) / (n * n)
        beta = 2 * (n - 1) / (n * n)
        out.append((alpha * a + beta * m_e) / (alpha + beta * (m_g + m_e)))
    return out


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("ico", 3), ("cswap", 2), ("traj", 2)))
def test_kernel_rounds_each_n_constant_once(scheme, dim):
    # above 2^53 float(N) - 1 is not float(N - 1), nor float(N)^2 float(N^2):
    # each constant of one N is its exact int rounded once
    for n in (2, 5, 2**53 + 1, 3 * 2**60 + 7, 10**20):
        step = fridge._kernel(scheme, n, dim)
        for r in (1e-300, 1e-9, 0.3, 1.0):
            for x in (0.0, 0.4, excited_weight(dim, r)):
                want = _int_constant_step(scheme, n, dim, r, x)
                assert [v.hex() for v in step(r, x)[: len(want)]] == [v.hex() for v in want], (n, r, x)


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("ico", 3), ("cswap", 2), ("traj", 2), ("traj", 3)))
def test_branch_kernel_exact_at_small_ratios(scheme, dim):
    # g - m_g cancels as r -> 0, and the traj a - m_e as x -> 1 at d = 2;
    # the kernel must keep every output's digits
    for n in (2, 5):
        for r in (0.3, 1e-6, 1e-12, 1e-15, 1e-300):
            for x in (excited_weight(dim, r), 0.0, 0.5, 0.992, 1 - 1e-9):
                got = fridge._kernel(scheme, n, dim)(r, x)
                ref = _exact_branches(scheme, n, dim, r, x)
                for value, exact in zip(got, ref):
                    assert abs(value - exact) <= 1e-12 * abs(exact)

import math
from fractions import Fraction

import numpy as np
import pytest

from icofridge import fridge
from icofridge.fridge import ReservoirEnsemble, cop, lowest_r, register_entropy, run_cycles, stop_ratio, work_cost
from icofridge.measurement import build_basis, measure_control
from icofridge.nswitch import SwitchOutput, switch_closed_form
from icofridge.thermal import ThermalSpec, degenerate_state, gibbs_state


def test_register_entropy_hot_two_channel():
    s = register_entropy(2, 1.0, "ico")
    expected = -(5 / 8) * math.log(5 / 8) - (3 / 8) * math.log(3 / 8)
    assert abs(s - expected) < 1e-15
    assert abs(s - 0.6616) < 1e-4


def test_register_entropy_deterministic_limit():
    # near absolute zero the cooling branch is near-certain
    assert register_entropy(2, 1e-9, "ico") < 1e-6


def test_register_entropy_counts_heating_outcomes_individually():
    n, r = 8, 0.5
    p_c, p_h = fridge.branch_probabilities(n, r)
    s = register_entropy(n, r, "ico")
    assert abs(s - (-p_c * math.log(p_c) - (n - 1) * p_h * math.log(p_h))) < 1e-15
    # coarse record plus leftover control mixedness reproduces it
    p_heating = (n - 1) * p_h
    coarse = -p_c * math.log(p_c) - p_heating * math.log(p_heating)
    assert abs(s - (coarse + p_heating * math.log(n - 1))) < 1e-12


def test_work_cost():
    assert work_cost(0.0, 2.0) == 0.0
    assert abs(work_cost(math.log(2), 1.0) - math.log(2)) < 1e-15
    assert abs(work_cost(register_entropy(2, 1.0, "ico"), 1.0) - 0.6616) < 1e-4
    with pytest.raises(ValueError):
        work_cost(-0.1, 1.0)


def test_cop_zero_at_stop_point():
    for scheme in ("ico", "cswap", "traj"):
        for n in (2, 4):
            for r in (0.2, 0.5, 0.9):
                r_hot = stop_ratio(n, 2, r, scheme)
                assert abs(cop(n, 2, r, r_hot, 1.0, scheme)) < 1e-10


def test_traj_stop_point_is_infinite_temperature():
    assert abs(stop_ratio(3, 2, 0.4, "traj") - 1.0) < 1e-12


def test_cop_optimal_case_values():
    # optimal case r_hot = r: COP = weighted energy over erasure work
    for scheme in ("ico", "traj"):
        for n in (2, 5):
            r = 0.3
            expected = fridge.weighted_energy_scheme(n, 2, r, scheme) / register_entropy(n, r, scheme)
            assert abs(cop(n, 2, r, r, 1.0, scheme) - expected) < 1e-14


def test_cop_zero_at_infinite_temperature():
    assert cop(2, 2, 1.0, 1.0, 1.0, "ico") == 0.0


def test_cop_rejects_nonfinite_hot_ratio():
    for r_hot in (math.nan, math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="hot ratio"):
            cop(2, 2, 0.5, r_hot, 1.0, "ico")
    # the traj stop point (infinite temperature) can round just above 1 and
    # stays a valid input
    r_hot = stop_ratio(2, 2, 0.999, "traj")
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
                fridge.weighted_energy_scheme(n, 2, r, "ico")
                - fridge.weighted_energy_scheme(n, 2, r, "traj")
            ) < 1e-15
            assert register_entropy(n, r, "traj") < register_entropy(n, r, "ico")


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
    lines = trace.to_csv().strip().splitlines()
    assert lines[0].startswith("# config: command=cycle scheme=ico")
    assert lines[1] == "cycle,branch,r_cold,r_hot,heat_cold,heat_hot,work,entropy"
    assert len(lines) == 2 + 5


TRACE_COLUMNS = ("cycles", "branches", "r_cold", "r_hot", "heat_cold", "heat_hot", "work", "entropy")


def _reference_cycles(scheme, ens, n, dim, seed, max_cycles):
    """Per-cycle reference: one kernel call and one scalar draw per cycle."""
    rng = np.random.default_rng(seed)
    nc, nh = ens.n_cold, ens.n_hot
    a_c = fridge._bath_energy(dim, ens.r_cold)
    a_h = fridge._bath_energy(dim, ens.r_hot)
    cols = {name: [] for name in TRACE_COLUMNS}
    work, stop = 0.0, "budget"
    r_cold = fridge._bath_ratio(dim, a_c)
    for cycle in range(1, max_cycles + 1):
        p_c, p_h, _, e_cool, e_heat, n_med = fridge._bath_branches(scheme, n, dim, max(r_cold, 1e-12))
        p_heating = (n - 1) * p_h
        branch = "cooling" if rng.random() < p_c else "heating"
        s = -p_c * math.log(p_c) - (n - 1) * p_h * math.log(p_h)
        work += s
        a_h_eq = (nh * a_h + e_heat) / (nh + n_med)
        d_cold = p_c * (e_cool - n_med * a_c) + p_heating * n_med * (a_h_eq - a_c)
        d_hot = p_heating * nh * (a_h_eq - a_h)
        a_c += d_cold / nc
        a_h += d_hot / nh
        r_cold = fridge._bath_ratio(dim, a_c)
        row = (cycle, branch, r_cold, fridge._bath_ratio(dim, a_h), -d_cold, d_hot, work, s)
        for name, value in zip(TRACE_COLUMNS, row):
            cols[name].append(value)
        if abs(e_heat / n_med - a_h) < fridge.STOP_POPULATION_TOL:
            stop = "converged"
            break
        if r_cold < fridge.COLD_EXHAUSTED_TOL:
            stop = "cold-exhausted"
            break
    return cols, stop


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("cswap", 2), ("traj", 2), ("ico", 3)))
@pytest.mark.parametrize(
    "k, r0, max_cycles, stop",
    (
        (2.0, 0.6, 20_000, "converged"),
        (5.0, 0.1, 20_000, "cold-exhausted"),
        (2.0, 0.6, 1, "budget"),
        (2.0, 0.6, 3, "budget"),
    ),
)
def test_run_cycles_matches_per_cycle_reference(scheme, dim, k, r0, max_cycles, stop):
    # the loop iterates the bath state and the columns are derived after it;
    # every column must match a loop that records each cycle as it goes
    ens = ReservoirEnsemble.from_ratio(k, r0, n_cold=4)
    trace = run_cycles(scheme, ens, n=3, dim=dim, seed=5, max_cycles=max_cycles)
    ref, ref_stop = _reference_cycles(scheme, ens, 3, dim, 5, max_cycles)
    assert trace.stop_reason == ref_stop == stop
    for name in TRACE_COLUMNS:
        got, want = getattr(trace, name), ref[name]
        assert isinstance(got, list) and len(got) == len(want)
        assert all(type(g) is type(w) for g, w in zip(got, want)), name
        if name in ("work", "entropy"):
            # np.log and math.log may differ in the last place
            assert all(abs(g - w) <= 1e-15 * abs(w) for g, w in zip(got, want)), name
        else:
            assert got == want, name
    # labels are references to two shared strings, not one string per cycle
    assert {id(b) for b in trace.branches} <= {id(label) for label in fridge._LABELS}


def test_trace_deterministic_given_seed():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    a = run_cycles("ico", ens, n=2, seed=8, max_cycles=50)
    b = run_cycles("ico", ens, n=2, seed=8, max_cycles=50)
    assert a.branches == b.branches
    assert a.r_cold == b.r_cold


def test_sampled_branch_frequencies_follow_probabilities():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.9, n_cold=1e12)  # quasi-static
    trace = run_cycles("ico", ens, n=2, seed=9, max_cycles=4000)
    p_c = fridge.branch_probabilities(2, 0.9)[0]
    freq = trace.branches.count("cooling") / len(trace.branches)
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
        ReservoirEnsemble.from_ratio(math.inf, 0.5)


def test_run_cycles_rejects_empty_budget():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    for max_cycles in (0, -3):
        with pytest.raises(ValueError, match="max_cycles"):
            run_cycles("ico", ens, n=2, max_cycles=max_cycles)


def test_point_validation():
    ens = ReservoirEnsemble.from_ratio(1.0, 0.5, n_cold=16)
    with pytest.raises(ValueError, match="unknown scheme"):
        fridge.branch_probabilities(2, 0.5, "bogus")
    with pytest.raises(ValueError, match="unknown scheme"):
        run_cycles("bogus", ens, n=2)
    with pytest.raises(ValueError, match="qubit"):
        cop(2, 3, 0.5, 0.5, 1.0, "traj")
    with pytest.raises(ValueError, match="qubit"):
        run_cycles("cswap", ens, n=2, dim=3)
    with pytest.raises(ValueError, match="two channels"):
        fridge.branch_probabilities(1, 0.5)
    with pytest.raises(ValueError, match="two channels"):
        run_cycles("ico", ens, n=1)
    with pytest.raises(ValueError, match="outside"):
        fridge.branch_probabilities(2, 0.0)
    with pytest.raises(ValueError, match="outside"):
        cop(2, 2, 1.5, 0.5, 1.0)
    with pytest.raises(ValueError, match="subnormal"):
        fridge.branch_probabilities(2, 1e-320)


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
        batch = fridge._branches("ico", n, dim, r, np.array(xs))[:4]
        for i, x in enumerate(xs):
            rho = degenerate_state(dim, x)
            ref = _measured(switch_closed_form(n, rho, t), n)
            got = fridge._branches("ico", n, dim, r, x)[:4]
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
            got = fridge._branches("traj", n, 2, r, x)[:4]
            assert max(abs(g - e) for g, e in zip(got, ref)) < 1e-12


def test_branch_kernel_guard_passes_input_through():
    # a heating branch of zero weight (only at r = 0, which callers reject)
    # leaves the input unchanged instead of dividing by zero
    assert fridge._branches("ico", 2, 2, 0.0, 0.0)[3] == 0.0
    assert fridge._branches("ico", 2, 2, 0.0, np.array([0.0, 0.3]))[3].tolist() == [0.0, 0.0]


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


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("ico", 3), ("cswap", 2), ("traj", 2)))
def test_branch_kernel_exact_at_small_ratios(scheme, dim):
    # g - m_g cancels as r -> 0; the kernel must keep every output's digits
    for n in (2, 5):
        for r in (1e-6, 1e-12, 1e-15, 1e-300):
            for x in (fridge._bath_energy(dim, r), 0.0, 0.5):
                got = fridge._branches(scheme, n, dim, r, x)
                ref = _exact_branches(scheme, n, dim, r, x)
                for value, exact in zip(got, ref):
                    assert abs(value - exact) <= 1e-12 * abs(exact)

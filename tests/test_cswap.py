from itertools import permutations

import numpy as np
import pytest

from icofridge import cswap, nswitch, qmat, thermal
from icofridge.cswap import cooling_reservoir_marginal, cooling_target_marginal, cswap_branches, cswap_energy_identity, cswap_evolve, cswap_populations, sequential_discard
from icofridge.measurement import build_basis
from icofridge.thermal import ThermalSpec


def gibbs(r):
    return thermal.gibbs_state(ThermalSpec.qubit(r))


def branches(n, r):
    return cswap_branches(cswap_evolve(n, r), build_basis(n))


def test_infinite_temperature_marginals():
    state = cswap_evolve(2, 1.0)
    for q in range(3):
        assert np.max(np.abs(state.qubit_marginal(q) - np.eye(2) / 2)) < 1e-14


def test_no_signalling_before_measurement():
    for n, r in ((2, 0.4), (4, 0.3), (6, 0.8)):
        state = cswap_evolve(n, r)
        t = gibbs(r)
        for q in range(n + 1):
            assert np.max(np.abs(state.qubit_marginal(q) - t)) < 1e-12


def test_cooling_target_matches_switch_branch():
    for n in (2, 3, 5, 6):
        for r in (0.1, 0.5, 0.9):
            (cool, p_c), _ = branches(n, r)
            stats = nswitch.branch_stats(n, ThermalSpec.qubit(r))
            assert abs(p_c - stats.p_c) < 1e-12
            assert np.max(np.abs(cool.qubit_marginal(0) - stats.rho_c)) < 1e-10


def test_two_reservoir_marginals_coincide():
    (cool, _), _ = branches(2, 0.4)
    assert np.max(np.abs(cool.qubit_marginal(1) - cool.qubit_marginal(0))) < 1e-12


def test_reservoir_marginal_closed_form():
    for n in (2, 3, 4, 5, 6):
        for r in (0.1, 0.5, 0.9):
            (cool, _), _ = branches(n, r)
            expected = cooling_reservoir_marginal(n, r)
            for q in range(1, n + 1):
                assert np.max(np.abs(cool.qubit_marginal(q) - expected)) < 1e-10


def test_heating_branch_target():
    for n in (2, 4):
        for r in (0.2, 0.9):
            _, (heat, p_h_tot) = branches(n, r)
            stats = nswitch.branch_stats(n, ThermalSpec.qubit(r))
            assert abs(p_h_tot - stats.p_heating_total) < 1e-12
            assert np.max(np.abs(heat.qubit_marginal(0) - stats.rho_h)) < 1e-10


def test_offdiagonal_term_classification():
    # of the N(N-1) control off-diagonal blocks, exactly 2(N-1) contribute a
    # T^3-shaped term to a given reservoir qubit; the rest are proportional
    # to the Gibbs state
    n, r = 5, 0.45
    state = cswap_evolve(n, r)
    t = gibbs(r)
    t3 = np.linalg.matrix_power(t, 3)
    tr3 = float(np.trace(t3).real)
    dims = (2,) * (n + 1)
    cubic = 0
    thermal_like = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            marg = qmat.partial_trace(state.block(i, j), dims, {1}) * n
            if np.max(np.abs(marg - t3)) < 1e-12:
                cubic += 1
            elif np.max(np.abs(marg - tr3 * t)) < 1e-12:
                thermal_like += 1
    assert cubic == 2 * (n - 1)
    assert cubic + thermal_like == n * (n - 1)


def test_energy_identity():
    for n, r in ((2, 0.4), (3, 0.5), (6, 0.1)):
        lhs, rhs = cswap_energy_identity(n, r)
        assert abs(lhs - rhs) < 1e-10
    lhs, rhs = cswap_energy_identity(2, 1.0)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


def test_tripling_of_total_heat():
    for n in (2, 3, 4, 5, 6):
        for r in (0.1, 0.5, 0.9):
            (cool, _), _ = branches(n, r)
            t_pop = r / (1 + r)
            total = sum(float(cool.qubit_marginal(q)[1, 1].real) - t_pop for q in range(n + 1))
            target = float(cool.qubit_marginal(0)[1, 1].real) - t_pop
            assert abs(total / target - 3.0) < 1e-9


def test_sequential_discard_marginal_invariance():
    n, r = 3, 0.5
    spec = ThermalSpec.qubit(r)
    (cool, _), _ = branches(n, r)
    initial = [float(cool.qubit_marginal(q)[1, 1].real) for q in range(n + 1)]
    t_pop = r / (1 + r)
    snaps = sequential_discard(cool, [2, 0, 3, 1], spec)
    for snap in snaps:
        for q in range(n + 1):
            want = t_pop if q in snap.discarded else initial[q]
            assert abs(snap.excited_populations[q] - want) < 1e-10


def test_sequential_discard_heat_total_and_tripling():
    n, r = 3, 0.5
    spec = ThermalSpec.qubit(r)
    (cool, _), _ = branches(n, r)
    t_pop = r / (1 + r)
    target_deficit = float(cool.qubit_marginal(0)[1, 1].real) - t_pop
    snaps = sequential_discard(cool, list(range(n + 1)), spec)
    assert abs(snaps[-1].cumulative_heat - 3 * target_deficit) < 1e-10


def test_sequential_discard_order_independent():
    n, r = 2, 0.35
    spec = ThermalSpec.qubit(r)
    (cool, _), _ = branches(n, r)
    totals = set()
    for order in permutations(range(n + 1)):
        snaps = sequential_discard(cool, list(order), spec)
        totals.add(round(snaps[-1].cumulative_heat, 12))
    assert len(totals) == 1


def test_sequential_discard_zero_heat_at_infinite_temperature():
    (cool, _), _ = branches(2, 1.0)
    snaps = sequential_discard(cool, [0, 1, 2], ThermalSpec.qubit(1.0))
    for snap in snaps:
        assert abs(snap.heat_released) < 1e-12


def test_sequential_discard_validation():
    (cool, _), _ = branches(2, 0.5)
    with pytest.raises(ValueError):
        sequential_discard(cool, [0, 0], ThermalSpec.qubit(0.5))
    state = cswap_evolve(2, 0.5)
    with pytest.raises(ValueError):
        sequential_discard(state, [0], ThermalSpec.qubit(0.5))


def test_snapshots_csv():
    (cool, _), _ = branches(2, 0.5)
    snaps = sequential_discard(cool, [0, 1], ThermalSpec.qubit(0.5))
    text = cswap.snapshots_to_csv(snaps)
    lines = text.strip().splitlines()
    assert lines[0] == "step,qubit,p_excited"
    assert len(lines) == 1 + 2 * 3


def test_ordered_circuit_equivalence():
    for r in (0.2, 0.6, 1.0):
        plain, ordered = cswap.ico_cswap_equivalent(r)
        assert np.max(np.abs(plain - ordered)) < 1e-12


def test_size_guard():
    with pytest.raises(ValueError):
        cswap_evolve(9, 0.5)
    with pytest.raises(ValueError, match="population guard"):
        cswap_populations(17, 0.5)
    with pytest.raises(ValueError, match="two channels"):
        cswap_populations(1, 0.5)
    p_c, p_h, cooling, heating = cswap_populations(16, 0.5)
    assert abs(p_c + p_h - 1.0) < 1e-12 and cooling.shape == heating.shape == (17,)


@pytest.mark.parametrize("n", range(2, 9))
def test_populations_match_dense_register(n):
    for r in (0.1, 0.5, 0.9, 1.0):
        (cool, p_c), (heat, p_h) = branches(n, r)
        got_c, got_h, cooling, heating = cswap_populations(n, r)
        assert abs(got_c - p_c) < 1e-14 and abs(got_h - p_h) < 1e-14
        for q in range(n + 1):
            assert abs(cooling[q] - cool.qubit_marginal(q)[1, 1].real) < 1e-14
            assert abs(heating[q] - heat.qubit_marginal(q)[1, 1].real) < 1e-14


def test_branch_requires_control():
    state = cswap_evolve(2, 0.5)
    (cool, _), _ = cswap_branches(state, build_basis(2))
    with pytest.raises(ValueError):
        cswap_branches(cool, build_basis(2))
    with pytest.raises(ValueError):
        cswap_branches(state, build_basis(3))

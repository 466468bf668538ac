import json
import math
import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from icofridge import cli, cswap, fridge, nswitch, qmat, thermal
from icofridge.cswap import cooling_reservoir_marginal, cooling_target_marginal, cswap_branches, cswap_energy_identity, cswap_evolve, cswap_populations, qubit_marginal, sequential_discard
from icofridge.measurement import build_basis, measure_control
from icofridge.thermal import ThermalSpec


def gibbs(r):
    return thermal.gibbs_state(ThermalSpec.qubit(r))


def branches(n, r):
    return cswap_branches(cswap_evolve(n, r))


def register_marginal(out, q):
    # qubit q of the pre-measurement register; subsystem 0 is the control
    n = out.control_dim
    return qmat.partial_trace(out.joint, (n,) + (2,) * (n + 1), {q + 1})


def test_infinite_temperature_marginals():
    state = cswap_evolve(2, 1.0)
    for q in range(3):
        assert np.max(np.abs(register_marginal(state, q) - np.eye(2) / 2)) < 1e-14


def test_no_signalling_before_measurement():
    for n, r in ((2, 0.4), (4, 0.3), (6, 0.8)):
        state = cswap_evolve(n, r)
        t = gibbs(r)
        for q in range(n + 1):
            assert np.max(np.abs(register_marginal(state, q) - t)) < 1e-12


def test_cooling_target_matches_switch_branch():
    for n in (2, 3, 5, 6):
        for r in (0.1, 0.5, 0.9):
            (cool, p_c), _ = branches(n, r)
            stats = nswitch.branch_stats(n, ThermalSpec.qubit(r))
            assert abs(p_c - stats.p_c) < 1e-12
            assert np.max(np.abs(qubit_marginal(cool, 0) - stats.rho_c)) < 1e-10


def test_two_reservoir_marginals_coincide():
    (cool, _), _ = branches(2, 0.4)
    assert np.max(np.abs(qubit_marginal(cool, 1) - qubit_marginal(cool, 0))) < 1e-12


def test_reservoir_marginal_closed_form():
    for n in (2, 3, 4, 5, 6):
        for r in (0.1, 0.5, 0.9):
            (cool, _), _ = branches(n, r)
            expected = cooling_reservoir_marginal(n, r)
            for q in range(1, n + 1):
                assert np.max(np.abs(qubit_marginal(cool, q) - expected)) < 1e-10


def test_heating_branch_target():
    for n in (2, 4):
        for r in (0.2, 0.9):
            _, (heat, p_h_tot) = branches(n, r)
            stats = nswitch.branch_stats(n, ThermalSpec.qubit(r))
            assert abs(p_h_tot - stats.p_heating_total) < 1e-12
            assert np.max(np.abs(qubit_marginal(heat, 0) - stats.rho_h)) < 1e-10


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
            total = sum(float(qubit_marginal(cool, q)[1, 1].real) - t_pop for q in range(n + 1))
            target = float(qubit_marginal(cool, 0)[1, 1].real) - t_pop
            assert abs(total / target - 3.0) < 1e-9


def test_sequential_discard_marginal_invariance():
    n, r = 3, 0.5
    spec = ThermalSpec.qubit(r)
    (cool, _), _ = branches(n, r)
    initial = [float(qubit_marginal(cool, q)[1, 1].real) for q in range(n + 1)]
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
    target_deficit = float(qubit_marginal(cool, 0)[1, 1].real) - t_pop
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
    with pytest.raises(ValueError, match=r"needs a qubit spec, got ThermalSpec\(dim=3, r=0\.5\)"):
        sequential_discard(cool, [0, 1, 2], ThermalSpec(3, 0.5))


def test_qubit_marginal_validation():
    # only a square 2^k x 2^k register with k >= 2 is accepted
    out = cswap_evolve(2, 0.5)
    for bad in (out, np.eye(2), np.eye(6), np.ones((4, 8)), np.ones(16), out.joint.tolist()):
        with pytest.raises(ValueError, match="2\\^k x 2\\^k"):
            qubit_marginal(bad, 0)
    assert np.array_equal(qubit_marginal(np.eye(4) / 4, 1), np.eye(2) / 2)


def test_ordered_circuit_equivalence():
    for r in (0.2, 0.6, 1.0):
        plain, ordered = cswap.ico_cswap_equivalent(r)
        assert np.max(np.abs(plain - ordered)) < 1e-12


def test_size_guard():
    with pytest.raises(ValueError):
        cswap_evolve(9, 0.5)
    with pytest.raises(ValueError, match=r"1001 reservoir qubits exceed the population guard \(n <= 1000\)"):
        cswap_populations(1001, 0.5)
    with pytest.raises(ValueError, match="two channels"):
        cswap_populations(1, 0.5)
    # r = 1 gives the largest class weights, up to C(1000, 500) ~ 2.7e299
    for r in (0.5, 1.0):
        p_c, p_h, cooling, heating = cswap_populations(1000, r)
        assert abs(p_c + p_h - 1.0) < 1e-12 and cooling.shape == heating.shape == (1001,)
        assert np.isfinite(cooling).all() and np.isfinite(heating).all()


@pytest.mark.parametrize("n", range(2, 9))
def test_populations_match_dense_register(n):
    for r in (0.1, 0.5, 0.9, 1.0):
        (cool, p_c), (heat, p_h) = branches(n, r)
        got_c, got_h, cooling, heating = cswap_populations(n, r)
        assert abs(got_c - p_c) < 1e-14 and abs(got_h - p_h) < 1e-14
        for q in range(n + 1):
            assert abs(cooling[q] - qubit_marginal(cool, q)[1, 1].real) < 1e-14
            assert abs(heating[q] - qubit_marginal(heat, q)[1, 1].real) < 1e-14


@pytest.mark.parametrize("n", (2, 3, 8, 16))
def test_populations_match_kernel_at_tiny_ratios(n):
    # no cancellation in either branch: the heating branch keeps its digits
    # where p_H is far below ALGEBRA_TOL, down to the smallest normal ratio
    step = fridge._kernel("cswap", n, 2)
    for r in (3e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-100, 2.3e-308):
        p_c, p_h, cooling, heating = cswap_populations(n, r)
        want_c, want_h, x_cool, x_heat, _ = step(r, thermal.excited_weight(2, r))
        assert p_h < qmat.ALGEBRA_TOL
        assert abs(p_h - (n - 1) * want_h) <= 3e-15 * (n - 1) * want_h, r
        assert abs(heating[0] - x_heat) <= 3e-15 * x_heat, r
        assert abs(cooling[0] - x_cool) <= 3e-15 * x_cool, r


@pytest.mark.parametrize("n", range(2, 6))
def test_evolve_matches_block_reference(n):
    # each control block S_i rho S_j built on its own, divided by N
    for r in (0.1, 0.5, 1.0):
        rho_q = qmat.kron_all([gibbs(r).real] * (n + 1))
        q = 1 << (n + 1)
        perms = [cswap._swap_permutation(n + 1, 0, k + 1) for k in range(n)]
        ref = np.zeros((n * q, n * q))
        for i in range(n):
            for j in range(n):
                ref[i * q : (i + 1) * q, j * q : (j + 1) * q] = rho_q[np.ix_(perms[i], perms[j])] / n
        out = cswap_evolve(n, r)
        assert isinstance(out, nswitch.SwitchOutput) and (out.control_dim, out.target_dim) == (n, q)
        assert out.joint.dtype == np.float64
        assert np.array_equal(out.joint, ref)


@pytest.mark.parametrize("r", (0.1, 0.37, 1.0))
def test_measurement_of_real_register_matches_complex_copy(r):
    out = cswap_evolve(4, r)
    as_complex = nswitch.SwitchOutput(out.joint.astype(complex), out.control_dim, out.target_dim)
    basis = build_basis(4)
    outcomes = zip(measure_control(out, basis), measure_control(as_complex, basis), strict=True)
    for got, want in outcomes:
        assert got.probability == want.probability and got.label == want.label
        assert np.array_equal(got.state, want.state)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_sequential_discard_populations_match_partial_trace(n):
    (cool, _), _ = branches(n, 0.3)
    spec = ThermalSpec.qubit(0.6)
    rho = cool
    for snap in sequential_discard(cool, [n, 0, 1], spec):
        rho = qmat.replace_subsystem(rho, (2,) * (n + 1), snap.discarded[-1], gibbs(0.6))
        for q in range(n + 1):
            marg = qmat.partial_trace(rho, (2,) * (n + 1), {q})
            assert abs(snap.excited_populations[q] - marg[1, 1].real) < 1e-14


def test_evolve_rejects_invalid_ratios():
    for r in (float("nan"), 0.0, 1.5, 1e-320):
        with pytest.raises(ValueError, match="ratio"):
            cswap_evolve(3, r)
    with pytest.raises(ValueError, match="two channels"):
        cswap_evolve(1, 0.5)


def exact_populations(n, r):
    """``cswap_populations``' class sums in rationals: (p_c, p_H, cooling,
    heating), each population pair (target, one reservoir). With r = p/q
    every class weight is an integer over q^(N+1), so the sums stay integers
    and one division per result cancels the common denominator."""
    p, q = Fraction(r).as_integer_ratio()
    cool, heat = [0, 0, 0], [0, 0, 0]  # branch weight, target and N x reservoir excitations
    for t in (0, 1):
        for w in range(n + 1):
            m = w if t else n - w
            rho = math.comb(n, w) * p ** (t + w) * q ** (n + 1 - t - w)
            for sums, pairs in ((cool, n + m * (m - 1)), (heat, n * (n - 1) - m * (m - 1))):
                sums[0] += rho * pairs
                sums[1] += t * rho * pairs
                sums[2] += w * rho * pairs
    norm = n * n * (p + q) ** (n + 1)
    return (
        Fraction(cool[0], norm),
        Fraction(heat[0], norm),
        (Fraction(cool[1], cool[0]), Fraction(cool[2], n * cool[0])),
        (Fraction(heat[1], heat[0]), Fraction(heat[2], n * heat[0])),
    )


@pytest.mark.parametrize(
    "n, r", [(n, r) for n in (20, 100) for r in (1e-6, 0.3, 0.999999, 1.0)] + [(20, 2.3e-308)]
)
def test_populations_match_exact_class_sums(n, r):
    p_c, p_h, cooling, heating = cswap_populations(n, r)
    want_c, want_h, (cool_t, cool_r), (heat_t, heat_r) = exact_populations(n, r)
    pairs = [(p_c, want_c), (p_h, want_h), (cooling[0], cool_t), (heating[0], heat_t)]
    pairs += [(got, cool_r) for got in cooling[1:]] + [(got, heat_r) for got in heating[1:]]
    for got, want in pairs:
        assert abs(Fraction(got) / want - 1) <= 4e-15, (got, float(want))


@pytest.mark.parametrize("n", (2, 20, 100))
def test_populations_over_a_ratio_array_equal_the_one_ratio_calls(n):
    # one call over the exact-class-sum test's ratios and the smallest normal
    # one; each row carries the same bits as that ratio's own call. At
    # n = 100, r = 2.3e-308 the target's cooling population is 2.3e-310, a
    # subnormal float spaced 2e-14 apart relative to it: there the bound is
    # taken relative to the smallest normal float
    rs = [1e-6, 0.3, 0.999999, 1.0, 2.3e-308]
    p_c, p_h, cooling, heating = cswap_populations(n, rs)
    assert p_c.shape == p_h.shape == (len(rs),) and cooling.shape == heating.shape == (len(rs), n + 1)
    for i, r in enumerate(rs):
        want_c, want_h, (cool_t, cool_r), (heat_t, heat_r) = exact_populations(n, r)
        pairs = [(p_c[i], want_c), (p_h[i], want_h), (cooling[i, 0], cool_t), (heating[i, 0], heat_t)]
        pairs += [(got, cool_r) for got in cooling[i, 1:]] + [(got, heat_r) for got in heating[i, 1:]]
        for got, want in pairs:
            assert abs(Fraction(float(got)) - want) <= 4e-15 * max(want, sys.float_info.min), (r, float(got), float(want))
        one = cswap_populations(n, r)
        assert [type(v) for v in one] == [float, float, np.ndarray, np.ndarray]
        assert one[2].shape == one[3].shape == (n + 1,) and one[2].dtype == one[3].dtype == np.float64
        row = [p_c[i], p_h[i], *cooling[i], *heating[i]]
        assert [float(v).hex() for v in row] == [float(v).hex() for v in [one[0], one[1], *one[2], *one[3]]], r


def test_population_rows_at_the_guard_equal_the_one_ratio_calls():
    # 31 ratios x 2 branches x 2002 classes run past numpy's 8192-element
    # reduction buffer
    rs = [0.01 + 0.03 * k for k in range(31)]
    rows = cswap_populations(1000, rs)
    for i, r in enumerate(rs):
        assert all(np.array_equal(got[i], one) for got, one in zip(rows, cswap_populations(1000, r), strict=True)), r


@pytest.mark.parametrize("n", (2, 17, 1000))
def test_binomial_row_equals_math_comb(n):
    # the recurrence's exact integers are math.comb's, so the populations'
    # float weights are too
    row = cswap._binomial_row(n)
    assert row == [math.comb(n, k) for k in range(n + 1)]
    assert all(type(c) is int for c in row)


def test_cli_rows_match_closed_forms_beyond_the_dense_register(capsys):
    # verify's cswap_marginals (1e-10) and cswap_tripling (1e-9 relative)
    # tolerances, at N the dense register and the old enumeration never reached
    argv = ["cswap", "--n-list", "17,100,1000", "--r-list", "0.1,0.5,0.9", "--format", "json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row[:2] for row in rows] == [[n, r] for n in (17, 100, 1000) for r in (0.1, 0.5, 0.9)]
    for n, r, p_c, p_h, target_cool, reservoir_cool, target_heat, ratio in rows:
        stats = nswitch.branch_stats(n, ThermalSpec.qubit(r))
        _, _, cooling, _ = cswap_populations(n, r)
        assert abs(p_c - stats.p_c) < 1e-10 and abs(p_h - stats.p_heating_total) < 1e-10
        assert abs(target_heat - stats.rho_h[1, 1].real) < 1e-10
        assert abs(target_cool - cooling_target_marginal(n, r)[1, 1].real) < 1e-10
        assert abs(cooling[0] - cooling_target_marginal(n, r)[1, 1].real) < 1e-10
        assert abs(reservoir_cool - cooling_reservoir_marginal(n, r)[1, 1].real) < 1e-10
        assert abs(cooling[1] - cooling_reservoir_marginal(n, r)[1, 1].real) < 1e-10
        assert abs(ratio / 3.0 - 1.0) < 1e-9

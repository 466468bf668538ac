import json
import math

import numpy as np
import pytest

from icofridge import fridge, nswitch, thermal
from icofridge.fridge import _bath_energy, _branches
from icofridge.demon import DemonConfig, analytic_transfer_fraction, expected_transfer_exact, heat_jump_scan, qubit_never_inverts, run_demon
from icofridge.thermal import ThermalSpec

SEED = 20260810


def test_hundred_reservoir_run():
    cfg = DemonConfig(particles=10_000, n=100, r=0.1, seed=SEED)
    rep = run_demon(cfg)
    assert abs(rep.initial_total_energy - 909.0909090909091) < 1e-9
    cooled = rep.cooled_count / cfg.particles
    assert abs(cooled - 0.75) < 0.02
    assert abs(rep.transferred_fraction - analytic_transfer_fraction(100, 2, 0.1)) < 0.03
    assert rep.cooled_count + rep.heated_count == cfg.particles


def test_two_reservoir_run():
    cfg = DemonConfig(particles=10_000, n=2, r=0.1, seed=SEED)
    rep = run_demon(cfg)
    analytic = analytic_transfer_fraction(2, 2, 0.1)
    assert abs(analytic - (1 - 0.1) / (2 * 1.1**2)) < 1e-12
    assert abs(rep.transferred_fraction - analytic) < 0.03


def test_analytic_fraction_values():
    assert analytic_transfer_fraction(2, 2, 1.0) == 0.0
    assert abs(analytic_transfer_fraction(100, 2, 0.1) - 0.736364) < 1e-6
    assert abs(analytic_transfer_fraction(100, 2, 0.01) - 0.960788) < 1e-6


def test_analytic_fraction_matches_weighted_energy():
    for n, dim, r in ((2, 2, 0.3), (10, 3, 0.2), (100, 2, 0.1)):
        spec = ThermalSpec.degenerate(dim, r)
        h = thermal.hamiltonian(spec)
        e0 = thermal.mean_energy(thermal.gibbs_state(spec), h)
        expected = nswitch.weighted_energy(n, dim, r)[0] / e0
        assert abs(analytic_transfer_fraction(n, dim, r) - expected) < 1e-12


def test_cooled_fraction_converges():
    for n, r in ((2, 0.3), (10, 0.6), (100, 0.9)):
        cfg = DemonConfig(particles=20_000, n=n, r=r, seed=99)
        rep = run_demon(cfg)
        stats = nswitch.branch_stats(n, ThermalSpec.qubit(r))
        band = 4 * math.sqrt(stats.p_c * (1 - stats.p_c) / cfg.particles)
        assert abs(rep.cooled_count / cfg.particles - stats.p_c) < band


def test_branch_states_match_switch_statistics():
    # single particle, forced branches via the two extreme draws
    cfg = DemonConfig(particles=200, n=3, r=0.4, seed=5)
    rep = run_demon(cfg)
    stats = nswitch.branch_stats(3, ThermalSpec.qubit(0.4))
    e_heat = float(stats.rho_h[1, 1].real)
    e_cool = float(stats.rho_c[1, 1].real)
    for energy, heated in zip(rep.final_energies, rep.heated):
        assert abs(energy - (e_heat if heated else e_cool)) < 1e-12


def test_multi_round_expected_transfer_invariant():
    for scheme in ("ico", "traj"):
        for n, r in ((2, 0.3), (100, 0.1)):
            one = expected_transfer_exact(n, 2, r, 1, scheme)
            for rounds in (2, 3, 5):
                assert abs(expected_transfer_exact(n, 2, r, rounds, scheme) - one) < 1e-10


def test_multi_round_spreads_distribution():
    base = DemonConfig(particles=20_000, n=100, r=0.1, seed=11)
    multi = DemonConfig(particles=20_000, n=100, r=0.1, rounds=8, seed=11)
    var1 = float(np.var(run_demon(base).final_energies))
    var8 = float(np.var(run_demon(multi).final_energies))
    assert var8 > var1


def test_seed_determinism_bit_identical():
    cfg = DemonConfig(particles=5000, n=10, r=0.2, rounds=3, seed=123)
    a, b = run_demon(cfg), run_demon(cfg)
    assert np.array_equal(a.final_energies, b.final_energies)
    assert np.array_equal(a.heated, b.heated)
    assert a.to_json() == b.to_json()


def test_heat_jump_inversions_at_many_reservoirs():
    cfg = DemonConfig(particles=10_000, n=100, r=0.33, rounds=10, seed=SEED)
    scan = heat_jump_scan(cfg)
    assert scan.ever_inverted_count >= 1
    assert scan.first_inversion_round == 2
    assert max(scan.max_energy_per_round) > 0.5


def test_heat_jump_never_at_two_reservoirs():
    for r in np.linspace(0.001, 0.999, 999):
        assert qubit_never_inverts(float(r))
    for r in (0.1, 0.33, 0.6, 0.9, 0.99):
        scan = heat_jump_scan(DemonConfig(particles=2000, n=2, r=r, rounds=10, seed=7))
        assert scan.ever_inverted_count == 0
        assert max(scan.max_energy_per_round) <= 0.5


def test_heat_jump_single_round_matches_run():
    # a thermal particle cannot overshoot in one pass; over ten rounds some do
    for rounds, inverts in ((1, False), (10, True)):
        cfg = DemonConfig(particles=1000, n=100, r=0.33, rounds=rounds, seed=42)
        scan = heat_jump_scan(cfg)
        rep = run_demon(cfg)
        assert np.array_equal(scan.report.final_energies, rep.final_energies)
        assert np.array_equal(scan.report.heated, rep.heated)
        assert scan.report.rounds_heated_count == rep.rounds_heated_count
        assert len(scan.max_energy_per_round) == rounds
        assert (scan.ever_inverted_count > 0) == inverts


def test_report_json_and_histogram():
    cfg = DemonConfig(particles=1000, n=2, r=0.2, seed=3)
    rep = run_demon(cfg)
    payload = json.loads(rep.to_json())
    assert payload["cooled_count"] + payload["heated_count"] == 1000
    assert abs(payload["transferred_fraction"] - rep.transferred_fraction) < 1e-15
    edges, c_counts, d_counts = rep.histogram(bins=50)
    assert len(edges) == 51
    assert int(c_counts.sum()) == rep.heated_count
    assert int(d_counts.sum()) == rep.cooled_count
    text = rep.histogram_csv()
    assert text.splitlines()[0] == "bin_left,bin_right,count_boxC,count_boxD"


def test_energy_conservation_in_expectation():
    # branch-averaged single-pass energy equals the reservoir energy
    x = np.array([0.37 / 1.37])
    _, p_h, x_cool, x_heat, _ = fridge._branches("ico", 5, 2, 0.37, x)
    p_heating = 4 * p_h
    avg = (1 - p_heating[0]) * x_cool[0] + p_heating[0] * x_heat[0]
    t_energy = 0.37 / 1.37
    assert abs(avg - t_energy) < 1e-14


def test_config_validation():
    with pytest.raises(ValueError):
        DemonConfig(particles=0, n=2, r=0.5)
    with pytest.raises(ValueError):
        DemonConfig(particles=1, n=1, r=0.5)
    with pytest.raises(ValueError):
        DemonConfig(particles=1, n=2, r=0.0)
    with pytest.raises(ValueError, match="subnormal"):
        DemonConfig(particles=1, n=2, r=1e-320)
    with pytest.raises(ValueError):
        DemonConfig(particles=1, n=2, r=0.5, scheme="cswap")
    with pytest.raises(ValueError):
        DemonConfig(particles=1, n=2, r=0.5, scheme="traj", dim=3)


def test_qudit_demon_runs():
    cfg = DemonConfig(particles=5000, n=10, r=0.05, dim=4, seed=17)
    rep = run_demon(cfg)
    stats = nswitch.qudit_branch_stats(10, 4, 0.05)
    band = 4 * math.sqrt(stats.p_c * (1 - stats.p_c) / cfg.particles)
    assert abs(rep.cooled_count / cfg.particles - stats.p_c) < band


def test_traj_demon_uses_damping_interference():
    cfg = DemonConfig(particles=4000, n=2, r=0.5, scheme="traj", seed=21)
    rep = run_demon(cfg)
    # heating branch of the trajectory fridge is maximally mixed
    heated_energy = rep.final_energies[rep.heated]
    assert np.all(np.abs(heated_energy - 0.5) < 1e-12)


def _reference_rounds(cfg):
    """Every particle's weight carried through the kernel, one draw of all
    rounds up front."""
    x = np.full(cfg.particles, _bath_energy(cfg.dim, cfg.r))
    draws = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.rounds, cfg.particles))
    for draw in draws:
        _, p_h, x_cool, x_heat, _ = _branches(cfg.scheme, cfg.n, cfg.dim, cfg.r, x)
        heated = draw < (cfg.n - 1) * p_h
        x = np.where(heated, x_heat, x_cool)
        yield x, heated


@pytest.mark.parametrize(
    "cfg",
    (
        DemonConfig(particles=5000, n=10, r=0.3, rounds=6, seed=1),
        DemonConfig(particles=3000, n=3, r=0.6, scheme="traj", rounds=8, seed=2),
        DemonConfig(particles=2000, n=4, r=0.2, dim=3, rounds=4, seed=3),
        # 2**12 histories outgrow 100 particles: the table is compacted
        DemonConfig(particles=100, n=100, r=0.33, rounds=12, seed=4),
        DemonConfig(particles=100, n=2, r=0.8, scheme="traj", rounds=12, seed=5),
    ),
)
def test_rounds_match_per_particle_reference(cfg):
    ref = list(_reference_rounds(cfg))
    rep, scan = run_demon(cfg), heat_jump_scan(cfg)
    for report in (rep, scan.report):
        assert np.array_equal(report.final_energies, ref[-1][0])
        assert np.array_equal(report.heated, ref[-1][1])
        assert report.rounds_heated_count == [int(np.count_nonzero(h)) for _, h in ref]
    assert scan.max_energy_per_round == [float(np.max(x)) for x, _ in ref]
    inverted = np.zeros(cfg.particles, dtype=bool)
    for (x, _), count in zip(ref, scan.inversion_count_per_round):
        new = (x > 0.5) & ~inverted
        inverted |= new
        assert count == int(np.count_nonzero(new))

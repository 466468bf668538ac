import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from icofridge import demon, fridge, nswitch, thermal
from icofridge.fridge import OperatingPoint, _kernel
from icofridge.demon import DemonConfig, expected_transfer_exact, heat_jump_scan, qubit_never_inverts, run_demon
from icofridge.thermal import ThermalSpec, excited_weight, inversion_weight

SEED = 20260810


def test_hundred_reservoir_run():
    cfg = DemonConfig(particles=10_000, n=100, r=0.1, seed=SEED)
    rep = run_demon(cfg)
    assert abs(rep.initial_total_energy - 909.0909090909091) < 1e-9
    cooled = rep.cooled_count / cfg.particles
    assert abs(cooled - 0.75) < 0.02
    assert abs(rep.transferred_fraction - expected_transfer_exact(100, 2, 0.1, 1)) < 0.03
    assert rep.cooled_count + rep.heated_count == cfg.particles


def test_two_reservoir_run():
    cfg = DemonConfig(particles=10_000, n=2, r=0.1, seed=SEED)
    rep = run_demon(cfg)
    analytic = expected_transfer_exact(2, 2, 0.1, 1)
    assert abs(analytic - (1 - 0.1) / (2 * 1.1**2)) < 1e-12
    assert abs(rep.transferred_fraction - analytic) < 0.03


def test_analytic_fraction_values():
    assert expected_transfer_exact(2, 2, 1.0, 1) == 0.0
    assert abs(expected_transfer_exact(100, 2, 0.1, 1) - 0.736364) < 1e-6
    assert abs(expected_transfer_exact(100, 2, 0.01, 1) - 0.960788) < 1e-6


def test_analytic_fraction_matches_weighted_energy():
    for n, dim, r in ((2, 2, 0.3), (10, 3, 0.2), (100, 2, 0.1)):
        spec = ThermalSpec.degenerate(dim, r)
        h = thermal.hamiltonian(spec)
        e0 = thermal.mean_energy(thermal.gibbs_state(spec), h)
        expected = OperatingPoint.at("ico", n, dim, r).weighted_energy / e0
        assert abs(expected_transfer_exact(n, dim, r, 1) - expected) < 1e-12


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
    assert a.rounds_heated_count == b.rounds_heated_count
    summary = ("cooled_count", "heated_count", "box_c_energy", "box_d_energy", "transferred_fraction")
    assert [getattr(a, name) for name in summary] == [getattr(b, name) for name in summary]


def test_heat_jump_inversions_at_many_reservoirs():
    cfg = DemonConfig(particles=10_000, n=100, r=0.33, rounds=10, seed=SEED)
    scan = heat_jump_scan(cfg)
    assert scan.ever_inverted_count >= 1
    assert scan.first_inversion_round == 2
    assert max(scan.max_energy_per_round) > 0.5


def test_heat_jump_never_at_two_reservoirs():
    for r in np.linspace(0.001, 0.999, 999):
        assert qubit_never_inverts(float(r))
    assert qubit_never_inverts(1.0)
    with pytest.raises(ValueError, match="outside"):
        qubit_never_inverts(0.0)
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
    assert rep.cooled_count + rep.heated_count == 1000
    edges, c_counts, d_counts = rep.histogram()
    assert len(edges) == 51
    assert int(c_counts.sum()) == rep.heated_count
    assert int(d_counts.sum()) == rep.cooled_count


def test_energy_conservation_in_expectation():
    # branch-averaged single-pass energy equals the reservoir energy
    x = np.array([0.37 / 1.37])
    _, p_h, x_cool, x_heat, _ = fridge._kernel("ico", 5, 2)(0.37, x)
    p_heating = 4 * p_h
    avg = (1 - p_heating[0]) * x_cool[0] + p_heating[0] * x_heat[0]
    t_energy = 0.37 / 1.37
    assert abs(avg - t_energy) < 1e-14


def test_config_validation():
    with pytest.raises(ValueError):
        DemonConfig(particles=0, n=2, r=0.5)
    with pytest.raises(ValueError, match="need at least two channels"):
        DemonConfig(particles=1, n=1, r=0.5)
    with pytest.raises(ValueError):
        DemonConfig(particles=1, n=2, r=0.0)
    with pytest.raises(ValueError, match="subnormal"):
        DemonConfig(particles=1, n=2, r=1e-320)
    with pytest.raises(ValueError):
        DemonConfig(particles=1, n=2, r=0.5, scheme="cswap")
    with pytest.raises(ValueError, match="defined for qubit working systems"):
        DemonConfig(particles=1, n=2, r=0.5, scheme="traj", dim=3)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        DemonConfig(particles=1, n=2, r=0.5, dim=1)


def test_qudit_demon_runs():
    cfg = DemonConfig(particles=5000, n=10, r=0.05, dim=4, seed=17)
    rep = run_demon(cfg)
    p_c = OperatingPoint.at("ico", 10, 4, 0.05).p_c
    band = 4 * math.sqrt(p_c * (1 - p_c) / cfg.particles)
    assert abs(rep.cooled_count / cfg.particles - p_c) < band


def test_traj_demon_uses_damping_interference():
    cfg = DemonConfig(particles=4000, n=2, r=0.5, scheme="traj", seed=21)
    rep = run_demon(cfg)
    # heating branch of the trajectory fridge is maximally mixed
    heated_energy = rep.final_energies[rep.heated]
    assert np.all(np.abs(heated_energy - 0.5) < 1e-12)


def _reference_rounds(cfg):
    """Every particle's weight carried through the kernel, one draw of all
    rounds up front."""
    x = np.full(cfg.particles, excited_weight(cfg.dim, cfg.r))
    draws = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.rounds, cfg.particles))
    for draw in draws:
        _, p_h, x_cool, x_heat, _ = _kernel(cfg.scheme, cfg.n, cfg.dim)(cfg.r, x)
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
        # rounds run in place over chunks of demon._CHUNK particles: two full
        # chunks and a short one, and a table compacted across two chunks
        DemonConfig(particles=2 * 65536 + 7, n=10, r=0.3, rounds=3, seed=10),
        DemonConfig(particles=65536 + 3, n=2, r=0.4, rounds=18, seed=11),
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
        new = (x > inversion_weight(cfg.dim)) & ~inverted
        inverted |= new
        assert count == int(np.count_nonzero(new))


def test_qutrit_inversion_starts_where_an_excited_level_outweighs_the_ground():
    # a maximally mixed qutrit holds 2/3 on its excited levels and inverts
    # nothing; a half-gap threshold counted all 2,000 particles
    mixed = heat_jump_scan(DemonConfig(particles=2000, n=10, r=1.0, dim=3, rounds=3, seed=7))
    assert mixed.inversion_count_per_round == [0, 0, 0]
    # at N = 3 the kernel rounds some r = 1 weights one ulp above 2/3
    assert heat_jump_scan(DemonConfig(particles=2000, n=3, r=1.0, dim=3, rounds=3, seed=7)).ever_inverted_count == 0
    # one pass from thermal cannot overshoot: a half-gap threshold counted
    # every heated particle
    one = heat_jump_scan(DemonConfig(particles=2000, n=10, r=0.5, dim=3, rounds=1, seed=7))
    assert (one.report.heated_count, one.inversion_count_per_round) == (1541, [0])
    # a cold qutrit that then heats at N = 100 does invert
    hot = heat_jump_scan(DemonConfig(particles=2000, n=100, r=0.6, dim=3, rounds=6, seed=7))
    assert hot.inversion_count_per_round == [0, 0, 0, 7, 8, 3]
    assert inversion_weight(2) == 0.5


def _dfs_transfer(n, dim, r, rounds, scheme):
    """Reference tree walk: one node per stack entry, one kernel call each."""
    e0 = excited_weight(dim, r)
    total = 0.0
    stack = [(0, 1.0, e0)]
    while stack:
        depth, prob, x = stack.pop()
        _, p_h, x_cool, x_heat, _ = _kernel(scheme, n, dim)(r, x)
        ph = (n - 1) * p_h
        if depth == rounds - 1:
            total += prob * ph * (x_heat - e0)
        else:
            stack.append((depth + 1, prob * ph, x_heat))
            stack.append((depth + 1, prob * (1.0 - ph), x_cool))
    return total / e0


@pytest.mark.parametrize("scheme, dim", (("ico", 2), ("ico", 3), ("traj", 2)))
def test_tree_levels_match_depth_first_reference(scheme, dim):
    for n, r in ((2, 0.3), (100, 0.1)):
        for rounds in range(1, 13):
            got = expected_transfer_exact(n, dim, r, rounds, scheme)
            assert abs(got - _dfs_transfer(n, dim, r, rounds, scheme)) <= 1e-13


def test_tree_is_independent_of_sampling(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use the sampled rounds it checks")

    monkeypatch.setattr(demon, "_rounds", forbidden)
    monkeypatch.setattr(demon, "run_demon", forbidden)
    assert abs(expected_transfer_exact(10, 2, 0.3, 6) - expected_transfer_exact(10, 2, 0.3, 1)) < 1e-10
    with pytest.raises(ValueError, match="rounds <= 16"):
        expected_transfer_exact(10, 2, 0.3, 17)


@pytest.mark.parametrize(
    "cfg",
    (
        DemonConfig(particles=3000, n=100, r=0.33, rounds=10, seed=6),
        DemonConfig(particles=50, n=10, r=0.2, rounds=9, seed=8),  # compacted table
        # 64 histories fit the 64-particle table uncompacted, and at r = 0.01
        # most of them, the hottest included, are held by no particle
        DemonConfig(particles=64, n=2, r=0.01, rounds=6, seed=9),
    ),
)
def test_heat_jump_matches_gathered_rounds(cfg):
    # the scan gathers each round's weights itself; so does this reference
    max_energy, inversions = [], []
    inverted = np.zeros(cfg.particles, dtype=bool)
    for table, code, _ in demon._rounds(cfg):
        x = table[code]
        new = (x > 0.5) & ~inverted
        inverted |= new
        max_energy.append(float(np.max(x)))
        inversions.append(int(np.count_nonzero(new)))
    scan = heat_jump_scan(cfg)
    assert scan.max_energy_per_round == max_energy
    assert scan.inversion_count_per_round == inversions


def test_rounds_hold_no_per_particle_temporaries():
    # code (1 B at 4 rounds, uint8) and heated (1 B) are updated in place and
    # the report gathers the final weights (8 B): 10.3 B per particle, where
    # intp codes held 17 B. A round that builds its draws, gathered
    # probabilities and next codes whole peaks above 26 B. From 19 rounds the
    # history table outgrows the sample. Running the kernel one chunk of the
    # table at a time and compacting with a held mask and a rank remap peaks
    # at 67 B at 19 and 24 rounds with uint32 codes (71 B with intp codes);
    # the kernel on the whole table (about 11 table-sized temporaries)
    # followed by np.unique peaked at 107 and 112 B
    run_demon(DemonConfig(particles=10, n=10, r=0.3, rounds=4))  # first-call allocations
    for rounds, bytes_per_particle in ((4, 11), (19, 68), (24, 68)):
        cfg = DemonConfig(particles=2**18, n=10, r=0.3, rounds=rounds, seed=12)
        assert demon._CHUNK < cfg.particles
        tracemalloc.start()
        try:
            run_demon(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bytes_per_particle * cfg.particles, rounds


def test_heat_jump_scan_drops_each_rounds_weights():
    # the scan gathers each round's weights (8 B per particle) and its new
    # inversions (1 B) and drops both before the next round runs: 68 B at 24
    # rounds and 15 B at 4, against run_demon's 67 and 10.3 (72 and 22 B
    # with intp codes). Holding them into the next round peaked at 81 and
    # 29 B with intp codes
    heat_jump_scan(DemonConfig(particles=10, n=10, r=0.3, rounds=4))  # first-call allocations
    for rounds, bytes_per_particle in ((4, 16), (24, 69)):
        cfg = DemonConfig(particles=2**18, n=10, r=0.3, rounds=rounds, seed=12)
        tracemalloc.start()
        try:
            heat_jump_scan(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_particle * cfg.particles, rounds


# per-round heated counts of DemonConfig(2**18, n=10, r=0.3, seed=12); the
# 19-round run's are the first 19
_ICO_COUNTS = [
    125900, 124944, 125015, 125975, 125810, 125826, 125621, 125689,
    126139, 125882, 126098, 126081, 125865, 125364, 125615, 125604,
    125580, 125382, 125358, 125028, 125185, 125406, 125757, 125680,
]  # fmt: skip


@pytest.mark.parametrize(
    "cfg, counts, digest",
    (
        (
            DemonConfig(particles=2**18, n=10, r=0.3, rounds=19, seed=12),
            _ICO_COUNTS[:19],
            "81f4dba7556704644642da6bb17135e2ef450df21a777474d452a834f48172e8",
        ),
        (
            DemonConfig(particles=2**18, n=10, r=0.3, rounds=24, seed=12),
            _ICO_COUNTS,
            "bb37a4c5368e2da260ca35d0a6185554d08935eaed2594aa611daa3676a7e614",
        ),
        (
            DemonConfig(particles=200_000, n=2, r=0.4, scheme="traj", rounds=20, seed=7),
            [
                40819, 40728, 40931, 40798, 40977, 40557, 40907, 41045, 40633, 40984,
                40671, 41023, 40797, 40952, 40928, 41125, 40986, 40728, 40801, 40828,
            ],
            "54d93925b147f396827c25aacd00dab9149e11e8911178789e1dd4bf698fa29a",
        ),
    ),
)
def test_compacting_runs_are_pinned(cfg, counts, digest):
    # recorded when compaction still ran np.unique on the whole table: the
    # chunked kernel and mask compaction must reproduce every bit of the
    # final energies and boxes
    rep = run_demon(cfg)
    assert rep.rounds_heated_count == counts
    got = hashlib.sha256(rep.final_energies.astype("<f8").tobytes() + rep.heated.tobytes())
    assert got.hexdigest() == digest


def _intp_rounds(cfg):
    """``demon._rounds`` with intp codes and remap, as it was written before
    the codes were narrowed; also yields the largest code a round reached
    before its compaction."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    step = _kernel(cfg.scheme, cfg.n, cfg.dim)
    table = np.array([excited_weight(cfg.dim, cfg.r)])
    code = np.zeros(cfg.particles, dtype=np.intp)
    for _ in range(cfg.rounds):
        _, p_h, x_cool, x_heat, _ = step(cfg.r, table)
        table = np.column_stack((x_cool, x_heat)).ravel()
        heated = rng.random(cfg.particles) < (cfg.n - 1) * p_h[code]
        code = 2 * code + heated
        largest = int(code.max())
        if table.size > cfg.particles:
            held = np.zeros(table.size, dtype=bool)
            held[code] = True
            code = np.cumsum(held)[code] - 1
            table = table[held]
        yield table, code, heated, largest


@pytest.mark.parametrize(
    "particles, rounds, dtype, largest",
    (
        (1000, 8, np.uint8, 255),  # 2**8 histories, none compacted
        (128, 8, np.uint8, 255),  # 256 histories compacted to the sample
        (128, 10, np.uint8, 255),
        (70_000, 16, np.uint16, 65_535),  # more particles than one chunk
        (32_768, 16, np.uint16, 65_535),
        (32_768, 20, np.uint16, 65_535),
        (131_072, 17, np.uint32, 131_071),  # codes past the uint16 maximum
        (70_000, 17, np.uint32, 131_071),
    ),
)
def test_narrow_codes_at_each_dtype_edge_equal_intp_codes(particles, rounds, dtype, largest):
    # at r = 0.9, D = 3 and N = 100 a particle heats with probability 0.88,
    # so some particle heats in every round and its code reaches the
    # largest history, 2**rounds - 1 or 2 * particles - 1: the dtype's
    # maximum for uint8 and uint16. uint32's cannot be reached at a test's
    # size, so its cases are the first codes uint16 cannot hold
    cfg = DemonConfig(particles=particles, n=100, r=0.9, dim=3, rounds=rounds, seed=3)
    assert all(code.dtype == dtype for _, code, _ in demon._rounds(cfg))
    wide = list(_intp_rounds(cfg))
    assert max(seen for *_, seen in wide) == largest
    table, code, heated, _ = wide[-1]
    rep = run_demon(cfg)
    assert rep.final_energies.dtype == np.float64 and rep.heated.dtype == bool
    assert np.array_equal(rep.final_energies, table[code]) and np.array_equal(rep.heated, heated)
    assert rep.rounds_heated_count == [int(np.count_nonzero(h)) for _, _, h, _ in wide]

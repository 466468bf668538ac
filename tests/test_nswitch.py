
import numpy as np
import pytest

from icofridge import channels, nswitch, thermal
from icofridge.fridge import OperatingPoint
from icofridge.nswitch import OrderSet, branch_stats, switch_bruteforce, switch_closed_form
from icofridge.qmat import dagger
from icofridge.thermal import ThermalSpec


def gibbs(r, dim=2):
    return thermal.gibbs_state(ThermalSpec.degenerate(dim, r))


def matpow(t, k):
    return np.linalg.matrix_power(t, k)


def is_latin_square(oset):
    """True when every channel occupies every sequence position once."""
    labels = list(range(1, oset.n_channels + 1))
    return oset.n_orders == oset.n_channels and all(sorted(c) == labels for c in zip(*oset.orders))


# ---------------------------------------------------------------------------
# order sets
# ---------------------------------------------------------------------------


def test_cyclic_order_set():
    oset = OrderSet.cyclic(4)
    assert oset.orders == ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))
    assert is_latin_square(oset)


def test_order_set_validation():
    with pytest.raises(ValueError):
        OrderSet(orders=((1, 2), (2, 2)))
    with pytest.raises(ValueError):
        OrderSet(orders=())
    with pytest.raises(ValueError, match="^need at least two channels$"):
        OrderSet.cyclic(1)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_closed_form_two_channels_structure():
    r = 0.3
    t = gibbs(r)
    out = switch_closed_form(2, t, t)
    t3 = matpow(t, 3)
    assert np.max(np.abs(out.block(0, 0) - t / 2)) < 1e-15
    assert np.max(np.abs(out.block(1, 1) - t / 2)) < 1e-15
    assert np.max(np.abs(out.block(0, 1) - t3 / 2)) < 1e-15
    assert np.max(np.abs(out.block(1, 0) - t3 / 2)) < 1e-15


def test_closed_form_validation():
    t = gibbs(0.5)
    with pytest.raises(ValueError, match=r"^dimension mismatch: \(3, 3\) vs \(2, 2\)$"):
        switch_closed_form(2, np.eye(3) / 3, t)
    with pytest.raises(ValueError, match="^need at least two channels$"):
        switch_closed_form(1, t, t)


def test_closed_form_three_channels_offdiagonals():
    t = gibbs(0.5)
    out = switch_closed_form(3, t, t)
    t3 = matpow(t, 3)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.max(np.abs(out.block(i, j) - t3 / 3)) < 1e-15


def test_closed_form_maximally_mixed():
    t = np.eye(2, dtype=complex) / 2
    out = switch_closed_form(4, t, t)
    for i in range(4):
        for j in range(4):
            want = t / 4 if i == j else np.eye(2) / 8 / 4
            assert np.max(np.abs(out.block(i, j) - want)) < 1e-15


def test_closed_form_unit_trace_hermitian():
    t = gibbs(0.2)
    out = switch_closed_form(5, t, t)
    assert abs(np.trace(out.joint).real - 1.0) < 1e-14
    assert np.max(np.abs(out.joint - dagger(out.joint))) < 1e-14


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_bruteforce_matches_closed_form(n, dim, r):
    spec = ThermalSpec.degenerate(dim, r)
    t = thermal.gibbs_state(spec)
    bf = switch_bruteforce(OrderSet.cyclic(n), t, spec)
    cf = switch_closed_form(n, t, t)
    assert np.max(np.abs(bf.joint - cf.joint)) < 1e-10


def test_bruteforce_arbitrary_working_state():
    rng = np.random.default_rng(0)
    spec = ThermalSpec.qubit(0.35)
    t = thermal.gibbs_state(spec)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ dagger(m)
    rho /= np.trace(rho).real
    bf = switch_bruteforce(OrderSet.cyclic(3), rho, spec)
    cf = switch_closed_form(3, rho, t)
    assert np.max(np.abs(bf.joint - cf.joint)) < 1e-10


def test_bruteforce_reproduces_two_channel_form():
    spec = ThermalSpec.qubit(0.3)
    t = thermal.gibbs_state(spec)
    out = switch_bruteforce(OrderSet(orders=((1, 2), (2, 1))), t, spec)
    t3 = matpow(t, 3)
    assert np.max(np.abs(out.block(0, 1) - t3 / 2)) < 1e-12


def test_bruteforce_diagonal_blocks_fully_thermalized():
    spec = ThermalSpec.qubit(0.45)
    rng = np.random.default_rng(1)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ dagger(m)
    rho /= np.trace(rho).real
    t = thermal.gibbs_state(spec)
    out = switch_bruteforce(nswitch.noncyclic_order_set(3), rho, spec)
    for i in range(3):
        assert np.max(np.abs(out.block(i, i) - t / 3)) < 1e-12


def test_noncyclic_three_channels_gives_t_cubed():
    for r in (0.3, 0.8):
        spec = ThermalSpec.qubit(r)
        t = thermal.gibbs_state(spec)
        out = switch_bruteforce(nswitch.noncyclic_order_set(3), t, spec)
        assert nswitch.offdiagonal_blocks_equal(out)
        t3 = matpow(t, 3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.max(np.abs(out.block(i, j) - t3 / 3)) < 1e-10


def test_noncyclic_four_channels_gives_t_fifth():
    for r in (0.3, 0.7):
        spec = ThermalSpec.qubit(r)
        t = thermal.gibbs_state(spec)
        out = switch_bruteforce(nswitch.noncyclic_order_set(4), t, spec)
        assert nswitch.offdiagonal_blocks_equal(out)
        t5 = matpow(t, 5)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert np.max(np.abs(out.block(i, j) - t5 / 4)) < 1e-10


def test_latin_square_offdiagonals_pairwise_equal():
    # the pinned order-set families yield one common off-diagonal block
    # (not every Latin square does; see noncyclic_order_set)
    spec = ThermalSpec.qubit(0.6)
    t = thermal.gibbs_state(spec)
    for oset in (OrderSet.cyclic(3), nswitch.noncyclic_order_set(3), nswitch.noncyclic_order_set(4)):
        assert is_latin_square(oset)
        out = switch_bruteforce(oset, t, spec)
        assert nswitch.offdiagonal_blocks_equal(out)


def test_noncyclic_order_set_sizes():
    with pytest.raises(ValueError, match=r"^explicit non-cyclic sets are provided for n in \{3, 4\} only$"):
        nswitch.noncyclic_order_set(5)


def test_repeated_order_breaks_offdiagonal_uniformity():
    # two branches in one order compose the channel twice (block T), two in
    # opposite orders interfere (block T^3), so the blocks differ below r = 1
    spec = ThermalSpec.qubit(0.4)
    t = thermal.gibbs_state(spec)
    out = switch_bruteforce(OrderSet(orders=((1, 2), (2, 1), (1, 2))), t, spec)
    assert np.max(np.abs(out.block(0, 1) - matpow(t, 3) / 3)) < 1e-12
    assert np.max(np.abs(out.block(0, 2) - t / 3)) < 1e-12
    assert not nswitch.offdiagonal_blocks_equal(out)


def test_offdiagonal_blocks_equal_fails_on_nan_and_passes_one_order():
    spec = ThermalSpec.qubit(0.4)
    t = thermal.gibbs_state(spec)
    assert nswitch.offdiagonal_blocks_equal(switch_closed_form(3, t, t))
    # one NaN entry, in the reference block <0|.|1> or in another one
    for i, j in ((0, 1), (2, 1)):
        bad = nswitch.SwitchOutput(joint=switch_closed_form(3, t, t).joint, control_dim=3, target_dim=2)
        bad.blocks[i, 0, j, 1] = np.nan
        assert not nswitch.offdiagonal_blocks_equal(bad)
    one = switch_bruteforce(OrderSet(orders=((1, 2),)), t, spec)
    assert one.control_dim == 1 and nswitch.offdiagonal_blocks_equal(one)


def test_blocks_is_a_view_of_the_joint():
    t = gibbs(0.3, 3)
    out = switch_closed_form(4, t, np.eye(3) / 3)
    assert out.blocks.shape == (4, 3, 4, 3) and np.shares_memory(out.blocks, out.joint)
    for i, j in ((0, 0), (1, 3), (3, 2)):
        assert np.array_equal(out.block(i, j), out.joint[3 * i : 3 * i + 3, 3 * j : 3 * j + 3])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("real", [True, False])
def test_closed_form_is_byte_identical_to_kron_reference(dim, n, real):
    rng = np.random.default_rng(100 * dim + 10 * n + real)
    t = gibbs(0.3, dim)
    m = rng.normal(size=(dim, dim)) + (0 if real else 1j * rng.normal(size=(dim, dim)))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    ref = (np.kron(np.eye(n), t) + np.kron(np.ones((n, n)) - np.eye(n), t @ rho @ t)) / n
    joint = switch_closed_form(n, rho, t).joint
    assert joint.dtype == ref.dtype and joint.shape == ref.shape and joint.tobytes() == ref.tobytes()


def test_bruteforce_budget_guard():
    spec = ThermalSpec.qubit(0.5)
    t = thermal.gibbs_state(spec)
    with pytest.raises(ValueError, match="^enumeration of 16777216 Kraus tuples exceeds budget 1000000$"):
        switch_bruteforce(OrderSet.cyclic(12), t, spec)


def test_bruteforce_rejects_wrong_state_shape():
    spec = ThermalSpec.qubit(0.5)
    with pytest.raises(ValueError, match="does not match dim 2"):
        switch_bruteforce(OrderSet.cyclic(2), np.eye(3) / 3, spec)


def _random_state(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ dagger(m)
    return rho / np.trace(rho).real


def _bruteforce_reference(orderset, rho, spec):
    """Every tuple's products at once, then one einsum per pair of branches."""
    d, n, m = spec.dim, orderset.n_channels, orderset.n_orders
    n_ops = d * d
    kraus = np.stack(channels.thermalizing_kraus(spec).operators)
    flat = np.arange(n_ops**n)
    # tuple digit j = channel j+1's Kraus index, base d^2, most significant first
    digits = (flat[:, None] // n_ops ** np.arange(n - 1, -1, -1)[None, :]) % n_ops
    prods = []
    for order in orderset.orders:
        p = kraus[digits[:, order[0] - 1]]
        for label in order[1:]:
            p = p @ kraus[digits[:, label - 1]]
        prods.append(p)
    joint = np.zeros((m * d, m * d), dtype=complex)
    for i in range(m):
        left = prods[i] @ rho
        for j in range(m):
            joint[i * d : (i + 1) * d, j * d : (j + 1) * d] = np.einsum("tab,tcb->ac", left, prods[j].conj()) / m
    return joint


@pytest.mark.parametrize(
    "oset, dim",
    [
        (OrderSet.cyclic(7), 2),  # 4 chunks
        (OrderSet.cyclic(4), 3),  # 9 chunks
        (OrderSet.cyclic(3), 4),
        (nswitch.noncyclic_order_set(4), 2),
        (OrderSet(orders=((1, 2, 3), (3, 2, 1))), 3),
        (OrderSet(orders=((2, 3, 1),)), 2),
    ],
    ids=["cyclic7-d2", "cyclic4-d3", "cyclic3-d4", "noncyclic4-d2", "two-orders-d3", "one-order-d2"],
)
def test_bruteforce_matches_per_pair_reference(oset, dim):
    rng = np.random.default_rng(11)
    spec = ThermalSpec.degenerate(dim, 0.37)
    rho = _random_state(rng, dim)
    got = switch_bruteforce(oset, rho, spec)
    assert (got.control_dim, got.target_dim) == (oset.n_orders, dim)
    assert np.max(np.abs(got.joint - _bruteforce_reference(oset, rho, spec))) < 1e-12


def test_bruteforce_nine_channels_matches_closed_form():
    # 4**9 = 262,144 tuples in 64 chunks
    rng = np.random.default_rng(12)
    spec = ThermalSpec.qubit(0.4)
    rho = _random_state(rng, 2)
    bf = switch_bruteforce(OrderSet.cyclic(9), rho, spec)
    cf = switch_closed_form(9, rho, thermal.gibbs_state(spec))
    assert np.max(np.abs(bf.joint - cf.joint)) < 1e-10


# ---------------------------------------------------------------------------
# branch statistics
# ---------------------------------------------------------------------------


def test_branch_probability_hot_limit():
    stats = branch_stats(2, ThermalSpec.qubit(1.0))
    assert abs(stats.p_heating_total - 0.375) < 1e-15


def test_infinite_temperature_branches_are_maximally_mixed():
    for n in (2, 5):
        stats = branch_stats(n, ThermalSpec.qubit(1.0))
        assert np.max(np.abs(stats.rho_h - np.eye(2) / 2)) < 1e-15
        assert np.max(np.abs(stats.rho_c - np.eye(2) / 2)) < 1e-15
        assert abs(OperatingPoint.at("ico", n, 2, 1.0).weighted_energy) < 1e-15


def test_many_reservoirs_low_temperature():
    # direct trace evaluation: p_H = 0.99 * tr(T - T^3) at r = 0.1
    stats = branch_stats(100, ThermalSpec.qubit(0.1))
    t = gibbs(0.1)
    expected = 0.99 * float(np.trace(t - matpow(t, 3)).real)
    assert abs(stats.p_heating_total - expected) < 1e-14
    assert abs(stats.p_heating_total - 0.245455) < 1e-6
    assert abs(stats.p_c - 0.754545) < 1e-6


def test_probability_closure_across_grid():
    for n in (2, 3, 10, 100):
        for r in (0.05, 0.5, 1.0):
            stats = branch_stats(n, ThermalSpec.qubit(r))
            assert abs(stats.p_c + (n - 1) * stats.p_h - 1.0) < 1e-12


def test_heating_branch_independent_of_n():
    for r in (0.1, 0.5, 0.9):
        spec = ThermalSpec.qubit(r)
        ref = branch_stats(2, spec).rho_h
        for n in (3, 10, 1000):
            assert np.max(np.abs(branch_stats(n, spec).rho_h - ref)) < 1e-12


def test_branch_stats_needs_degenerate_spec():
    with pytest.raises(ValueError, match="two channels"):
        branch_stats(1, ThermalSpec.qubit(0.5))


def test_qudit_low_temperature_asymptote():
    r = 1e-4
    stats = branch_stats(2, ThermalSpec.degenerate(3, r))
    approx = 3 * (2 - 1) / 2 * (3 - 1) * r
    assert abs(stats.p_heating_total / approx - 1.0) < 0.01


def test_qudit_improvement_factor():
    r = 1e-4
    base = OperatingPoint.at("ico", 2, 2, r).weighted_energy
    for dim, n in ((3, 2), (5, 10), (10, 2)):
        factor = OperatingPoint.at("ico", n, dim, r).weighted_energy / base
        ideal = 2 * (dim - 1) * (n - 1) / n
        assert abs(factor / ideal - 1.0) < 0.05


def test_weighted_energy_value():
    # r(1-r) / (2 (1+r)^3) at r = 0.5 is 1/27
    de_h = OperatingPoint.at("ico", 2, 2, 0.5).weighted_energy
    assert abs(de_h - 1.0 / 27.0) < 1e-15


def test_weighted_energy_doubling():
    for r in (0.1, 0.3, 0.5):
        many, two = (OperatingPoint.at("ico", n, 2, r).weighted_energy for n in (10**6, 2))
        ratio = many / two
        assert 1.99 <= ratio <= 2.0


def test_switch_output_marginals():
    # control marginal is uniform, target marginal is the Gibbs state: the
    # switch moves no energy on average, only the measurement sorts it
    from icofridge import qmat

    for n, r in ((2, 0.3), (4, 0.8)):
        t = gibbs(r)
        out = switch_closed_form(n, t, t)
        target = qmat.partial_trace(out.joint, (n, 2), {1})
        assert np.max(np.abs(target - t)) < 1e-12
        control = qmat.partial_trace(out.joint, (n, 2), {0})
        assert np.max(np.abs(np.diag(control) - 1.0 / n)) < 1e-12


def test_energy_bookkeeping_from_branches():
    # branch-averaged working-system energy equals the thermal input energy
    for n in (2, 4):
        for r in (0.2, 0.7):
            spec = ThermalSpec.qubit(r)
            stats = branch_stats(n, spec)
            h = thermal.hamiltonian(spec)
            avg = stats.p_c * thermal.mean_energy(stats.rho_c, h) + stats.p_heating_total * thermal.mean_energy(stats.rho_h, h)
            assert abs(avg - thermal.mean_energy(gibbs(r), h)) < 1e-12

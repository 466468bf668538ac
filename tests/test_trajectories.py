import numpy as np
import pytest

from icofridge import channels, nswitch, thermal, trajectories
from icofridge.qmat import dagger
from icofridge.thermal import ThermalSpec
from icofridge.trajectories import TrajectoryConfig, canonical_config, dilation_oracle, traj_branches, traj_output


def gibbs(r):
    return thermal.gibbs_state(ThermalSpec.qubit(r))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_closed_form_matches_dilation(n, r):
    spec = ThermalSpec.qubit(r)
    cfg = canonical_config(n, spec)
    t = gibbs(r)
    a = traj_output(cfg, t)
    b = dilation_oracle(cfg, t)
    assert np.max(np.abs(a.joint - b.joint)) < 1e-10


def test_dilation_certifies_half_interference():
    # the canonical implementation interferes with A rho A^dag / 2, not
    # A rho A^dag: the dilation fixes the scale
    r = 0.5
    spec = ThermalSpec.qubit(r)
    t = gibbs(r)
    out = dilation_oracle(canonical_config(2, spec), t)
    a = np.sqrt(t)
    assert np.max(np.abs(out.block(0, 1) * 2 - 0.5 * a @ t @ a)) < 1e-12
    assert np.max(np.abs(out.block(0, 1) * 2 - a @ t @ a)) > 1e-3


def test_closed_form_random_config():
    rng = np.random.default_rng(7)
    spec = ThermalSpec.qubit(0.37)
    kraus = channels.thermalizing_kraus(spec)
    overlaps = []
    for scale in (1.3, 1.0):
        o = rng.normal(size=4) + 1j * rng.normal(size=4)
        o /= np.linalg.norm(o) * scale
        overlaps.append(tuple(o))
    cfg = TrajectoryConfig(n=2, kraus=kraus, env_overlaps=tuple(overlaps))
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ dagger(m)
    rho /= np.trace(rho).real
    assert np.max(np.abs(traj_output(cfg, rho).joint - dilation_oracle(cfg, rho).joint)) < 1e-12


def test_zero_overlap_no_interference():
    spec = ThermalSpec.qubit(0.4)
    kraus = channels.thermalizing_kraus(spec)
    cfg = TrajectoryConfig(n=3, kraus=kraus, env_overlaps=((0.0,) * 4,) * 3)
    t = gibbs(0.4)
    out = traj_output(cfg, t)
    for i in range(3):
        for j in range(3):
            want = t / 3 if i == j else np.zeros((2, 2))
            assert np.max(np.abs(out.block(i, j) - want)) < 1e-14
    assert np.max(np.abs(out.joint - dilation_oracle(cfg, t).joint)) < 1e-12
    stats = traj_branches(cfg, spec)
    assert abs(stats.p_c - 1.0 / 3.0) < 1e-12
    assert abs(stats.p_h - 1.0 / 3.0) < 1e-12
    assert np.max(np.abs(stats.rho_c - t)) < 1e-12


def test_output_differs_from_causal_order_switch():
    # superposing which channel acts is not superposing their order
    r = 0.5
    t = gibbs(r)
    traj = traj_output(canonical_config(2, ThermalSpec.qubit(r)), t)
    ico = nswitch.switch_closed_form(2, t, t)
    assert np.max(np.abs(traj.joint - ico.joint)) > 1e-3


def test_unit_trace():
    spec = ThermalSpec.qubit(0.3)
    out = traj_output(canonical_config(3, spec), gibbs(0.3))
    assert abs(np.trace(out.joint).real - 1.0) < 1e-12


def test_branch_statistics_consistency():
    for n in (2, 3):
        for r in (0.1, 0.6):
            spec = ThermalSpec.qubit(r)
            cfg = canonical_config(n, spec)
            stats = traj_branches(cfg, spec)
            assert abs(stats.p_c + (n - 1) * stats.p_h - 1.0) < 1e-12
            # cross-check probabilities against the dilation route
            dil = dilation_oracle(cfg, gibbs(r))
            from icofridge.measurement import build_basis, measure_control

            outcomes = measure_control(dil, build_basis(n))
            assert abs(outcomes[0].probability - stats.p_c) < 1e-12
            eigs = np.linalg.eigvalsh(stats.rho_h)
            assert eigs.min() > -1e-10


def test_infinite_temperature_heating_branch_is_maximally_mixed():
    spec = ThermalSpec.qubit(1.0)
    stats = traj_branches(canonical_config(2, spec), spec)
    assert np.max(np.abs(stats.rho_h - np.eye(2) / 2)) < 1e-12


def test_obtainability_of_canonical_matrices():
    for r in np.linspace(0.05, 1.0, 20):
        spec = ThermalSpec.qubit(float(r))
        for tm in canonical_config(2, spec).transformation_matrices():
            assert tm.obtainable
            assert tm.bound <= 0.5 + 1e-12


def test_mismatched_heating_branches_rejected():
    spec = ThermalSpec.qubit(0.5)
    kraus = channels.thermalizing_kraus(spec)
    cfg = TrajectoryConfig(
        n=3,
        kraus=kraus,
        env_overlaps=((1.0, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, 1.0, 0)),
    )
    with pytest.raises(ValueError):
        traj_branches(cfg, spec)


def test_nan_kraus_entry_is_rejected_not_returned():
    spec = ThermalSpec.qubit(0.5)
    ops = [k.copy() for k in channels.thermalizing_kraus(spec).operators]
    ops[1][0, 1] = np.nan
    cfg = TrajectoryConfig(n=2, kraus=channels.KrausSet(tuple(ops)), env_overlaps=((1.0, 0, 0, 0),) * 2)
    with pytest.raises(ValueError, match="heating branches differ"):
        traj_branches(cfg, spec)


def _per_block(cfg, rho):
    """Reference joint, one control block at a time: the channel's fixed
    point on the diagonal, M_k rho M_k'^dag off it, all over N."""
    d, n = cfg.kraus.dim, cfg.n
    fixed = channels.apply_channel(cfg.kraus, rho)
    ms = [tm.matrix for tm in cfg.transformation_matrices()]
    joint = np.zeros((n * d, n * d), dtype=complex)
    for k in range(n):
        for kp in range(n):
            block = fixed if k == kp else ms[k] @ rho @ dagger(ms[kp])
            joint[k * d : (k + 1) * d, kp * d : (kp + 1) * d] = block / n
    return joint


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("real", [True, False])
def test_output_is_byte_identical_to_per_block_reference(dim, n, real):
    rng = np.random.default_rng(100 * dim + 10 * n + real)
    kraus = channels.thermalizing_kraus(ThermalSpec.degenerate(dim, 0.3))
    n_ops = len(kraus.operators)
    overlaps = []
    for _ in range(n):  # a different overlap list on every path
        o = rng.normal(size=n_ops) + 1j * rng.normal(size=n_ops)
        o /= np.linalg.norm(o) * rng.uniform(1.0, 2.0)
        overlaps.append(tuple(o))
    cfg = TrajectoryConfig(n=n, kraus=kraus, env_overlaps=tuple(overlaps))
    m = rng.normal(size=(dim, dim)) + (0 if real else 1j * rng.normal(size=(dim, dim)))
    rho = (m @ m.conj().T).astype(complex)  # traj_output works in complex
    rho /= np.trace(rho).real
    joint = traj_output(cfg, rho).joint
    ref = _per_block(cfg, rho)
    assert joint.dtype == ref.dtype and joint.shape == ref.shape and joint.tobytes() == ref.tobytes()


def test_config_validation():
    spec = ThermalSpec.qubit(0.5)
    kraus = channels.thermalizing_kraus(spec)
    with pytest.raises(ValueError):
        TrajectoryConfig(n=1, kraus=kraus, env_overlaps=((1, 0, 0, 0),))
    with pytest.raises(ValueError):
        TrajectoryConfig(n=2, kraus=kraus, env_overlaps=((1, 0, 0, 0),))
    with pytest.raises(ValueError):
        TrajectoryConfig(n=2, kraus=kraus, env_overlaps=((1, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        TrajectoryConfig(n=2, kraus=kraus, env_overlaps=((2.0, 0, 0, 0), (1, 0, 0, 0)))
    with pytest.raises(ValueError, match=r"^environment overlap weight 4\.0 exceeds 1$"):
        TrajectoryConfig(n=2, kraus=kraus, env_overlaps=((2.0, 0, 0, 0), (1, 0, 0, 0)))
    # a NaN weight compares False with the bound, so it is named on its own
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"^environment overlap weight {bad} is not finite$"):
            TrajectoryConfig(n=2, kraus=kraus, env_overlaps=((bad, 0, 0, 0),) * 2)


def test_output_rejects_wrong_state_shape():
    cfg = canonical_config(2, ThermalSpec.qubit(0.5))
    with pytest.raises(ValueError, match=r"^state shape \(3, 3\) does not match channel dim 2$"):
        traj_output(cfg, np.eye(3) / 3)


def test_dilation_budget_guard():
    spec = ThermalSpec.qubit(0.5)
    cfg = canonical_config(7, spec)  # 7 * 4 * 5**7 amplitudes is over budget
    with pytest.raises(ValueError):
        dilation_oracle(cfg, gibbs(0.5))


def _kron_dilation(cfg, rho):
    """Reference purification: every branch amplitude assembled factor by
    factor with np.kron, one Kraus operator and one path at a time."""
    d, n = cfg.kraus.dim, cfg.n
    n_ops = len(cfg.kraus.operators)
    e_dim = n_ops + 1

    def unit(dim, index):
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return v

    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals.real, 0.0, None)
    psi_t = sum(np.sqrt(evals[a]) * np.kron(evecs[:, a], unit(d, a)) for a in range(d))
    env_states = []
    for o in cfg.env_overlaps:
        vec = np.zeros(e_dim, dtype=complex)
        vec[:n_ops] = np.conj(o)
        vec[n_ops] = np.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(vec) ** 2))))
        env_states.append(vec)
    total = np.zeros(n * d * d * e_dim**n, dtype=complex)
    for k in range(n):
        branch = np.zeros(d * d * e_dim**n, dtype=complex)
        for a, op in enumerate(cfg.kraus.operators):
            target_anc = np.kron(op, np.eye(d)) @ psi_t
            env = None
            for j in range(n):
                factor = unit(e_dim, a) if j == k else env_states[j]
                env = factor if env is None else np.kron(env, factor)
            branch += np.kron(target_anc, env)
        total += np.kron(unit(n, k), branch) / np.sqrt(n)
    m = total.reshape(n * d, -1)
    return m @ m.conj().T


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dilation_matches_kron_reference_canonical(n):
    spec = ThermalSpec.qubit(0.37)
    cfg = canonical_config(n, spec)
    t = gibbs(0.37)
    assert np.max(np.abs(dilation_oracle(cfg, t).joint - _kron_dilation(cfg, t))) <= 1e-15


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_dilation_matches_kron_reference_random_overlaps(dim, n):
    # overlap weight below 1 puts amplitude on the extra environment level
    rng = np.random.default_rng(10 * dim + n)
    kraus = channels.thermalizing_kraus(ThermalSpec.degenerate(dim, 0.3))
    overlaps = []
    for _ in range(n):
        o = rng.normal(size=len(kraus.operators)) + 1j * rng.normal(size=len(kraus.operators))
        o /= np.linalg.norm(o) * rng.uniform(1.1, 2.0)
        overlaps.append(tuple(o))
    cfg = TrajectoryConfig(n=n, kraus=kraus, env_overlaps=tuple(overlaps))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ dagger(m)
    rho /= np.trace(rho).real
    assert np.max(np.abs(dilation_oracle(cfg, rho).joint - _kron_dilation(cfg, rho))) <= 1e-15


def test_dilation_is_independent_of_closed_form(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use the closed form it checks")

    monkeypatch.setattr(trajectories, "traj_output", forbidden)
    monkeypatch.setattr(trajectories, "transformation_matrix", forbidden)
    monkeypatch.setattr(channels, "transformation_matrix", forbidden)
    monkeypatch.setattr(TrajectoryConfig, "transformation_matrices", forbidden)
    spec = ThermalSpec.qubit(0.4)
    out = dilation_oracle(canonical_config(3, spec), gibbs(0.4))
    assert abs(np.trace(out.joint).real - 1.0) < 1e-12

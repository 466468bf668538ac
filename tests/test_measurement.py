import math

import numpy as np
import pytest

from icofridge import measurement, nswitch, thermal
from icofridge.measurement import build_basis, measure_control, povm_ancilla_scheme
from icofridge.thermal import ThermalSpec


def switch_at(n, r):
    t = thermal.gibbs_state(ThermalSpec.qubit(r))
    return nswitch.switch_closed_form(n, t, t)


def test_two_level_basis_is_plus_minus():
    basis = build_basis(2)
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(basis.vectors[0] - np.array([s, s]))) < 1e-15
    assert np.max(np.abs(basis.vectors[1] - np.array([s, -s]))) < 1e-15


def test_three_level_basis_rows():
    basis = build_basis(3)
    want1 = np.array([1, -1, 0]) / math.sqrt(2)
    want2 = np.array([1, 1, -2]) / math.sqrt(6)
    assert np.max(np.abs(basis.vectors[1] - want1)) < 1e-15
    assert np.max(np.abs(basis.vectors[2] - want2)) < 1e-15


def test_gram_matrix_identity():
    for n in (2, 3, 7, 23, 64):
        basis = build_basis(n)
        assert np.max(np.abs(basis.gram() - np.eye(n))) < 1e-12


def test_projector_completeness():
    for n in (2, 5, 64):
        v = build_basis(n).vectors
        total = sum(np.outer(v[i], v[i].conj()) for i in range(n))
        assert np.max(np.abs(total - np.eye(n))) < 1e-12


def test_measure_control_two_channels():
    # heralded heating probability tr(T - T^3)/2 = 3r / (2 (1+r)^2)
    r = 0.1
    outcomes = measure_control(switch_at(2, r), build_basis(2))
    p_minus = outcomes[1].probability
    assert abs(p_minus - 3 * r / (2 * (1 + r) ** 2)) < 1e-14
    assert abs(p_minus - 0.1239669) < 1e-7
    stats = nswitch.branch_stats(2, ThermalSpec.qubit(r))
    assert np.max(np.abs(outcomes[0].state - stats.rho_c)) < 1e-14


def test_measure_control_infinite_temperature():
    outcomes = measure_control(switch_at(2, 1.0), build_basis(2))
    for o in outcomes:
        assert np.max(np.abs(o.state - np.eye(2) / 2)) < 1e-14


def test_measure_control_matches_branch_stats():
    for n in (3, 5):
        for r in (0.2, 0.5):
            outcomes = measure_control(switch_at(n, r), build_basis(n))
            stats = nswitch.branch_stats(n, ThermalSpec.qubit(r))
            assert abs(outcomes[0].probability - stats.p_c) < 1e-12
            for o in outcomes[1:]:
                assert o.label == "heating"
                assert abs(o.probability - stats.p_h) < 1e-12
                assert np.max(np.abs(o.state - stats.rho_h)) < 1e-12


def test_heating_outcomes_identical():
    outcomes = measure_control(switch_at(6, 0.3), build_basis(6))
    ref = outcomes[1].state
    for o in outcomes[2:]:
        assert np.max(np.abs(o.state - ref)) < 1e-12


def test_probabilities_normalized():
    for n in (2, 4, 9):
        outcomes = measure_control(switch_at(n, 0.7), build_basis(n))
        assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12


def test_basis_dimension_mismatch():
    with pytest.raises(ValueError):
        measure_control(switch_at(3, 0.5), build_basis(4))


def test_povm_single_qubit_control_reduces_to_plus_minus():
    out = switch_at(2, 0.4)
    res = povm_ancilla_scheme(1, out)
    outcomes = measure_control(out, build_basis(2))
    assert abs(res.cooling.probability - outcomes[0].probability) < 1e-14
    assert np.max(np.abs(res.heating.state - outcomes[1].state)) < 1e-14


def test_povm_matches_fine_grained_probabilities():
    out = switch_at(4, 0.5)
    res = povm_ancilla_scheme(2, out)
    outcomes = measure_control(out, build_basis(4))
    assert abs(res.cooling.probability - outcomes[0].probability) < 1e-12
    assert abs(res.heating.probability - sum(o.probability for o in outcomes[1:])) < 1e-12


def test_povm_unnormalized_closed_forms():
    # flagged outcomes correspond to (1/N)(T + (N-1)T^3) and (N-1)/N (T - T^3)
    n, r = 8, 0.3
    t = thermal.gibbs_state(ThermalSpec.qubit(r))
    t3 = np.linalg.matrix_power(t, 3)
    res = povm_ancilla_scheme(3, switch_at(n, r))
    cool_unnorm = res.cooling.probability * res.cooling.state
    heat_unnorm = res.heating.probability * res.heating.state
    assert np.max(np.abs(cool_unnorm - (t + (n - 1) * t3) / n)) < 1e-12
    assert np.max(np.abs(heat_unnorm - (n - 1) * (t - t3) / n)) < 1e-12


def test_entropy_identity():
    for m, r in ((2, 0.5), (3, 0.2), (4, 0.8)):
        res = povm_ancilla_scheme(m, switch_at(2**m, r))
        assert res.entropy_identity_residual() < 1e-10
        assert abs(res.control_entropy - math.log(2**m - 1)) < 1e-15


def test_povm_requires_power_of_two():
    with pytest.raises(ValueError):
        povm_ancilla_scheme(2, switch_at(3, 0.5))


def test_basis_json():
    import json

    basis = build_basis(3)
    parsed = json.loads(basis.to_json())
    assert parsed["dim"] == 3
    assert len(parsed["re"]) == 9


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("n", (2, 3, 7, 16))
def test_measure_control_matches_block_loop(n, d):
    rng = np.random.default_rng(100 * n + d)
    m = rng.normal(size=(n * d, n * d)) + 1j * rng.normal(size=(n * d, n * d))
    joint = m @ m.conj().T
    out = nswitch.SwitchOutput(joint=joint / np.trace(joint).real, control_dim=n, target_dim=d)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    basis = measurement.MeasurementBasis(vectors=q.T)
    outcomes = measure_control(out, basis)
    assert len(outcomes) == n
    for i, outcome in enumerate(outcomes):
        v = basis.vectors[i]
        unnorm = np.zeros((d, d), dtype=complex)
        for j in range(n):
            for k in range(n):
                unnorm += np.conj(v[j]) * v[k] * out.block(j, k)
        p = float(np.trace(unnorm).real)
        assert abs(outcome.probability - p) < 1e-14
        assert np.max(np.abs(outcome.state - unnorm / p)) < 1e-14
        assert outcome.label == ("cooling" if i == 0 else "heating")

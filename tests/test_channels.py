import numpy as np
import pytest

from icofridge import channels, thermal
from icofridge.channels import KrausSet, apply_channel, depolarizing_kraus, thermalizing_kraus, transformation_matrix
from icofridge.qmat import dagger
from icofridge.thermal import ThermalSpec


def random_state(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ dagger(m)
    return rho / np.trace(rho).real


def test_depolarizing_sends_pure_state_to_maximally_mixed():
    kset = depolarizing_kraus(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert np.max(np.abs(apply_channel(kset, rho) - np.eye(2) / 2)) < 1e-14


def test_depolarizing_fixed_point():
    kset = depolarizing_kraus(3)
    assert np.max(np.abs(apply_channel(kset, np.eye(3) / 3) - np.eye(3) / 3)) < 1e-14


def test_depolarizing_random_inputs():
    # oracle: direct Kraus summation over random trace-1 Hermitian inputs
    rng = np.random.default_rng(0)
    kset = depolarizing_kraus(3)
    for _ in range(10):
        rho = random_state(rng, 3)
        out = sum(k @ rho @ dagger(k) for k in kset.operators)
        assert np.max(np.abs(out - np.eye(3) / 3)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_completeness(dim):
    assert depolarizing_kraus(dim).completeness_defect() < 1e-12
    for r in (0.1, 0.5, 1.0):
        spec = ThermalSpec.degenerate(dim, r)
        assert thermalizing_kraus(spec).completeness_defect() < 1e-12


def test_thermalizing_output_is_gibbs():
    spec = ThermalSpec.qubit(0.3)
    kset = thermalizing_kraus(spec)
    t = thermal.gibbs_state(spec)
    rng = np.random.default_rng(1)
    for _ in range(100):
        out = apply_channel(kset, random_state(rng, 2))
        assert np.max(np.abs(out - t)) < 1e-12


def test_thermalizing_fixed_point_and_idempotence():
    spec = ThermalSpec.degenerate(3, 0.6)
    kset = thermalizing_kraus(spec)
    t = thermal.gibbs_state(spec)
    once = apply_channel(kset, t)
    assert np.max(np.abs(once - t)) < 1e-13
    rng = np.random.default_rng(2)
    rho = random_state(rng, 3)
    assert np.max(np.abs(apply_channel(kset, apply_channel(kset, rho)) - apply_channel(kset, rho))) < 1e-12


def test_apply_channel_identity_and_errors():
    kset = KrausSet(operators=(np.eye(2),))
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert np.max(np.abs(apply_channel(kset, rho) - rho)) == 0
    with pytest.raises(ValueError):
        apply_channel(kset, np.eye(3) / 3)


def test_apply_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(3)
    spec = ThermalSpec.degenerate(3, 0.4)
    kset = thermalizing_kraus(spec)
    rho = random_state(rng, 3)
    out = apply_channel(kset, rho)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.max(np.abs(out - dagger(out))) < 1e-12


def test_transformation_matrix_canonical_choice():
    spec = ThermalSpec.qubit(0.4)
    kset = thermalizing_kraus(spec)
    tm = transformation_matrix(kset, (1.0, 0.0, 0.0, 0.0))
    a = np.sqrt(thermal.gibbs_state(spec))
    assert np.max(np.abs(tm.matrix - a / np.sqrt(2))) < 1e-14
    assert tm.obtainable


def test_transformation_matrix_zero_overlap():
    kset = thermalizing_kraus(ThermalSpec.qubit(0.4))
    tm = transformation_matrix(kset, (0.0,) * 4)
    assert np.max(np.abs(tm.matrix)) == 0.0
    assert tm.obtainable


def test_obtainability_bound_value():
    # oracle: tr(M^+ T M) = tr(T^2)/2 for M = A/sqrt(2), strictly below 1/2
    for r in np.linspace(0.05, 1.0, 12):
        spec = ThermalSpec.qubit(float(r))
        t = thermal.gibbs_state(spec)
        tm = transformation_matrix(thermalizing_kraus(spec), (1.0, 0.0, 0.0, 0.0))
        expected = float(np.trace(t @ t).real) / 2
        assert abs(tm.bound - expected) < 1e-14
        assert tm.bound <= 0.5 + 1e-15
        if r < 1.0:
            assert tm.bound < 0.5


def test_transformation_matrix_flags_unreachable():
    spec = ThermalSpec.qubit(0.1)
    kset = thermalizing_kraus(spec)
    # doubling the physical overlap breaks the implementation constraint
    tm = transformation_matrix(kset, (2.0, 0.0, 0.0, 0.0))
    assert not tm.obtainable
    assert tm.bound > 0.5


def test_transformation_matrix_length_check():
    kset = thermalizing_kraus(ThermalSpec.qubit(0.5))
    with pytest.raises(ValueError):
        transformation_matrix(kset, (1.0, 0.0))


def test_kraus_set_validation():
    with pytest.raises(ValueError):
        KrausSet(operators=())
    with pytest.raises(ValueError):
        KrausSet(operators=(np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="^dimension must be at least 2$"):
        depolarizing_kraus(1)

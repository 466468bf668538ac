import numpy as np
import pytest

from icofridge import thermal
from icofridge.thermal import NEGATIVE_TEMPERATURE, ThermalSpec


def test_gibbs_infinite_temperature():
    rho = thermal.gibbs_state(ThermalSpec.qubit(1.0))
    assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-15


def test_gibbs_near_zero_temperature():
    rho = thermal.gibbs_state(ThermalSpec.qubit(1e-12))
    assert abs(rho[0, 0] - 1.0) < 1e-11
    assert abs(rho[1, 1]) < 1e-11


def test_gibbs_r_point_one():
    rho = thermal.gibbs_state(ThermalSpec.qubit(0.1))
    assert abs(rho[0, 0] - 1 / 1.1) < 1e-15
    assert abs(rho[1, 1] - 0.1 / 1.1) < 1e-15


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("r", [0.01, 0.5, 1.0])
def test_gibbs_unit_trace_nonnegative(dim, r):
    rho = thermal.gibbs_state(ThermalSpec.degenerate(dim, r))
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.min(np.diag(rho).real) >= 0.0


def test_degenerate_excited_population():
    for dim in (2, 3, 7):
        for r in (0.05, 0.4, 1.0):
            rho = thermal.gibbs_state(ThermalSpec.degenerate(dim, r))
            excited = float(np.sum(np.diag(rho).real[1:]))
            assert abs(excited - (dim - 1) * r / (1 + (dim - 1) * r)) < 1e-14


def test_mean_energy_examples():
    spec = ThermalSpec.qubit(0.5)
    h = thermal.hamiltonian(spec)
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert thermal.mean_energy(ground, h) == 0.0
    # a 10000-particle sample at r = 0.1 holds about 909 gap units in total
    e = thermal.mean_energy(thermal.gibbs_state(ThermalSpec.qubit(0.1)), h)
    assert abs(10_000 * e - 909.0909090909091) < 1e-9
    assert abs(thermal.mean_energy(np.eye(2) / 2, h) - 0.5) < 1e-15


def test_mean_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        thermal.mean_energy(np.eye(2) / 2, np.diag([0.0, 1.0, 1.0]))


def test_effective_r_round_trip():
    for r in np.arange(0.01, 1.0, 0.01):
        rho = thermal.gibbs_state(ThermalSpec.qubit(float(r)))
        assert abs(thermal.effective_r(rho) - r) < 1e-12


def test_effective_r_examples():
    assert thermal.effective_r(np.eye(2) / 2) == 1.0
    rho = np.diag([1 / 1.1, 0.1 / 1.1]).astype(complex)
    assert abs(thermal.effective_r(rho) - 0.1) < 1e-15
    inverted = np.diag([0.4, 0.6]).astype(complex)
    assert thermal.effective_r(inverted) is NEGATIVE_TEMPERATURE


def test_effective_r_rejects_unnormalized():
    with pytest.raises(ValueError):
        thermal.effective_r(np.diag([0.9, 0.3]).astype(complex))


def test_spec_validation():
    with pytest.raises(ValueError):
        ThermalSpec(r_list=(0.0,))
    for r in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ratios must lie in"):
            ThermalSpec.qubit(r)
        with pytest.raises(ValueError, match="ratios must lie in"):
            ThermalSpec(r_list=(0.5, r), gaps=(1.0, 2.0))
    with pytest.raises(ValueError):
        ThermalSpec(r_list=(1.2,))
    with pytest.raises(ValueError):
        ThermalSpec(r_list=(0.2, 0.5), gaps=(1.0, 2.0))  # ratio grows with gap
    for gap in (float("nan"), float("inf"), -2.0):
        with pytest.raises(ValueError, match="gaps must be finite and nonnegative"):
            ThermalSpec(r_list=(0.5,), gaps=(gap,))
    # zero gaps stay legal, including the -0.0 default gap of an r = 1 level
    assert ThermalSpec(r_list=(0.5,), gaps=(0.0,)).gaps == (0.0,)
    assert ThermalSpec(r_list=(1.0, 0.5)).gaps[0] == 0.0
    spec = ThermalSpec(r_list=(0.5, 0.2))
    assert spec.dim == 3
    assert spec.gaps[0] < spec.gaps[1]


def test_degenerate_accessor():
    assert ThermalSpec.degenerate(4, 0.3).r == 0.3
    with pytest.raises(ValueError):
        _ = ThermalSpec(r_list=(0.5, 0.2)).r


def test_ratio_from_excited_population():
    for r in (0.01, 0.5, 1.0):
        p = r / (1 + r)
        assert abs(thermal.ratio_from_excited_population(p) - r) < 1e-12
    with pytest.raises(ValueError):
        thermal.ratio_from_excited_population(0.7)

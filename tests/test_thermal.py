from dataclasses import fields

import numpy as np
import pytest

from icofridge import thermal
from icofridge.nswitch import switch_closed_form
from icofridge.thermal import ThermalSpec


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
    spec = ThermalSpec.degenerate(dim, r)
    rho = thermal.gibbs_state(spec)
    assert abs(np.trace(rho).real - 1.0) < 1e-14
    assert np.min(np.diag(rho).real) >= 0.0
    # real where the physics is real; a complex input still gives a complex joint
    assert rho.dtype == thermal.degenerate_state(dim, 0.5).dtype == thermal.hamiltonian(spec).dtype == np.float64
    assert switch_closed_form(3, rho, rho).joint.dtype == np.float64
    assert switch_closed_form(3, rho.astype(complex), rho).joint.dtype == np.complex128


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


def test_spec_validation():
    for r in (0.0, 1.2, 1e-320, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ratio"):
            ThermalSpec.qubit(r)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        ThermalSpec.degenerate(1, 0.5)
    with pytest.raises(TypeError):
        ThermalSpec.degenerate(2.5, 0.5)
    assert ThermalSpec.degenerate(4, 0.3).r == 0.3


def test_degenerate_accessor():
    spec = ThermalSpec.degenerate(4, 0.3)
    assert (spec.dim, spec.r) == (4, 0.3)
    assert [f.name for f in fields(ThermalSpec)] == ["dim", "r"]
    assert ThermalSpec.qubit(0.3) == ThermalSpec.degenerate(2, 0.3)

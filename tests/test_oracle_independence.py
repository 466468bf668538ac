"""Every oracle runs with the closed-form kernel stubbed out.

The bindings to stub are found by identity, so a new ``from .fridge import
_kernel`` anywhere in the package is stubbed too.
"""

import importlib
import pkgutil

import pytest

import icofridge
from icofridge import cswap, demon, fridge, measurement, nswitch, thermal, trajectories


class KernelCalled(Exception):
    pass


class Stub:
    """Raises on any call or attribute access, as ``_kernel(...)`` or
    ``OperatingPoint.at(...)`` would make."""

    def __call__(self, *args, **kwargs):
        raise KernelCalled

    def __getattr__(self, name):
        raise KernelCalled


@pytest.fixture
def stubbed(monkeypatch):
    closed = (fridge._kernel, fridge.OperatingPoint)
    modules = [icofridge] + [
        importlib.import_module(f"icofridge.{info.name}") for info in pkgutil.iter_modules(icofridge.__path__)
    ]
    bindings = [(m, name) for m in modules for name, value in vars(m).items() if any(value is c for c in closed)]
    for module, name in bindings:
        monkeypatch.setattr(module, name, Stub())
    return bindings


def test_oracles_run_without_the_kernel(stubbed):
    spec = thermal.ThermalSpec.qubit(0.4)
    t = thermal.gibbs_state(spec)
    nswitch.switch_bruteforce(nswitch.OrderSet.cyclic(3), t, spec)
    out = nswitch.switch_closed_form(3, t, t)
    measurement.measure_control(out, measurement.build_basis(3))
    cfg = trajectories.canonical_config(2, spec)
    trajectories.dilation_oracle(cfg, t)
    trajectories.traj_output(cfg, t)
    (cool, _), _ = cswap.cswap_branches(cswap.cswap_evolve(3, 0.4))
    cswap.cswap_populations(3, 0.4)
    cswap.sequential_discard(cool, [0, 1, 2, 3], spec)
    fridge.lowest_r("ico", 0.5, 2.0)


def test_the_stub_catches_the_closed_forms(stubbed):
    # _kernel in fridge, cswap and demon; OperatingPoint in fridge, nswitch,
    # demon and the package
    assert {(m.__name__, name) for m, name in stubbed} >= {
        ("icofridge.fridge", "_kernel"), ("icofridge.cswap", "_kernel"), ("icofridge.demon", "_kernel"),
        ("icofridge.fridge", "OperatingPoint"), ("icofridge.nswitch", "OperatingPoint"),
        ("icofridge.demon", "OperatingPoint"), ("icofridge", "OperatingPoint"),
    }
    with pytest.raises(KernelCalled):
        nswitch.branch_stats(3, thermal.ThermalSpec.qubit(0.4))
    with pytest.raises(KernelCalled):
        demon.expected_transfer_exact(3, 2, 0.4, 2)

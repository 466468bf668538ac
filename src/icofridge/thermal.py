"""Gibbs states and the Boltzmann-ratio parameterization.

Temperatures are carried everywhere as the ratio r = e^(-beta*Delta) of
excited to ground population, never as kelvin: r = 1 is infinite temperature,
r -> 0 is absolute zero. Energies are in units of the qubit gap Delta, which
is 1 internally. A working system with D levels is the degenerate family:
its D-1 excited levels share gap 1 and ratio r. Every result in this package
reads the family's facts here: ``_validate_family`` is the one rule for valid
(D, r), ``excited_weight`` maps r to the excited weight and ``ratio_of_weight``
back, and ``inversion_weight`` is where population inversion starts.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

import numpy as np


def _validate_ratio(r: float) -> None:
    """Reject ratios outside (0, 1], NaN, and subnormal ratios, which carry
    fewer significant bits than a double and underflow in the kernel."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"ratio {r} outside (0, 1]")
    if r < sys.float_info.min:
        raise ValueError(f"ratio {r} is subnormal (below {sys.float_info.min})")


def _validate_family(dim: int, r: float) -> None:
    """Require an integer D >= 2 (TypeError for a non-integer) and a valid ratio."""
    if operator.index(dim) < 2:
        raise ValueError("dimension must be at least 2")
    _validate_ratio(r)


def excited_weight(dim: int, r):
    """Gibbs excited weight (D-1)r / (1 + (D-1)r) of a float or array ``r``, unvalidated."""
    x = (dim - 1) * r
    return x / (1.0 + x)


def ratio_of_weight(dim: int, a):
    """Inverse of ``excited_weight``, clipped to ratios in [0, 1]."""
    a = np.clip(a, 0.0, 1.0 - 1e-15)
    return np.minimum(a / (1.0 - a) / (dim - 1), 1.0)


def inversion_weight(dim: int) -> float:
    """Excited weight x above which x / (D-1) > 1 - x: each excited level outweighs the ground."""
    return (dim - 1) / dim


@dataclass(frozen=True)
class ThermalSpec:
    """A D-level system whose D-1 excited levels share gap 1 and ratio r."""

    dim: int
    r: float

    def __post_init__(self):
        _validate_family(self.dim, self.r)
        object.__setattr__(self, "r", float(self.r))

    @classmethod
    def qubit(cls, r: float) -> "ThermalSpec":
        return cls(2, r)

    @classmethod
    def degenerate(cls, dim: int, r: float) -> "ThermalSpec":
        return cls(dim, r)


def gibbs_state(spec: ThermalSpec) -> np.ndarray:
    """Thermal state diag(1, r, ..., r) / Z with Z = 1 + (D-1) r."""
    weights = np.array((1.0,) + (spec.r,) * (spec.dim - 1), dtype=complex)
    return np.diag(weights / weights.real.sum())


def degenerate_state(dim: int, x: float) -> np.ndarray:
    """Diagonal D-level state with excited weight x spread evenly over the
    D-1 excited levels; the Gibbs state when x = excited_weight(D, r)."""
    return np.diag(np.array((1.0 - x,) + (x / (dim - 1),) * (dim - 1), dtype=complex))


def hamiltonian(spec: ThermalSpec) -> np.ndarray:
    """Diagonal Hamiltonian diag(0, 1, ..., 1) in units of the qubit gap."""
    return np.diag(np.array((0.0,) + (1.0,) * (spec.dim - 1), dtype=complex))


def mean_energy(rho: np.ndarray, h: np.ndarray) -> float:
    """tr(rho H); real for Hermitian inputs."""
    rho = np.asarray(rho)
    h = np.asarray(h)
    if rho.shape != h.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {h.shape}")
    return float(np.trace(rho @ h).real)

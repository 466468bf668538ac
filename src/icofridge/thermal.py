"""Gibbs states and the Boltzmann-ratio parameterization.

Temperatures are carried everywhere as the ratio r = e^(-beta*Delta) of
excited to ground population, never as kelvin: r = 1 is infinite temperature,
r -> 0 is absolute zero. Energies are in units of the qubit gap Delta, which
is 1 internally. A working system with D levels has D-1 excited-state ratios
r_i; the degenerate family (all r_i equal, all gaps equal) is the one used by
every quantitative result in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qmat import ALGEBRA_TOL


class _NegativeTemperature:
    """Sentinel for population-inverted states (no valid ratio in (0, 1])."""

    def __repr__(self) -> str:  # pragma: no cover
        return "negative-temperature"


NEGATIVE_TEMPERATURE = _NegativeTemperature()


@dataclass(frozen=True)
class ThermalSpec:
    """Spectrum and Boltzmann ratios of a finite thermal system.

    ``r_list[i]`` is the population ratio of excited level i+1 to the ground
    level; ``gaps[i]`` is that level's energy above the ground state. When
    ``gaps`` is omitted it defaults to all-1 for a degenerate spectrum, or to
    -ln(r_i) (inverse temperature set to 1) otherwise.
    """

    r_list: tuple[float, ...]
    gaps: tuple[float, ...] = field(default=())

    def __post_init__(self):
        r_list = tuple(float(r) for r in self.r_list)
        if not r_list:
            raise ValueError("need at least one excited level")
        if any(not 0.0 < r <= 1.0 for r in r_list):
            raise ValueError(f"ratios must lie in (0, 1], got {r_list}")
        gaps = tuple(float(g) for g in self.gaps)
        if not gaps:
            if all(r == r_list[0] for r in r_list):
                gaps = (1.0,) * len(r_list)
            else:
                gaps = tuple(-math.log(r) for r in r_list)
        if len(gaps) != len(r_list):
            raise ValueError("gaps and r_list must have the same length")
        # 0 and -0.0 stay legal: the default gap -ln(1) of an r = 1 level is -0.0
        if any(not 0.0 <= g < math.inf for g in gaps):
            raise ValueError(f"gaps must be finite and nonnegative, got {gaps}")
        for (ra, ga), (rb, gb) in zip(zip(r_list, gaps), list(zip(r_list, gaps))[1:]):
            if (gb - ga) * (ra - rb) < 0:
                raise ValueError("ratios must be nonincreasing where gaps increase")
        object.__setattr__(self, "r_list", r_list)
        object.__setattr__(self, "gaps", gaps)

    @classmethod
    def qubit(cls, r: float) -> "ThermalSpec":
        return cls(r_list=(r,), gaps=(1.0,))

    @classmethod
    def degenerate(cls, dim: int, r: float) -> "ThermalSpec":
        """All D-1 excited levels share one gap (=1) and one ratio."""
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        return cls(r_list=(r,) * (dim - 1), gaps=(1.0,) * (dim - 1))

    @property
    def dim(self) -> int:
        return len(self.r_list) + 1

    @property
    def r(self) -> float:
        """The single ratio of a degenerate spec."""
        if any(r != self.r_list[0] for r in self.r_list):
            raise ValueError("spec is not degenerate; use r_list")
        return self.r_list[0]


def gibbs_state(spec: ThermalSpec) -> np.ndarray:
    """Thermal state diag(1, r_1, ..., r_{D-1}) / Z with Z = 1 + sum r_i."""
    weights = np.array((1.0,) + spec.r_list, dtype=complex)
    return np.diag(weights / weights.real.sum())


def degenerate_state(dim: int, x: float) -> np.ndarray:
    """Diagonal D-level state with excited weight x spread evenly over the
    D-1 excited levels; the Gibbs state when x = (D-1)r / (1 + (D-1)r)."""
    return np.diag(np.array((1.0 - x,) + (x / (dim - 1),) * (dim - 1), dtype=complex))


def hamiltonian(spec: ThermalSpec) -> np.ndarray:
    """Diagonal Hamiltonian diag(0, gaps...) in units of the qubit gap."""
    return np.diag(np.array((0.0,) + spec.gaps, dtype=complex))


def mean_energy(rho: np.ndarray, h: np.ndarray) -> float:
    """tr(rho H); real for Hermitian inputs."""
    rho = np.asarray(rho)
    h = np.asarray(h)
    if rho.shape != h.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {h.shape}")
    return float(np.trace(rho @ h).real)


def effective_r(rho: np.ndarray, tol: float = ALGEBRA_TOL):
    """Excited/ground population ratio of a 2-level state.

    Returns the ratio p1/p0 when p1 <= p0, and NEGATIVE_TEMPERATURE when the
    populations are inverted, so that a returned number always lies in the
    valid Gibbs domain (0, 1].
    """
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError("effective ratio is defined for 2-level states")
    p0, p1 = float(rho[0, 0].real), float(rho[1, 1].real)
    if abs(p0 + p1 - 1.0) > 1e-9:
        raise ValueError(f"populations sum to {p0 + p1}, not 1")
    if p1 > p0:
        return NEGATIVE_TEMPERATURE
    return p1 / p0


def ratio_from_excited_population(p: float) -> float:
    """Invert p = r/(1+r); population-inverted inputs (p > 1/2) are invalid."""
    if not 0.0 <= p < 0.5 + 1e-12:
        raise ValueError(f"excited population {p} has no ratio in [0, 1]")
    p = min(p, 0.5)
    return p / (1.0 - p)

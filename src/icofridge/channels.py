"""Thermalizing channels, Kraus sets, and implementation transformation matrices.

The canonical thermalizing channel here is full depolarization followed by
amplitude damping: with A the square root of the Gibbs state T and {U_i} the
d**2 orthogonal unitaries, the Kraus operators K_i = A U_i / sqrt(d) send
every input density matrix to T and satisfy sum K_i^dag K_i = I.

A coherently-controlled use of the channel is implementation dependent: the
interference between control branches is governed by the transformation
matrix M = sum_a <env|a> K_a built from the environment state of a specific
Stinespring dilation. Not every M is reachable; an implementation of the
channel exists iff tr(M^dag T M) <= 1/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmat
from .qmat import ALGEBRA_TOL, dagger
from .thermal import ThermalSpec, gibbs_state


@dataclass(frozen=True)
class KrausSet:
    """A finite Kraus representation of one channel implementation."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def completeness_defect(self) -> float:
        """Max-norm deviation of sum K^dag K from the identity."""
        total = sum(dagger(k) @ k for k in self.operators)
        return float(np.max(np.abs(total - np.eye(self.dim))))


def depolarizing_kraus(d: int) -> KrausSet:
    """Fully depolarizing channel: rho -> tr(rho) I/d, via d**2 unitaries."""
    ops = tuple(u / d for u in qmat.pauli_basis(d))
    return KrausSet(operators=ops)


def thermalizing_kraus(spec: ThermalSpec) -> KrausSet:
    """Channel sending every input to the Gibbs state of ``spec``.

    Realized as depolarize-then-damp with K_i = A U_i / sqrt(d), A = sqrt(T).
    The d**2 operators are exactly trace preserving.
    """
    d = spec.dim
    a = np.sqrt(gibbs_state(spec))  # T is diagonal, so its root is entrywise
    ops = tuple((a @ u) / np.sqrt(d) for u in qmat.pauli_basis(d))
    return KrausSet(operators=ops)


def apply_channel(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """sum_i K_i rho K_i^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (kraus.dim, kraus.dim):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {kraus.dim}")
    out = np.zeros_like(rho)
    for k in kraus.operators:
        out += k @ rho @ dagger(k)
    return out


@dataclass(frozen=True)
class TransformationMatrix:
    """Interference operator of one channel implementation.

    ``bound`` holds tr(M^dag T M) against the obtainability limit 1/d; when it
    exceeds the limit the matrix is still returned but flagged, so what-if
    sweeps over hypothetical implementations remain possible.
    """

    matrix: np.ndarray
    bound: float
    obtainable: bool


def transformation_matrix(
    kraus: KrausSet,
    env_overlaps: Sequence[complex],
    thermal_state: np.ndarray | None = None,
) -> TransformationMatrix:
    """M = sum_a <env|a> K_a for environment overlaps <env|a>.

    ``thermal_state`` is the channel's fixed point, used for the obtainability
    check tr(M^dag T M) <= 1/d; when omitted it is computed by applying the
    channel to the maximally mixed state.
    """
    overlaps = tuple(complex(c) for c in env_overlaps)
    if len(overlaps) != len(kraus.operators):
        raise ValueError(
            f"{len(overlaps)} overlaps for {len(kraus.operators)} Kraus operators"
        )
    m = sum(c * k for c, k in zip(overlaps, kraus.operators))
    d = kraus.dim
    if thermal_state is None:
        thermal_state = apply_channel(kraus, np.eye(d, dtype=complex) / d)
    bound = float(np.trace(dagger(m) @ np.asarray(thermal_state) @ m).real)
    return TransformationMatrix(matrix=m, bound=bound, obtainable=bound <= 1.0 / d + ALGEBRA_TOL)

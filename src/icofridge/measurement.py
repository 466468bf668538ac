"""Control-system measurement: coherent basis construction and branch outcomes.

For an N-dimensional control there is an orthonormal basis whose first vector
is the uniform superposition and whose remaining vectors are the normalized
rows of the lower-triangular matrix with rows (1, -1, 0, ...), (1, 1, -2,
0, ...), ..., (1, ..., 1, 1-N). Measuring the switch output in this basis
heralds one cooling branch (uniform-superposition outcome) and N-1 identical
heating branches. The equivalent two-outcome scheme flags only
cooling-vs-heating on an ancilla qubit; it stores less information, and the
entropy gap is exactly the heating probability times the log-dimension of the
leftover mixed control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fridge import _xlogx
from .nswitch import SwitchOutput
from .qmat import ALGEBRA_TOL


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal control-space basis; row i of ``vectors`` is the i-th vector."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("basis must be a square array of row vectors")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def gram(self) -> np.ndarray:
        return self.vectors.conj() @ self.vectors.T


def build_basis(n: int) -> MeasurementBasis:
    """Basis with the uniform superposition first, then the triangular rows.

    Row i (1-indexed) is (1, ..., 1, -i, 0, ..., 0)/sqrt(i(i+1)) with i ones;
    rows are orthogonal by construction, and each is orthogonal to the
    uniform vector because its entries sum to zero.
    """
    if n < 2:
        raise ValueError("control dimension must be at least 2")
    vectors = np.zeros((n, n), dtype=complex)
    vectors[0] = 1.0 / math.sqrt(n)
    for i in range(1, n):
        vectors[i, :i] = 1.0
        vectors[i, i] = -i
        vectors[i] /= math.sqrt(i * (i + 1))
    return MeasurementBasis(vectors=vectors)


@dataclass(frozen=True)
class BranchOutcome:
    """One heralded measurement outcome of the control system."""

    probability: float
    state: np.ndarray
    label: str  # "cooling" or "heating"


def measure_control(out: SwitchOutput, basis: MeasurementBasis) -> list[BranchOutcome]:
    """Fine-grained projective measurement of the control.

    Returns one outcome per basis vector: the uniform-superposition outcome
    is the cooling branch with working state ~ T + (N-1) T rho T; every other
    outcome is a heating branch with the same working state ~ T - T rho T.
    Outcome probabilities sum to one.
    """
    n, d = out.control_dim, out.target_dim
    if basis.dim != n:
        raise ValueError(f"basis dimension {basis.dim} does not match control {n}")
    v = basis.vectors
    # outcome i: sum over control blocks (j, k) of conj(v_ij) v_ik <j|joint|k>
    blocks = out.joint.reshape(n, d, n, d)
    unnorms = np.einsum("ij,ik,jakb->iab", v.conj(), v, blocks, optimize=True)
    outcomes = []
    for i, unnorm in enumerate(unnorms):
        p = float(np.trace(unnorm).real)
        state = unnorm / p if p > ALGEBRA_TOL else np.eye(d, dtype=complex) / d
        outcomes.append(
            BranchOutcome(probability=p, state=state, label="cooling" if i == 0 else "heating")
        )
    return outcomes


@dataclass(frozen=True)
class AncillaSchemeResult:
    """Two-outcome (cooling vs heating) scheme with one flag qubit.

    ``register_entropy_full`` is the Shannon entropy of the fine-grained
    N-outcome record, ``register_entropy_flag`` that of the binary flag,
    and ``control_entropy`` the von Neumann entropy of the control left
    maximally mixed over the N-1 heating vectors when the flag says heating.
    """

    cooling: BranchOutcome
    heating: BranchOutcome
    register_entropy_full: float
    register_entropy_flag: float
    control_entropy: float

    def entropy_identity_residual(self) -> float:
        """| S_full - (S_flag + p_H * S_control) |, zero in exact arithmetic."""
        p_h_total = self.heating.probability
        return abs(
            self.register_entropy_full
            - (self.register_entropy_flag + p_h_total * self.control_entropy)
        )


def povm_ancilla_scheme(out: SwitchOutput) -> AncillaSchemeResult:
    """Coarse cooling/heating readout for a control register of qubits,
    whose dimension N must be a power of two (at least 2).

    The ancilla flags whether the control is in the uniform-superposition
    state; the heralded working states are the same as those of the
    fine-grained measurement, but only one bit is recorded per run.
    Entropies are in nats.
    """
    n = out.control_dim
    if n < 2 or n & (n - 1):
        raise ValueError(f"control dimension {n} is not a power of two")
    basis = build_basis(n)
    outcomes = measure_control(out, basis)
    p_c = outcomes[0].probability
    p_heat = [o.probability for o in outcomes[1:]]
    p_h_total = sum(p_heat)
    d = out.target_dim
    heat_unnorm = sum(o.probability * o.state for o in outcomes[1:])
    heating_state = (
        heat_unnorm / p_h_total if p_h_total > ALGEBRA_TOL else np.eye(d, dtype=complex) / d
    )
    s_full = -_xlogx(p_c) - sum(_xlogx(p) for p in p_heat)
    s_flag = -_xlogx(p_c) - _xlogx(p_h_total)
    return AncillaSchemeResult(
        cooling=outcomes[0],
        heating=BranchOutcome(probability=p_h_total, state=heating_state, label="heating"),
        register_entropy_full=s_full,
        register_entropy_flag=s_flag,
        control_entropy=math.log(n - 1),
    )

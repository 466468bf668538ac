"""Coherently controlled SWAP cooling: all N+1 thermal qubits become resources.

One working qubit is swapped with one of N reservoir qubits, conditioned on
an N-level control prepared in the uniform superposition. After the control
is measured in the coherent basis, the cooling branch leaves the working
qubit in the same state as the cyclic-order switch scheme, but now the N
reservoir qubits are cooled as well; their common marginal has an exact
closed form, and the total extractable heat (hence the optimal coefficient
of performance) is exactly three times the working-qubit-only value, for
every N and every temperature.

Joint states carry the full control x target x reservoir register, so all
closed forms here are cross-checked against direct partial traces.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import qmat
from .fridge import _bath_energy, _branches, _validate
from .measurement import MeasurementBasis, build_basis
from .qmat import ALGEBRA_TOL
from .thermal import ThermalSpec, degenerate_state, gibbs_state

# Joint dimension N * 2**(N+1); kept at desk scale.
MAX_QUBITS = 8


@dataclass(frozen=True)
class CswapState:
    """Joint state of the controlled-SWAP register.

    Before measurement ``has_control`` is True and ``joint`` lives on
    control (x) target (x) N reservoir qubits; after a branch projection the
    control is removed and ``branch`` records the outcome.
    """

    joint: np.ndarray
    n: int
    r: float
    has_control: bool = True
    branch: str | None = None

    @property
    def dims(self) -> tuple[int, ...]:
        qubits = (2,) * (self.n + 1)
        return ((self.n,) + qubits) if self.has_control else qubits

    def qubit_marginal(self, index: int) -> np.ndarray:
        """Single-qubit marginal; index 0 is the target, 1..N the reservoirs."""
        offset = 1 if self.has_control else 0
        return qmat.partial_trace(self.joint, self.dims, keep={index + offset})

    def block(self, i: int, j: int) -> np.ndarray:
        if not self.has_control:
            raise ValueError("control already measured out")
        q = 2 ** (self.n + 1)
        return self.joint[i * q : (i + 1) * q, j * q : (j + 1) * q]


def _swap_permutation(n_qubits: int, a: int, b: int) -> np.ndarray:
    """Basis-index permutation exchanging qubits a and b (0 = leftmost)."""
    dim = 1 << n_qubits
    idx = np.arange(dim)
    sa, sb = n_qubits - 1 - a, n_qubits - 1 - b
    bit_a = (idx >> sa) & 1
    bit_b = (idx >> sb) & 1
    toggle = bit_a ^ bit_b
    return idx ^ (toggle << sa) ^ (toggle << sb)


def cswap_evolve(n: int, r: float) -> CswapState:
    """Apply the control-conditioned SWAP to uniform control x thermal qubits.

    Control branch k swaps the target with reservoir qubit k+1; all N+1
    qubits start in the Gibbs state of ratio ``r``. Every single-qubit
    marginal of the result is still that Gibbs state, so no local observer
    can tell the interaction happened.
    """
    if n < 2:
        raise ValueError("need at least two reservoir qubits")
    if n > MAX_QUBITS:
        raise ValueError(f"joint dimension {n * 2 ** (n + 1)} exceeds the desk-scale guard")
    spec = ThermalSpec.qubit(r)
    t = gibbs_state(spec)
    rho_q = qmat.kron_all([t] * (n + 1))
    q = 1 << (n + 1)
    perms = [_swap_permutation(n + 1, 0, k + 1) for k in range(n)]
    joint = np.zeros((n * q, n * q), dtype=complex)
    for i in range(n):
        rows = perms[i]
        for j in range(n):
            # SWAPs are involutions, so S_i rho S_j is a row/column reindexing
            joint[i * q : (i + 1) * q, j * q : (j + 1) * q] = (
                rho_q[np.ix_(rows, perms[j])] / n
            )
    return CswapState(joint=joint, n=n, r=r)


def cswap_branches(
    state: CswapState, basis: MeasurementBasis
) -> tuple[tuple[CswapState, float], tuple[CswapState, float]]:
    """Project the control, returning ((cooling, p_c), (heating, p_H)).

    The heating output pools the N-1 identical heating vectors. Both joint
    states are normalized over the N+1 qubits.
    """
    if not state.has_control:
        raise ValueError("control already measured out")
    n = state.n
    if basis.dim != n:
        raise ValueError(f"basis dimension {basis.dim} does not match control {n}")
    q = 1 << (n + 1)
    v0 = basis.vectors[0]
    cool = np.zeros((q, q), dtype=complex)
    diag_sum = np.zeros((q, q), dtype=complex)
    for i in range(n):
        diag_sum += state.block(i, i)
        for j in range(n):
            cool += np.conj(v0[i]) * v0[j] * state.block(i, j)
    heat = diag_sum - cool
    p_c = float(np.trace(cool).real)
    p_h = float(np.trace(heat).real)
    cooling = CswapState(
        joint=cool / p_c, n=n, r=state.r, has_control=False, branch="cooling"
    )
    heating = CswapState(
        joint=heat / p_h if p_h > ALGEBRA_TOL else cool / p_c,
        n=n,
        r=state.r,
        has_control=False,
        branch="heating",
    )
    return (cooling, p_c), (heating, p_h)


def cooling_reservoir_marginal(n: int, r: float) -> np.ndarray:
    """Closed form for each reservoir qubit's cooling-branch marginal.

    Unnormalized over the branch: a mixture of the Gibbs state T and T^3 in
    which only 2(N-1) of the N(N-1) control off-diagonal terms contribute
    T^3; the rest contribute tr(T^3) * T. Normalization is the cooling
    probability, the same as for the working qubit. The weights live in the
    branch kernel ``fridge._branches``.
    """
    _validate("cswap", n, 2, r)
    *_, x_res = _branches("cswap", n, 2, r, _bath_energy(2, r))
    return degenerate_state(2, x_res)


def cooling_target_marginal(n: int, r: float) -> np.ndarray:
    """Closed form for the working qubit's cooling-branch marginal."""
    _validate("cswap", n, 2, r)
    _, _, x_cool, _, _ = _branches("cswap", n, 2, r, _bath_energy(2, r))
    return degenerate_state(2, x_cool)


def cswap_energy_identity(n: int, r: float) -> tuple[float, float]:
    """Excited-population bookkeeping of the cooling branch.

    Returns (N * reservoir-qubit excited shift, 2 * target excited shift);
    the two are equal, which is how the total heat splits between the
    working qubit and the reservoir register.
    """
    state = cswap_evolve(n, r)
    (cooling, _), _ = cswap_branches(state, build_basis(n))
    t_pop = r / (1 + r)
    res_pop = float(cooling.qubit_marginal(1)[1, 1].real)
    tgt_pop = float(cooling.qubit_marginal(0)[1, 1].real)
    return n * (res_pop - t_pop), 2 * (tgt_pop - t_pop)


@dataclass(frozen=True)
class DiscardSnapshot:
    """State of the register after thermalizing ``discarded`` qubits away."""

    step: int
    discarded: tuple[int, ...]
    excited_populations: tuple[float, ...]
    heat_released: float  # energy given up by the discarded qubit, in gap units
    cumulative_heat: float


def sequential_discard(
    state: CswapState, order: list[int], spec: ThermalSpec
) -> list[DiscardSnapshot]:
    """Thermalize the register's qubits one at a time, in the given order.

    Each step replaces one qubit with the Gibbs state of ``spec`` and books
    the energy difference as heat released to that reservoir (negative while
    the register is cold). The remaining qubits' marginals never move, so
    the cumulative heat is independent of the order and equals the
    all-at-once total.
    """
    if state.has_control:
        raise ValueError("measure the control before discarding qubits")
    n_sub = state.n + 1
    order = [int(q) for q in order]
    if sorted(set(order)) != sorted(order) or any(q < 0 or q >= n_sub for q in order):
        raise ValueError(f"invalid discard order {order} for {n_sub} qubits")
    t = gibbs_state(spec)
    t_energy = float(t[1, 1].real)
    dims = state.dims
    rho = state.joint
    snapshots = []
    cumulative = 0.0
    discarded: tuple[int, ...] = ()
    for step, q in enumerate(order, start=1):
        marg = qmat.partial_trace(rho, dims, keep={q})
        released = float(marg[1, 1].real) - t_energy
        rho = qmat.replace_subsystem(rho, dims, q, t)
        cumulative += released
        discarded = discarded + (q,)
        pops = tuple(
            float(qmat.partial_trace(rho, dims, keep={k})[1, 1].real) for k in range(n_sub)
        )
        snapshots.append(
            DiscardSnapshot(
                step=step,
                discarded=discarded,
                excited_populations=pops,
                heat_released=released,
                cumulative_heat=cumulative,
            )
        )
    return snapshots


def snapshots_to_csv(snapshots: list[DiscardSnapshot]) -> str:
    """CSV rows (step, qubit, p_excited) for every snapshot."""
    buf = io.StringIO()
    buf.write("step,qubit,p_excited\n")
    for snap in snapshots:
        for qubit, pop in enumerate(snap.excited_populations):
            buf.write(f"{snap.step},{qubit},{pop:.12g}\n")
    return buf.getvalue()


def ico_cswap_equivalent(r: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint outputs of the two-reservoir controlled-SWAP with and without
    superposed orderings.

    The ordered variant applies both SWAPs in the two possible sequences
    conditioned on the control; the plain variant applies a single SWAP per
    branch. For two reservoirs the two joint states coincide.
    """
    n = 2
    spec = ThermalSpec.qubit(r)
    t = gibbs_state(spec)
    rho_q = qmat.kron_all([t] * (n + 1))
    q = 1 << (n + 1)
    s1 = _swap_permutation(n + 1, 0, 1)
    s2 = _swap_permutation(n + 1, 0, 2)
    plain = [s1, s2]
    ordered = [s2[s1], s1[s2]]  # branch 0: swap R1 then R2; branch 1: reverse

    def invert(p: np.ndarray) -> np.ndarray:
        inv = np.empty_like(p)
        inv[p] = np.arange(p.size)
        return inv

    outs = []
    for perms in (plain, ordered):
        inv = [invert(p) for p in perms]
        joint = np.zeros((n * q, n * q), dtype=complex)
        for i in range(n):
            for j in range(n):
                joint[i * q : (i + 1) * q, j * q : (j + 1) * q] = (
                    rho_q[np.ix_(inv[i], inv[j])] / n
                )
        outs.append(joint)
    return outs[0], outs[1]

"""Coherently controlled SWAP cooling: all N+1 thermal qubits become resources.

One working qubit is swapped with one of N reservoir qubits, conditioned on
an N-level control prepared in the uniform superposition. After the control
is measured in the coherent basis, the cooling branch leaves the working
qubit in the same state as the cyclic-order switch scheme, but now the N
reservoir qubits are cooled as well; their common marginal has an exact
closed form, and the total extractable heat (hence the optimal coefficient
of performance) is exactly three times the working-qubit-only value, for
every N and every temperature.

``cswap_evolve`` returns the full control x target x reservoir register as
an ``nswitch.SwitchOutput`` whose target is all N+1 qubits. Its input is a
product of diagonal Gibbs states and SWAPs only permute the energy basis, so
the register is real and held as float64. ``cswap_branches`` projects its
control with one reduction over the control axes and returns each branch as
a real (N+1)-qubit density matrix. All closed forms here are cross-checked
against direct partial traces of those arrays, and against
``cswap_populations``, which counts the same populations by symmetry class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .fridge import _kernel, _out, _validate
from .nswitch import SwitchOutput, branch_stats
from .qmat import ALGEBRA_TOL
from .thermal import ThermalSpec, degenerate_state, excited_weight, gibbs_state

# Joint dimension N * 2**(N+1); kept at desk scale.
MAX_QUBITS = 8

# cswap_populations' 2(N+1) class sums: C(N, w) and 2**(N+1) stay finite floats.
MAX_POPULATION_QUBITS = 1000


def _swap_permutation(n_qubits: int, a: int, b: int) -> np.ndarray:
    """Basis-index permutation exchanging qubits a and b (0 = leftmost)."""
    dim = 1 << n_qubits
    idx = np.arange(dim)
    sa, sb = n_qubits - 1 - a, n_qubits - 1 - b
    bit_a = (idx >> sa) & 1
    bit_b = (idx >> sb) & 1
    toggle = bit_a ^ bit_b
    return idx ^ (toggle << sa) ^ (toggle << sb)


def _excited_bits(n_qubits: int) -> np.ndarray:
    """Bit table: entry (x, q) is qubit q's excitation in basis state x, so a
    register diagonal times it gives every qubit's excited population."""
    return (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def _gather(rho_q: np.ndarray, perms: np.ndarray, n: int) -> np.ndarray:
    """Control blocks of the uniform-control register from one gather.

    ``perms`` concatenates the N branch permutations; block (i, j) is
    ``rho_q`` reindexed by permutations i and j, divided in place by N so a
    register (134 MB of float64 at n=8) is never held twice.
    """
    joint = rho_q[np.ix_(perms, perms)]
    joint /= n
    return joint


def cswap_evolve(n: int, r: float) -> SwitchOutput:
    """Apply the control-conditioned SWAP to uniform control x thermal qubits.

    Control branch k swaps the target with reservoir qubit k+1; all N+1
    qubits start in the Gibbs state of ratio ``r``. The result's target is
    the whole (N+1)-qubit register, a real float64 array: the Gibbs product
    and the swap permutations are both real in the energy basis. Every
    single-qubit marginal of it is still that Gibbs state, so no local
    observer can tell the interaction happened.
    """
    if n > MAX_QUBITS:
        raise ValueError(f"joint dimension {n * 2 ** (n + 1)} exceeds the desk-scale guard")
    _validate("cswap", n, 2, r)
    rho_q = qmat.kron_all([gibbs_state(ThermalSpec.qubit(r)).real] * (n + 1))
    # SWAPs are involutions, so block (i, j) = S_i rho S_j
    perms = np.concatenate([_swap_permutation(n + 1, 0, k + 1) for k in range(n)])
    return SwitchOutput(joint=_gather(rho_q, perms, n), control_dim=n, target_dim=2 ** (n + 1))


def cswap_branches(
    out: SwitchOutput,
) -> tuple[tuple[np.ndarray, float], tuple[np.ndarray, float]]:
    """Project the control in the coherent basis: ((cooling, p_c), (heating, p_H)).

    The uniform vector's projector weighs every control block by 1/N, so the
    cooling branch sums all N^2 blocks over N; the heating output, the N-1
    identical heating vectors pooled, is the control diagonal's sum less
    that. The difference cancels as r -> 0, so at p_H <= ALGEBRA_TOL the
    cooling state stands in for it. Both are (N+1)-qubit density matrices of
    the register's dtype (float64 from ``cswap_evolve``), normalized to unit
    trace. Called as ``cswap_branches(cswap_evolve(n, r))`` it holds the only
    reference to the joint, which is freed as it returns, so a loop over grid
    points holds one joint at a time.
    """
    n, q = out.control_dim, out.target_dim
    blocks = out.joint.reshape(n, q, n, q)
    cool = blocks.sum(axis=(0, 2)) / n
    heat = np.einsum("iaib->ab", blocks) - cool
    p_c = float(np.trace(cool).real)
    p_h = float(np.trace(heat).real)
    heat = heat / p_h if p_h > ALGEBRA_TOL else cool / p_c
    return (cool / p_c, p_c), (heat, p_h)


def _qubit_count(rho: np.ndarray) -> int:
    """k for a square 2^k x 2^k array with k >= 2; ValueError for anything
    else, a ``SwitchOutput`` included."""
    if isinstance(rho, np.ndarray) and rho.ndim == 2 and rho.shape[0] == rho.shape[1]:
        k = rho.shape[0].bit_length() - 1
        if k >= 2 and rho.shape[0] == 1 << k:
            return k
    shape = getattr(rho, "shape", None)
    raise ValueError(
        f"expected a square 2^k x 2^k qubit register, k >= 2; got {type(rho).__name__} {shape}"
    )


def qubit_marginal(rho: np.ndarray, q: int) -> np.ndarray:
    """Single-qubit marginal of a qubit register; index 0 is the target, 1..N
    the reservoirs."""
    return qmat.partial_trace(rho, (2,) * _qubit_count(rho), keep={q})


def cswap_populations(n: int, r) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Branch probabilities and excited populations without the joint state.

    Returns (p_c, p_H, cooling, heating): the two branch probabilities and
    each branch's excited population of the target (index 0) and the N
    reservoir qubits (1..N). The Gibbs product is diagonal and the same on
    every qubit, so entry x of control block S_i rho S_j is rho(x) if
    pi_i(x) = pi_j(x), else 0, and swaps i != j agree exactly when
    reservoirs i and j both equal the target bit t. With m such reservoirs,
    x's cooling diagonal is rho(x)(N + m(m-1))/N^2 and its pooled heating
    diagonal rho(x)(N(N-1) - m(m-1))/N^2: summed over the 2(N+1) classes
    (t, w) of C(N, w) states with w excited reservoirs, no term is a
    difference, and each exchangeable reservoir holds the mean w/N. No
    branch closed form enters, so this is an oracle for them; the dense
    reference at n <= MAX_QUBITS is ``cswap_branches(cswap_evolve(n, r))``.

    ``r`` is a ratio or an array-like of ratios: p_c and p_H take its shape,
    the populations add an axis of N+1 qubits, and one ratio gives floats.
    The classes lie on the last axis, so each row sums as its one-ratio call.
    """
    _validate("cswap", n, 2, r)
    if n > MAX_POPULATION_QUBITS:
        raise ValueError(f"{n} reservoir qubits exceed the population guard (n <= {MAX_POPULATION_QUBITS})")
    t, w = np.divmod(np.arange(2 * (n + 1)), n + 1)  # class (t, w) at index t(N+1) + w
    comb = np.array([float(c) for c in _binomial_row(n)] * 2)
    weights = comb * np.asarray(r, dtype=float)[..., None] ** (t + w)
    agree = n + (m := np.where(t, w, n - w)) * (m - 1)
    # normalized before the 1/N^2, so a tiny ratio's terms stay normal; sums run
    # in long double, which on x86 Linux nearly always rounds them as math.fsum
    weights /= weights.sum(axis=-1, keepdims=True, dtype=np.longdouble).astype(float)
    branches = weights[..., None, :] * (np.array([agree, n**2 - agree]) / n**2)
    p = branches.sum(axis=-1, dtype=np.longdouble).astype(float)
    pops = np.stack([(branches * x).sum(axis=-1, dtype=np.longdouble).astype(float) / p for x in (t, w / n)], -1)
    pops = np.repeat(pops, [1, n], axis=-1)  # the target, then N exchangeable reservoirs
    return _out(p[..., 0]), _out(p[..., 1]), pops[..., 0, :], pops[..., 1, :]


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n) as exact integers, each from the one before:
    C(n, w+1) = C(n, w)(n - w) / (w + 1) divides exactly."""
    row = [1]
    for w in range(n):
        row.append(row[-1] * (n - w) // (w + 1))
    return row


def cooling_reservoir_marginal(n: int, r: float) -> np.ndarray:
    """Closed form for each reservoir qubit's cooling-branch marginal.

    Unnormalized over the branch: a mixture of the Gibbs state T and T^3 in
    which only 2(N-1) of the N(N-1) control off-diagonal terms contribute
    T^3; the rest contribute tr(T^3) * T. Normalization is the cooling
    probability, the same as for the working qubit. The weights live in the
    branch kernel ``fridge._kernel``.
    """
    _validate("cswap", n, 2, r)
    *_, x_res = _kernel("cswap", n, 2)(r, excited_weight(2, r))
    return degenerate_state(2, x_res)


def cooling_target_marginal(n: int, r: float) -> np.ndarray:
    """The working qubit's cooling-branch marginal: the cyclic-order switch's
    cooling state, which the controlled SWAP reproduces exactly."""
    return branch_stats(n, ThermalSpec.qubit(r)).rho_c


def cswap_energy_identity(n: int, r: float) -> tuple[float, float]:
    """Excited-population bookkeeping of the cooling branch.

    Returns (N * reservoir-qubit excited shift, 2 * target excited shift);
    the two are equal, which is how the total heat splits between the
    working qubit and the reservoir register.
    """
    (cooling, _), _ = cswap_branches(cswap_evolve(n, r))
    t_pop = excited_weight(2, r)
    res_pop = float(qubit_marginal(cooling, 1)[1, 1].real)
    tgt_pop = float(qubit_marginal(cooling, 0)[1, 1].real)
    return n * (res_pop - t_pop), 2 * (tgt_pop - t_pop)


@dataclass(frozen=True)
class DiscardSnapshot:
    """State of the register after thermalizing ``discarded`` qubits away."""

    discarded: tuple[int, ...]
    excited_populations: tuple[float, ...]
    heat_released: float  # energy given up by the discarded qubit, in gap units
    cumulative_heat: float


def sequential_discard(
    rho: np.ndarray, order: list[int], spec: ThermalSpec
) -> list[DiscardSnapshot]:
    """Thermalize the qubits of register ``rho`` one at a time, in the given order.

    Each step replaces one qubit with the Gibbs state of ``spec`` and books
    the energy difference as heat released to that reservoir (negative while
    the register is cold). The remaining qubits' marginals never move, so
    the cumulative heat is independent of the order and equals the
    all-at-once total. ``spec`` must be a qubit's.
    """
    if spec.dim != 2:
        raise ValueError(f"sequential_discard needs a qubit spec, got {spec}")
    n_sub = _qubit_count(rho)
    order = [int(q) for q in order]
    if sorted(set(order)) != sorted(order) or any(q < 0 or q >= n_sub for q in order):
        raise ValueError(f"invalid discard order {order} for {n_sub} qubits")
    t = gibbs_state(spec).real
    t_energy = float(t[1, 1])
    dims = (2,) * n_sub
    bits = _excited_bits(n_sub)
    pops = tuple(float(p) for p in rho.diagonal().real @ bits)
    snapshots = []
    cumulative = 0.0
    discarded: tuple[int, ...] = ()
    for q in order:
        released = pops[q] - t_energy
        rho = qmat.replace_subsystem(rho, dims, q, t)
        cumulative += released
        discarded = discarded + (q,)
        pops = tuple(float(p) for p in rho.diagonal().real @ bits)
        snapshots.append(
            DiscardSnapshot(
                discarded=discarded,
                excited_populations=pops,
                heat_released=released,
                cumulative_heat=cumulative,
            )
        )
    return snapshots


def ico_cswap_equivalent(r: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint outputs of the two-reservoir controlled-SWAP with and without
    superposed orderings.

    The ordered variant applies both SWAPs in the two possible sequences
    conditioned on the control; the plain variant, a single SWAP per branch,
    is ``cswap_evolve(2, r)``. For two reservoirs the two joint states
    coincide.
    """
    plain = cswap_evolve(2, r).joint
    rho_q = qmat.kron_all([gibbs_state(ThermalSpec.qubit(r)).real] * 3)
    s1 = _swap_permutation(3, 0, 1)
    s2 = _swap_permutation(3, 0, 2)
    # branch 0: swap R1 then R2; branch 1: reverse. Block (i, j) is rho
    # reindexed by the inverse permutations i and j; a permutation's argsort
    # is its inverse
    ordered = np.concatenate([np.argsort(s2[s1]), np.argsort(s1[s2])])
    return plain, _gather(rho_q, ordered, 2)

"""Coherent control over which of N identical channels acts (no order
superposition).

The control-target output has the channel's fixed point on every diagonal
block and M_k rho M_k'^dag on the off-diagonal blocks, where M_k is the
transformation matrix of path k's channel implementation. The closed form is
cross-checked here against an explicit purification: the control conditions
the Stinespring dilation unitaries of the channels, the environments are
traced out, and the two routes must agree entrywise. This payload is the
module's oracle; the interference scale (e.g. M = A/sqrt(2) for the
damping-based thermalizing channel, giving blocks of A rho A^dag / 2) is
whatever the dilation produces, never assumed. The purified vector is built
from broadcast outer products: one contraction applies every Kraus operator
to the purified state, and each path's branch is that result times the
environment vector of every other path, slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausSet, TransformationMatrix, apply_channel, thermalizing_kraus, transformation_matrix
from .measurement import build_basis, measure_control
from .nswitch import BranchStats, SwitchOutput, _from_blocks
from .thermal import ThermalSpec, gibbs_state

# Ceiling on the dilation's pure-state vector length.
DILATION_BUDGET = 10**6


@dataclass(frozen=True)
class TrajectoryConfig:
    """N paths sharing one channel implementation, one overlap list per path."""

    n: int
    kraus: KrausSet
    env_overlaps: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two paths")
        overlaps = tuple(tuple(complex(c) for c in o) for o in self.env_overlaps)
        if len(overlaps) != self.n:
            raise ValueError(f"{len(overlaps)} overlap lists for {self.n} paths")
        n_ops = len(self.kraus.operators)
        for o in overlaps:
            if len(o) != n_ops:
                raise ValueError("overlap list length must match Kraus operator count")
            norm = sum(abs(c) ** 2 for c in o)
            # weight below 1 is legal: the unit environment state may have
            # support outside the span of the dilation's pointer states
            if not norm <= 1.0 + 1e-9:  # a NaN weight fails too
                why = "exceeds 1" if np.isfinite(norm) else "is not finite"
                raise ValueError(f"environment overlap weight {norm} {why}")
        object.__setattr__(self, "env_overlaps", overlaps)

    def transformation_matrices(self) -> list[TransformationMatrix]:
        return [transformation_matrix(self.kraus, o) for o in self.env_overlaps]


def canonical_config(n: int, spec: ThermalSpec) -> TrajectoryConfig:
    """Damping-based thermalizing channels with environments on pointer 0.

    Every path's environment starts in the state flagged by the identity
    Kraus operator, so each transformation matrix is K_0 = A / sqrt(d).
    """
    kraus = thermalizing_kraus(spec)
    n_ops = len(kraus.operators)
    overlap = (1.0 + 0.0j,) + (0.0 + 0.0j,) * (n_ops - 1)
    return TrajectoryConfig(n=n, kraus=kraus, env_overlaps=(overlap,) * n)


def traj_output(cfg: TrajectoryConfig, rho: np.ndarray) -> SwitchOutput:
    """Closed-form control-target state for superposed channel paths.

    joint = (1/N)[ I (x) channel(rho) + sum_{k != k'} |k><k'| (x)
    M_k rho M_k'^dag ].
    """
    rho = np.asarray(rho, dtype=complex)
    d = cfg.kraus.dim
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {d}")
    ms = np.stack([tm.matrix for tm in cfg.transformation_matrices()])
    # every block M_k rho M_k'^dag from one stacked product
    cross = (ms @ rho)[:, None] @ ms.conj().transpose(0, 2, 1)[None]
    return _from_blocks(apply_channel(cfg.kraus, rho), cross)


def dilation_oracle(cfg: TrajectoryConfig, rho: np.ndarray) -> SwitchOutput:
    """Control-target state via explicit purification of everything.

    Purifies the working state, conditions each path's dilation isometry on
    the control, and traces out the purification ancilla and all channel
    environments. Independent of ``traj_output``.
    """
    rho = np.asarray(rho, dtype=complex)
    d = cfg.kraus.dim
    n = cfg.n
    n_ops = len(cfg.kraus.operators)
    # one extra environment level holds any overlap weight lying outside the
    # span of the pointer states
    e_dim = n_ops + 1
    size = n * d * d * e_dim**n
    if size > DILATION_BUDGET:
        raise ValueError(f"dilation vector of {size} amplitudes exceeds the desk budget")

    # Purify rho against a d-dimensional ancilla: psi[t, b] = sqrt(p_b) v_b[t].
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals.real, 0.0, None)
    psi = evecs * np.sqrt(evals)

    # (K_a (x) I) psi for every Kraus operator, one column per pointer level a
    # that flags it; no operator flags the extra level, whose column stays zero
    target_anc = np.zeros((d * d, e_dim), dtype=complex)
    target_anc[:, :n_ops] = np.einsum("aij,jb->iba", np.asarray(cfg.kraus.operators), psi).reshape(d * d, n_ops)

    env_states = []
    for o in cfg.env_overlaps:
        vec = np.zeros(e_dim, dtype=complex)
        vec[:n_ops] = np.conj(o)
        vec[n_ops] = np.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(vec) ** 2))))
        env_states.append(vec)

    # environment states shaped to broadcast along their own slot
    slots = [vec.reshape((1,) * j + (e_dim,) + (1,) * (n - 1 - j)) for j, vec in enumerate(env_states)]
    total = np.empty((n, d * d) + (e_dim,) * n, dtype=complex)
    for k in range(n):
        # path k's slot holds the pointer of the Kraus operator that acted,
        # every other slot its initial environment state
        env = np.ones((1,) * n, dtype=complex)
        for j in range(n):
            if j != k:
                env = env * slots[j]
        pointer = target_anc.reshape((d * d,) + (1,) * k + (e_dim,) + (1,) * (n - 1 - k))
        total[k] = pointer * env / np.sqrt(n)

    # Trace out ancilla + environments: they are the trailing tensor factors.
    m = total.reshape(n * d, -1)
    joint = m @ m.conj().T
    return SwitchOutput(joint=joint, control_dim=n, target_dim=d)


def traj_branches(cfg: TrajectoryConfig, spec: ThermalSpec) -> BranchStats:
    """Branch statistics at the operating point (working state = fixed point).

    Measures the closed-form output in the coherent control basis; all N-1
    heating outcomes must coincide, which holds whenever the paths share one
    overlap list.
    """
    t = gibbs_state(spec)
    out = traj_output(cfg, t)
    outcomes = measure_control(out, build_basis(cfg.n))
    cooling, heating = outcomes[0], outcomes[1:]
    p = np.array([o.probability for o in heating])
    states = np.array([o.state for o in heating])
    # one whole-array test, which a NaN fails
    if not (np.all(np.abs(p - p[0]) <= 1e-9) and np.all(np.abs(states - states[0]) <= 1e-9)):
        raise ValueError("heating branches differ; per-path overlaps must agree")
    return BranchStats(cfg.n, cooling.probability, heating[0].probability, cooling.state, heating[0].state)

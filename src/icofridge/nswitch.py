"""Quantum switch of N identical thermalizing channels over chosen causal orders.

Two independent routes to the control-target output state:

* ``switch_closed_form`` builds the analytic result for the cyclic-order
  construction: Gibbs state T on every diagonal control block and T rho T on
  every off-diagonal block.
* ``switch_bruteforce`` sums the full Kraus decomposition of the switch over
  all (d**2)**N channel-index tuples for an arbitrary set of causal orders:
  every tuple is formed and summed. It works in chunks that fix the Kraus
  indices of the leading channels; each order's products over the remaining
  channels come from tensor contractions with the Kraus stack, and one
  matrix product adds the chunk to every control block. It never looks at
  the closed form, which makes it the oracle that the closed form is tested
  against.

Branch statistics after the control measurement (one cooling branch
proportional to T + (N-1)T^3, N-1 identical heating branches proportional to
T - T^3) are read, for qubit and degenerate-qudit working systems, from
``fridge.OperatingPoint``; ``measure_control`` on ``switch_closed_form`` is
their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _product

import numpy as np

from .channels import thermalizing_kraus
from .fridge import OperatingPoint
from .qmat import ALGEBRA_TOL
from .thermal import ThermalSpec, degenerate_state

# Hard ceiling on the number of Kraus-index tuples the brute force will sum.
BRUTEFORCE_BUDGET = 10**6

# Most Kraus-index tuples formed at once. At n=7, d=2, 1 << 14 took twice
# as long and raised the tracemalloc peak from 7.6 MB to 30 MB.
_CHUNK = 1 << 12


@dataclass(frozen=True)
class OrderSet:
    """A set of causal orders, each a permutation of the channels 1..N.

    ``orders[k]`` is the sequence of channel labels applied on control branch
    k, first entry outermost (applied last).
    """

    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        orders = tuple(tuple(int(x) for x in o) for o in self.orders)
        if not orders:
            raise ValueError("need at least one causal order")
        n = len(orders[0])
        for o in orders:
            if sorted(o) != list(range(1, n + 1)):
                raise ValueError(f"{o} is not a permutation of 1..{n}")
        object.__setattr__(self, "orders", orders)

    @classmethod
    def cyclic(cls, n: int) -> "OrderSet":
        """The N rotations of (1, 2, ..., N); branch k starts at channel k+1."""
        if n < 2:
            raise ValueError("need at least two channels")
        base = list(range(1, n + 1))
        return cls(orders=tuple(tuple(base[k:] + base[:k]) for k in range(n)))

    @property
    def n_channels(self) -> int:
        return len(self.orders[0])

    @property
    def n_orders(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class SwitchOutput:
    """Joint control x target state of a coherently controlled scheme.

    The switch, its brute force, the trajectory outputs and the
    controlled-SWAP register (whose target is all N+1 qubits) return it.
    """

    joint: np.ndarray
    control_dim: int
    target_dim: int

    @property
    def blocks(self) -> np.ndarray:
        """The joint as an (N, d, N, d) array: ``blocks[i, :, j, :]`` is <i| . |j>."""
        n, d = self.control_dim, self.target_dim
        return self.joint.reshape(n, d, n, d)

    def block(self, i: int, j: int) -> np.ndarray:
        """Target-space block <i| . |j> of the control index."""
        return self.blocks[i, :, j, :]


def _from_blocks(fixed: np.ndarray, cross: np.ndarray) -> SwitchOutput:
    """Uniform-control register: block (i, j) is ``cross[i, j]`` / N and block
    (i, i) is ``fixed`` / N. ``cross`` (N, N, d, d), broadcast or not, is copied."""
    n, _, d, _ = cross.shape
    blocks = np.array(cross, dtype=np.result_type(fixed, cross))
    blocks[np.arange(n), np.arange(n)] = fixed
    joint = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    joint /= n
    return SwitchOutput(joint=joint, control_dim=n, target_dim=d)


def switch_closed_form(n: int, rho: np.ndarray, thermal_state: np.ndarray) -> SwitchOutput:
    """Analytic cyclic-order switch output for a uniform control state.

    joint = (1/N) [ I_N (x) T  +  sum_{i != j} |i><j| (x) T rho T ],
    real for real inputs and complex when either input is.
    """
    rho = np.asarray(rho)
    t = np.asarray(thermal_state)
    if rho.shape != t.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {t.shape}")
    if n < 2:
        raise ValueError("need at least two channels")
    return _from_blocks(t, np.broadcast_to(t @ rho @ t, (n, n) + t.shape))


def switch_bruteforce(orderset: OrderSet, rho: np.ndarray, spec: ThermalSpec) -> SwitchOutput:
    """Direct Kraus summation of the switch, independent of any closed form.

    Every control branch k applies the thermalizing channel's Kraus operators
    in the order ``orderset.orders[k]``; the output is the sum over all
    (d**2)**N index tuples of W (rho_c (x) rho) W^dag with a uniform control.
    Refuses (with the size report in the message) when the tuple count
    exceeds BRUTEFORCE_BUDGET.

    Every tuple is formed and summed, at most ``_CHUNK`` at a time. A chunk
    fixes the Kraus indices of the leading channels and runs the trailing
    ones over all their values. For each order, N-1 ``tensordot`` calls
    multiply the Kraus stack (a single operator for a fixed channel) into
    the product, so one array holds W for every tuple of the chunk. With L
    the rows (branch, output level) of W rho and R those of W, both over the
    columns (tuple, input level), the chunk adds L R^dag to all control
    blocks at once.
    """
    rho = np.asarray(rho, dtype=complex)
    d = spec.dim
    if rho.shape != (d, d):
        raise ValueError(f"working state shape {rho.shape} does not match dim {d}")
    n = orderset.n_channels
    m = orderset.n_orders
    n_ops = d * d
    n_tuples = n_ops**n
    if n_tuples > BRUTEFORCE_BUDGET:
        raise ValueError(
            f"enumeration of {n_tuples} Kraus tuples exceeds budget {BRUTEFORCE_BUDGET}"
        )

    kraus = np.stack(thermalizing_kraus(spec).operators)  # (d^2, d, d)
    # tuple digit j = channel j+1's Kraus index, base d^2, most significant
    # first; a chunk fixes the leading n_fixed digits and runs the rest
    n_free = 0
    while n_free < n and n_ops ** (n_free + 1) <= _CHUNK:
        n_free += 1
    n_fixed = n - n_free
    joint = np.zeros((m * d, m * d), dtype=complex)
    for fixed in _product(range(n_ops), repeat=n_fixed):
        factors = [kraus[[k]] for k in fixed] + [kraus] * n_free  # by channel label
        prods = []
        for order in orderset.orders:
            p = factors[order[0] - 1]
            for label in order[1:]:
                p = np.tensordot(p, factors[label - 1], axes=(-1, 1))
            # p's axes: order[0]'s index, output level, order[1:]'s indices,
            # input level; putting the indices in label order makes row t tuple t
            axis = {label: k + 1 for k, label in enumerate(order)}
            axis[order[0]] = 0
            perm = [1] + [axis[label] for label in range(1, n + 1)] + [n + 1]
            prods.append(p.transpose(perm).reshape(d, -1, d))
        w = np.stack(prods)  # (branch, output level, tuple, input level)
        # stacked (tuples, d) products, not one 2-D product: at n=7, d=2 the
        # tall 2-D one wakes a second BLAS thread, which stays 1.5 MB resident
        left = (w @ rho).reshape(m * d, -1)
        joint += left @ w.reshape(m * d, -1).conj().T
    joint /= m
    return SwitchOutput(joint=joint, control_dim=m, target_dim=d)


def noncyclic_order_set(n: int) -> OrderSet:
    """An explicit Latin-square order set other than the standard rotations.

    For n = 4 the rows are the powers of the 4-cycle 1->2->4->3->1 acting on
    the channel labels of (1,2,3,4); unlike position rotations, this family
    produces uniform off-diagonal blocks T^5 (not T rho T) at the thermal
    operating point. For n = 3 every Latin square is some rotation family, so
    the returned set (rotations of a transposed base sequence) still yields
    T^3, as does the cyclic preset.
    """
    if n == 3:
        return OrderSet(orders=((1, 3, 2), (2, 1, 3), (3, 2, 1)))
    if n == 4:
        return OrderSet(orders=((1, 2, 3, 4), (2, 4, 1, 3), (3, 1, 4, 2), (4, 3, 2, 1)))
    raise ValueError("explicit non-cyclic sets are provided for n in {3, 4} only")


@dataclass(frozen=True)
class BranchStats:
    """Post-measurement branch probabilities and working-system states."""

    n: int
    p_c: float
    p_h: float
    rho_c: np.ndarray
    rho_h: np.ndarray

    @property
    def p_heating_total(self) -> float:
        return (self.n - 1) * self.p_h


def branch_stats(n: int, spec: ThermalSpec) -> BranchStats:
    """Branch statistics at the operating point (working state = Gibbs state).

    Cooling branch state ~ T + (N-1) T^3 with probability tr(...)/N, each of
    the N-1 heating branches ~ T - T^3 with probability tr(T - T^3)/N. The
    normalized heating state does not depend on N. The states are the
    diagonal of the ``ico`` operating point at the ratio and dimension of
    ``spec``. At small r a D-level system's total heating probability is
    3 (N-1) (D-1) r / N: extra levels boost low-temperature heat transfer.
    """
    point = OperatingPoint.at("ico", n, spec.dim, spec.r)
    return BranchStats(
        n=n,
        p_c=point.p_c,
        p_h=point.p_h,
        rho_c=degenerate_state(spec.dim, point.e_cool),
        rho_h=degenerate_state(spec.dim, point.e_heat),
    )


def offdiagonal_blocks_equal(out: SwitchOutput) -> bool:
    """True when every off-diagonal control block agrees entrywise with
    <0| . |1> within ALGEBRA_TOL. A NaN entry fails; a one-order set, with no
    such block, passes."""
    off = out.blocks.transpose(0, 2, 1, 3)[~np.eye(out.control_dim, dtype=bool)]
    return bool(np.all(np.abs(off - off[:1]) <= ALGEBRA_TOL))

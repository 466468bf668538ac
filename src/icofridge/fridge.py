"""Refrigeration-cycle thermodynamics for the three cooling schemes.

Schemes
-------
``ico``
    Switch of N thermalizing channels in superposed cyclic orders; one
    working medium; heating branch ~ T - T^3.
``cswap``
    Controlled SWAP with accessible reservoir qubits; same branch
    probabilities as ``ico`` but N+1 working mediums, which exactly triples
    the weighted energy change and the optimal coefficient of performance.
``traj``
    Coherent choice among N channels. The cycle bookkeeping follows the
    closed forms used throughout the quantitative analysis of this scheme,
    with interference term A rho A^dag; the heating branch is then maximally
    mixed at every temperature, so a large enough hot reservoir lets the
    cold one approach absolute zero from any start. (The Stinespring
    dilation of the canonical implementation gives the weaker interference
    A rho A^dag / 2 -- see the trajectories module -- but the published
    temperature-limit and efficiency curves follow the convention used
    here.)

Every branch statistic in the package (switch, controlled SWAP, cycles,
demon, CLI tables) comes from one kernel, ``_branches``: the heralded
branches T + (N-1) M rho M^dag and T - M rho M^dag of a degenerate working
system, with M = T (``ico``, ``cswap``) or M = A (``traj``).

Reservoirs are mean field: a bath is its particle count and current ratio.
A refrigeration run iterates the bath state; the trace is derived from it.
Per cycle the reservoir energies move by the probability-weighted heat flows
of the two branches, which conserves total energy identically and drives the
cold ratio to the closed-form fixed point. After the loop, one kernel call on
the array of cold ratios the run passed through gives every cycle's branch
probabilities, and from them its register entropy, cumulative erasure work
and sampled branch label. Energies are in units of the level gap; work uses a
unit-inverse-temperature erasure reservoir.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

SCHEMES = ("ico", "cswap", "traj")

# Stop when the heating-branch medium matches the hot bath this closely in
# excited population; heat flow per cycle is numerically negligible below it.
STOP_POPULATION_TOL = 1e-6

# Stop when the cold ratio has iterated this close to absolute zero: the
# branch probabilities (hence all flows) vanish with r, so the run has frozen.
COLD_EXHAUSTED_TOL = 1e-7

# branch labels indexed by "cooling drawn": a trace's label list holds these
# two objects, not one new string per cycle
_LABELS = np.array(["heating", "cooling"], dtype=object)


def _validate_ratio(r: float) -> None:
    """Reject ratios outside (0, 1], NaN, and subnormal ratios, which carry
    fewer significant bits than a double and underflow in the kernel."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"ratio {r} outside (0, 1]")
    if r < sys.float_info.min:
        raise ValueError(f"ratio {r} is subnormal (below {sys.float_info.min})")


def _validate(scheme: str, n: int, dim: int, r: float) -> None:
    """Reject inputs the branch kernel is not defined for."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _validate_ratio(r)
    if n < 2:
        raise ValueError("need at least two channels")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if scheme in ("cswap", "traj") and dim != 2:
        raise ValueError(f"scheme {scheme!r} is defined for qubit working systems")


def _branches(scheme: str, n: int, dim: int, r: float, x):
    """The branch kernel: heralded branches of a degenerate working system.

    The input is diagonal with excited weight ``x`` spread evenly over the
    D-1 excited levels; T is the reservoirs' Gibbs state at ratio ``r``. The
    cooling branch is (T + (N-1) M rho M^dag)/N and each of the N-1 heating
    branches is (T - M rho M^dag)/N, with M = T (``ico``, ``cswap``) or
    M = A = sqrt(T) (``traj``).

    Returns (p_c, p_h, x_cool, x_heat, x_res): each branch's own trace, summed
    level by level, over N; its normalized excited weight; and for ``cswap``
    each reservoir qubit's cooling-branch excited weight from alpha T + beta
    T^3, valid at the thermal input only (None otherwise). Not validated;
    + - * / and one guard touch ``x``, so it may be a float or an array.
    """
    z = 1.0 + (dim - 1) * r
    g = 1.0 / z  # ground weight of T
    a = (dim - 1) * r / z  # excited weight of T
    k = r / z  # weight of each excited level of T
    # diagonal of M rho M^dag; the heating ground weight g - m_g is written
    # out (1 - g = a) because the subtraction loses every digit as r -> 0
    if scheme == "traj":
        m_g, m_e = g * (1.0 - x), k * x
        heat_g = g * x
    else:
        m_g, m_e = g * g * (1.0 - x), k * k * x
        heat_g = g * (a + g * x)
    cool_e = a + (n - 1) * m_e
    tr_c = g + (n - 1) * m_g + cool_e
    heat_e = a - m_e
    tr_h = heat_g + heat_e
    # tr_h > 0 for every r in (0, 1] unless it underflows; a heating branch
    # of zero weight passes its input through
    if isinstance(x, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            x_heat = np.where(tr_h > 0, heat_e / tr_h, x)
    else:
        x_heat = heat_e / tr_h if tr_h > 0 else x
    x_res = None
    if scheme == "cswap":
        alpha = (n + (n - 1) * (n - 2) * (m_g + m_e)) / (n * n)
        beta = 2 * (n - 1) / (n * n)
        x_res = (alpha * a + beta * m_e) / (alpha + beta * (m_g + m_e))
    return tr_c / n, tr_h / n, cool_e / tr_c, x_heat, x_res


def _bath_branches(scheme: str, n: int, dim: int, r: float):
    """Kernel at the thermal input, summed over working mediums.

    Returns (p_c, p_h, a, e_cool, e_heat, n_mediums), where ``a`` is the
    bath's excited weight. For ``cswap`` the N reservoir qubits are working
    mediums too, and the heating-branch sum follows from energy conservation.
    """
    a = _bath_energy(dim, r)
    p_c, p_h, x_cool, x_heat, x_res = _branches(scheme, n, dim, r, a)
    if scheme != "cswap":
        return p_c, p_h, a, x_cool, x_heat, 1
    e_cool = x_cool + n * x_res
    p_heating = (n - 1) * p_h
    if p_heating > 0:
        e_heat = ((n + 1) * a - p_c * e_cool) / p_heating
    else:
        e_heat = (n + 1) * a
    return p_c, p_h, a, e_cool, e_heat, n + 1


def branch_probabilities(n: int, r: float, scheme: str = "ico", dim: int = 2) -> tuple[float, float]:
    """(cooling probability, per-branch heating probability) for a scheme."""
    _validate(scheme, n, dim, r)
    p_c, p_h, *_ = _branches(scheme, n, dim, r, _bath_energy(dim, r))
    return p_c, p_h


def register_entropy(n: int, r: float, scheme: str = "ico", dim: int = 2) -> float:
    """Shannon entropy (nats) of the fine-grained measurement record.

    One cooling outcome and N-1 individually recorded heating outcomes:
    S = -p_c ln p_c - (N-1) p_h ln p_h.
    """
    p_c, p_h = branch_probabilities(n, r, scheme, dim)
    return _entropy(n, p_c, p_h)


def _entropy(n: int, p_c: float, p_h: float) -> float:
    return -_xlogx(p_c) - (n - 1) * _xlogx(p_h)


def work_cost(entropy: float, beta_r: float) -> float:
    """Erasure work for a register of given entropy against a bath at beta_r."""
    if entropy < 0:
        raise ValueError("entropy must be nonnegative")
    return entropy / beta_r


def weighted_energy_scheme(n: int, dim: int, r: float, scheme: str) -> float:
    """Average heat moved per cycle, summed over all working mediums."""
    _validate(scheme, n, dim, r)
    _, p_h, a, _, e_heat, n_med = _bath_branches(scheme, n, dim, r)
    return (n - 1) * p_h * (e_heat - n_med * a)


def cop(n: int, dim: int, r: float, r_hot: float, beta_r: float, scheme: str = "ico") -> float:
    """Coefficient of performance at cold ratio ``r`` and hot ratio ``r_hot``.

    Average heat drawn from the cold reservoirs (cooling-branch extraction
    minus the heat the mediums carry back from the hot bath on heating
    branches) divided by the register erasure work. Zero exactly when the
    hot bath matches the heating-branch mediums; maximal at r_hot = r.
    """
    _validate(scheme, n, dim, r)
    # no upper bound: stop_ratio may round just above 1 and cop is zero there
    if not 0.0 < r_hot < math.inf:
        raise ValueError(f"hot ratio {r_hot} must be positive and finite")
    p_c, p_h, a, _, e_heat, n_med = _bath_branches(scheme, n, dim, r)
    p_heating = (n - 1) * p_h
    a_hot = _bath_energy(dim, r_hot)
    numerator = p_heating * (e_heat - n_med * a) - p_heating * n_med * (a_hot - a)
    return numerator / work_cost(_entropy(n, p_c, p_h), beta_r)


def cop_normalized(n: int, dim: int, r: float, scheme: str = "ico") -> float:
    """Optimal-case COP divided by (gap * beta_R): weighted energy over entropy."""
    return weighted_energy_scheme(n, dim, r, scheme) / register_entropy(n, r, scheme, dim)


def stop_ratio(n: int, dim: int, r: float, scheme: str = "ico") -> float:
    """Hot-bath ratio at which the fridge stops: mean heating-medium state.

    At this r_hot the heating branch no longer dumps heat into the hot bath
    and the COP is exactly zero.
    """
    _validate(scheme, n, dim, r)
    _, _, _, _, e_heat, n_med = _bath_branches(scheme, n, dim, r)
    pop = e_heat / n_med
    x = pop / (1.0 - pop)
    return x / (dim - 1)


def lowest_r(scheme: str, r_start: float, k: float) -> float:
    """Closed-form lowest cold-reservoir ratio reachable from ``r_start``.

    ``k`` is the hot-to-cold particle ratio. Negative raw values clamp to 0
    (the cold side can approach absolute zero); the result never exceeds the
    starting ratio.
    """
    if not 0.0 < r_start <= 1.0:
        raise ValueError(f"starting ratio {r_start} outside (0, 1]")
    if not 0.0 < k < math.inf:
        raise ValueError(f"reservoir size ratio k={k} must be positive and finite")
    r = r_start
    if scheme == "ico":
        raw = (k - (2 * k + 3) * r) / (k * r - 3 - 2 * k)
    elif scheme == "traj":
        raw = (k - (k + 2) * r) / (k * r - 2 - k)
    else:
        raise ValueError(f"no closed-form temperature limit for scheme {scheme!r}")
    return min(max(raw, 0.0), r_start) + 0.0  # normalize -0.0


@dataclass(frozen=True)
class ReservoirEnsemble:
    """Mean-field reservoirs: particle counts and current ratios."""

    n_cold: float
    n_hot: float
    r_cold: float
    r_hot: float

    def __post_init__(self):
        for count in (self.n_cold, self.n_hot):
            if not 0.0 < count < math.inf:
                raise ValueError(f"particle count {count} must be positive and finite")
        for r in (self.r_cold, self.r_hot):
            if not 0.0 < r <= 1.0:
                raise ValueError(f"ratio {r} outside (0, 1]")

    @classmethod
    def from_ratio(cls, k: float, r_start: float, n_cold: float = 40.0) -> "ReservoirEnsemble":
        """Both baths drawn from one superbath at ``r_start``, sizes in ratio k."""
        return cls(n_cold=n_cold, n_hot=k * n_cold, r_cold=r_start, r_hot=r_start)

    @property
    def k(self) -> float:
        return self.n_hot / self.n_cold


@dataclass
class CycleTrace:
    """Per-cycle record of a refrigeration run."""

    scheme: str
    n: int
    dim: int
    seed: int
    n_cold: float = 0.0
    n_hot: float = 0.0
    r_start_cold: float = 1.0
    r_start_hot: float = 1.0
    max_cycles: int = 0
    cycles: list[int] = field(default_factory=list)
    branches: list[str] = field(default_factory=list)
    r_cold: list[float] = field(default_factory=list)
    r_hot: list[float] = field(default_factory=list)
    heat_cold: list[float] = field(default_factory=list)
    heat_hot: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)
    entropy: list[float] = field(default_factory=list)
    stop_reason: str = "budget"

    @property
    def final_r_cold(self) -> float:
        return self.r_cold[-1]

    @property
    def final_r_hot(self) -> float:
        return self.r_hot[-1]

    def audit_defect(self) -> float:
        """Largest per-cycle first-law violation (cold loss vs hot gain)."""
        if not self.cycles:
            return 0.0
        return max(abs(hc - hh) for hc, hh in zip(self.heat_cold, self.heat_hot))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(
            f"# config: command=cycle scheme={self.scheme} n={self.n} d={self.dim} "
            f"seed={self.seed} n_cold={self.n_cold:.12g} n_hot={self.n_hot:.12g} "
            f"r_start={self.r_start_cold:.12g} r_hot_start={self.r_start_hot:.12g} "
            f"max_cycles={self.max_cycles} stop={self.stop_reason}\n"
        )
        buf.write("cycle,branch,r_cold,r_hot,heat_cold,heat_hot,work,entropy\n")
        for row in zip(
            self.cycles,
            self.branches,
            self.r_cold,
            self.r_hot,
            self.heat_cold,
            self.heat_hot,
            self.work,
            self.entropy,
        ):
            buf.write(
                f"{row[0]},{row[1]},{row[2]:.12g},{row[3]:.12g},{row[4]:.12g},"
                f"{row[5]:.12g},{row[6]:.12g},{row[7]:.12g}\n"
            )
        return buf.getvalue()


def run_cycles(
    scheme: str,
    ensemble: ReservoirEnsemble,
    n: int,
    dim: int = 2,
    seed: int = 0,
    max_cycles: int = 200_000,
) -> CycleTrace:
    """Drive the fridge until the heating branch matches the hot bath.

    The loop iterates the bath state; the trace is derived from it. Each
    cycle rebuilds the branch statistics at the current cold ratio and
    applies the mean-field heat flows: cooling-branch extraction from the
    cold pool, and the heating mediums' round trip through the hot bath.
    Cold-side loss equals hot-side gain every cycle. The run stops when the
    heating-branch mediums match the hot bath within STOP_POPULATION_TOL in
    excited population, when the cold ratio falls below COLD_EXHAUSTED_TOL,
    or after ``max_cycles`` (at least 1) cycles.

    The loop records the cold ratio, the hot excited weight and the two
    flows of each cycle. After it, one kernel call on the cold ratios the
    run passed through gives every cycle's branch probabilities; from them
    come the register entropy, the cumulative erasure work and the branch
    labels, drawn from ``seed``'s generator one uniform per cycle.
    """
    _validate(scheme, n, dim, ensemble.r_cold)
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be at least 1, got {max_cycles}")
    nc, nh = ensemble.n_cold, ensemble.n_hot
    a_c = _bath_energy(dim, ensemble.r_cold)
    a_h = _bath_energy(dim, ensemble.r_hot)
    r_cold = r_first = _bath_ratio(dim, a_c)
    cold_ratios, hot_weights, heat_cold, heat_hot = [], [], [], []
    stop_reason = "budget"
    for _ in range(max_cycles):
        # branch statistics degenerate at absolute zero; freeze just above it
        r_c = 1e-12 if r_cold < 1e-12 else r_cold  # max(r_cold, 1e-12)
        p_c, p_h, _, e_cool, e_heat, n_med = _bath_branches(scheme, n, dim, r_c)
        p_heating = (n - 1) * p_h
        # heating-branch round trip: mediums equilibrate with the hot bath
        a_h_eq = (nh * a_h + e_heat) / (nh + n_med)
        d_cold = p_c * (e_cool - n_med * a_c) + p_heating * n_med * (a_h_eq - a_c)
        d_hot = p_heating * nh * (a_h_eq - a_h)
        a_c += d_cold / nc
        a_h += d_hot / nh
        r_cold = _bath_ratio(dim, a_c)
        cold_ratios.append(r_cold)
        hot_weights.append(a_h)
        heat_cold.append(-d_cold)
        heat_hot.append(d_hot)
        if abs(e_heat / n_med - a_h) < STOP_POPULATION_TOL:
            stop_reason = "converged"
            break
        if r_cold < COLD_EXHAUSTED_TOL:
            stop_reason = "cold-exhausted"
            break

    m = len(cold_ratios)
    # the ratio each cycle started from, clamped as in the loop
    r_c = np.maximum([r_first] + cold_ratios[:-1], 1e-12)
    p_c, p_h, *_ = _branches(scheme, n, dim, r_c, _bath_energy(dim, r_c))
    entropy = _entropy(n, p_c, p_h)
    cooling = np.random.default_rng(seed).random(m) < p_c
    return CycleTrace(
        scheme=scheme,
        n=n,
        dim=dim,
        seed=seed,
        n_cold=nc,
        n_hot=nh,
        r_start_cold=ensemble.r_cold,
        r_start_hot=ensemble.r_hot,
        max_cycles=max_cycles,
        cycles=list(range(1, m + 1)),
        branches=_LABELS[cooling.astype(int)].tolist(),
        r_cold=cold_ratios,
        r_hot=_bath_ratio(dim, np.array(hot_weights)).tolist(),
        heat_cold=heat_cold,
        heat_hot=heat_hot,
        work=np.cumsum(entropy).tolist(),  # erasure work at beta_R = 1
        entropy=entropy.tolist(),
        stop_reason=stop_reason,
    )


def _bath_energy(dim: int, r: float) -> float:
    x = (dim - 1) * r
    return x / (1.0 + x)


def _bath_ratio(dim: int, a):
    if isinstance(a, np.ndarray):
        a = np.clip(a, 0.0, 1.0 - 1e-15)
        return np.minimum(a / (1.0 - a) / (dim - 1), 1.0)
    # min(max(a, 0.0), 1 - 1e-15) and min(x, 1.0), spelled as conditionals:
    # the builtins cost about four times as much in the cycle loop
    a = 0.0 if a < 0.0 else a
    a = 1.0 - 1e-15 if a > 1.0 - 1e-15 else a
    x = a / (1.0 - a) / (dim - 1)
    return 1.0 if x > 1.0 else x


def _xlogx(p):
    if isinstance(p, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, p * np.log(p), 0.0)
    return p * math.log(p) if p > 0.0 else 0.0

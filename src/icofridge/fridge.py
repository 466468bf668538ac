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
demon, CLI tables) comes from one kernel, ``_kernel``: the heralded
branches T + (N-1) M rho M^dag and T - M rho M^dag of a degenerate working
system, with M = T (``ico``, ``cswap``) or M = A (``traj``). Every
statistic at a thermal input is read from one validated ``OperatingPoint``,
in one array call of the kernel. A ratio argument is a ratio or an
array-like of ratios (list, tuple or 1-d array); a list of N against it
gives N x len(r) arrays, and one ratio gives Python floats.

Reservoirs are mean field: a bath is its particle count and current ratio.
A refrigeration run builds its step once and makes one call to it per
cycle; it iterates the bath state, and the trace is derived from it. Per
cycle the reservoir energies move by the probability-weighted heat flows of
the two branches, which conserves total energy identically and drives the
cold ratio to the closed-form fixed point. After the loop, kernel calls
on arrays of the cold ratios the run passed through, at most
``_TRACE_SLICE`` cycles each, give every cycle's branch probabilities, and
from them its register entropy, cumulative erasure work and sampled branch
label. Energies are in units of the level gap; work uses a
unit-inverse-temperature erasure reservoir.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .thermal import _validate_family, _validate_ratio, excited_weight, ratio_of_weight

SCHEMES = ("ico", "cswap", "traj")

# Stop when the heating-branch medium matches the hot bath this closely in
# excited population; heat flow per cycle is numerically negligible below it.
STOP_POPULATION_TOL = 1e-6

# Stop when the cold ratio has iterated this close to absolute zero: the
# branch probabilities (hence all flows) vanish with r, so the run has frozen.
COLD_EXHAUSTED_TOL = 1e-7

# branch labels indexed by "cooling drawn": a trace's label array holds these
# two objects, not one new string per cycle
_LABELS = np.array(["heating", "cooling"], dtype=object)
# the trace's CSV column line, in the order to_csv passes the columns
_TRACE_COLUMNS = ("cycle", "branch", "r_cold", "r_hot", "heat_cold", "heat_hot", "work", "entropy")

# cycles per post-loop kernel call of run_cycles: bounds the kernel's
# temporaries, and one call covers nearly every run verify makes
_TRACE_SLICE = 8192


def _validate(scheme: str, n, dim: int, r) -> None:
    """Reject inputs the branch kernel is not defined for; N is an integer or
    a list of them, D an integer, and ``r`` a ratio or an array-like of
    them. Lists are checked in order, the ratios before N."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    for x in np.ravel(r).tolist():
        _validate_family(dim, x)
    for k in n if isinstance(n, list) else (n,):
        if operator.index(k) < 2:
            raise ValueError("need at least two channels")
        if (k - 1) * (k - 2 if scheme == "cswap" else 1) > sys.float_info.max:
            raise ValueError(f"number of channels overflows a float in the branch kernel: n={k}")
    if scheme in ("cswap", "traj") and dim != 2:
        raise ValueError(f"scheme {scheme!r} is defined for qubit working systems")


def _kernel(scheme: str, n, dim: int):
    """The branch kernel for one (scheme, N, D): returns ``step(r, x)``.

    The input is diagonal with excited weight ``x`` spread evenly over the
    D-1 excited levels; T is the reservoirs' Gibbs state at ratio ``r``. The
    cooling branch is (T + (N-1) M rho M^dag)/N and each of the N-1 heating
    branches is (T - M rho M^dag)/N, with M = T (``ico``, ``cswap``) or
    M = A = sqrt(T) (``traj``). The scheme dispatch and the N, D constants
    are resolved here, once per run; ``step`` holds the per-point algebra.

    ``step`` returns (p_c, p_h, x_cool, x_heat, x_res): each branch's own
    trace, summed level by level, over N; its normalized excited weight; and
    for ``cswap`` each reservoir qubit's cooling-branch excited weight from
    alpha T + beta T^3, valid at the thermal input only (None otherwise). Not
    validated; only + - * / touch ``x``, a float or an array. Without ``x``
    the input is thermal: ``x`` is T's own excited weight, the value
    ``thermal.excited_weight(dim, r)`` gives.

    Each N constant, and D-1, is rounded once from its exact integer: a
    float for one N, an N x 1 column for a list of N, which makes every
    output but x_heat (free of N) an N x len(x) array. A float scalar run
    through ``step`` thus meets only floats.
    """
    d1 = float(dim - 1)
    traj, cswap = scheme == "traj", scheme == "cswap"
    grid = isinstance(n, list)
    # only cswap reads n^2, (n-1)(n-2) and 2(n-1)/n^2, and only its guard keeps them finite
    exact = [
        (k, k - 1, k * k, (k - 1) * (k - 2), 2 * (k - 1) / (k * k)) if cswap else (k, k - 1, 0, 0, 0)
        for k in (n if grid else [n])
    ]
    consts = np.array([[float(v) for v in row] for row in exact])
    n, n1, nn, c_alpha, beta = consts.T[:, :, None] if grid else consts[0].tolist()

    def step(r, x=None):
        dr = d1 * r
        z = 1.0 + dr
        g = 1.0 / z  # ground weight of T
        a = dr / z  # excited weight of T
        k = r / z  # weight of each excited level of T
        if x is None:
            x = a
        # diagonal of M rho M^dag; the heating weights g - m_g and a - m_e are
        # written out (1 - g = a, a = (D-1) k) because the subtractions lose
        # every digit as r -> 0 and, for traj at D = 2, as x -> 1
        if traj:
            m_g, m_e = g * (1.0 - x), k * x
            heat_g, heat_e = g * x, k * (d1 - x)
        else:
            m_g, m_e = g * g * (1.0 - x), k * k * x
            heat_g, heat_e = g * (a + g * x), a - m_e
        cool_e = a + n1 * m_e
        tr_c = g + n1 * m_g + cool_e
        # tr_h > 0 at every ratio the ratio rule admits, so no guard divides by it
        tr_h = heat_g + heat_e
        x_res = None
        if cswap:
            alpha = (n + c_alpha * (m_g + m_e)) / nn
            x_res = (alpha * a + beta * m_e) / (alpha + beta * (m_g + m_e))
        return tr_c / n, tr_h / n, cool_e / tr_c, heat_e / tr_h, x_res

    return step


class OperatingPoint(NamedTuple):
    """Branch statistics of one (scheme, N, D) at the thermal input of ratio r,
    or in arrays over ratios and a list of N (see ``at``).

    ``p_c`` is the cooling probability and ``p_h`` that of each of the
    ``n_heat`` = N-1 heating branches; ``a`` is the bath's excited weight.
    ``e_cool`` and ``e_heat`` are the branches' excited weights summed over
    the ``n_med`` working mediums: for ``cswap`` the N reservoir qubits are
    working mediums too, and the heating-branch sum follows from energy
    conservation.
    """

    n: int
    dim: int
    p_c: float
    p_h: float
    a: float
    e_cool: float
    e_heat: float
    n_med: int
    n_heat: int

    @classmethod
    def at(cls, scheme: str, n, dim: int, r) -> "OperatingPoint":
        """Validate (scheme, N, D, r) and evaluate the kernel there once.

        ``n`` is an integer or a list of them. Each float field is an array
        over the ratios, N x len(r) over a list of N, whose N columns ``n``,
        ``n_heat`` and ``n_med`` are then N x 1 float columns; one ratio
        gives floats. A heating probability that underflows to 0 (huge N at
        a tiny r) is rejected, naming the first such N and r: the heating
        branch and the register entropy vanish there.
        """
        _validate(scheme, n, dim, r)
        rs = np.array(r, dtype=float)
        a = excited_weight(dim, rs)
        p_c, p_h, e_cool, e_heat, x_res = _kernel(scheme, n, dim)(rs, a)
        grid = isinstance(n, list)
        if not p_h.all():
            i, j = np.argwhere(np.reshape(p_h, (-1, rs.size)) == 0.0)[0]
            k = n[i] if grid else n
            raise ValueError(f"heating probability underflows to 0 at n={k}, d={dim}, r={rs.ravel().tolist()[j]}")
        if grid:
            n, n_heat, n_plus = np.array([[float(k), float(k - 1), float(k + 1)] for k in n]).T[:, :, None]
        else:
            n_heat, n_plus = n - 1, n + 1
        n_med = 1
        if scheme == "cswap":
            n_med = n_plus
            e_cool, e_heat = _cswap_mediums(n, n_med, a, p_c, n_heat * p_h, e_cool, x_res)
        if grid:  # a and x_heat are free of N
            a, e_heat = (np.broadcast_to(v, p_c.shape) for v in (a, e_heat))
        return cls(n, dim, *map(_out, (p_c, p_h, a, e_cool, e_heat)), n_med, n_heat)

    @property
    def p_heating(self) -> float:
        """Total probability of the N-1 heating branches."""
        return self.n_heat * self.p_h

    @property
    def entropy(self) -> float:
        """Shannon entropy (nats) of the fine-grained measurement record.

        One cooling outcome and N-1 individually recorded heating outcomes:
        S = -p_c ln p_c - (N-1) p_h ln p_h. Every log comes from ``math.log``,
        mapped once over both probabilities: ``np.log`` may miss it by an ulp.
        """
        p = np.array([self.p_c, self.p_h])
        log_c, log_h = np.fromiter(map(math.log, p.ravel().tolist()), float, p.size).reshape(p.shape)
        return _out(-(self.p_c * log_c) - self.n_heat * (self.p_h * log_h))

    @property
    def weighted_energy(self) -> float:
        """Average heat moved per cycle, summed over all working mediums."""
        return self.n_heat * self.p_h * (self.e_heat - self.n_med * self.a)

    @property
    def stop_ratio(self) -> float:
        """Hot-bath ratio at which the fridge stops: mean heating-medium state.

        At this r_hot the heating branch no longer dumps heat into the hot
        bath and the COP is exactly zero.
        """
        pop = self.e_heat / self.n_med
        return pop / (1.0 - pop) / (self.dim - 1)


def _cswap_mediums(n, n_med, a, p_c, p_heating, x_cool, x_res):
    """cswap's (e_cool, e_heat) from one kernel step at bath weight ``a``.

    The target and the N reservoir qubits are the ``n_med`` = N+1 working
    mediums; the heating-branch sum follows from energy conservation, and
    falls back to the thermal sum when the heating branches have no weight.
    Only a float step from ``run_cycles`` can have none: ``OperatingPoint.at``
    rejects it.
    """
    e_cool = x_cool + n * x_res
    if isinstance(p_heating, float) and not p_heating > 0:
        return e_cool, n_med * a
    return e_cool, (n_med * a - p_c * e_cool) / p_heating


def _out(v):
    """A result as returned: an array, or a Python float for a 0-d one,
    since numpy 2 prints a numpy scalar as ``np.float64(...)``."""
    return v if np.ndim(v) else float(v)


def work_cost(entropy, beta_r: float):
    """Erasure work for a register of given entropy, one value or an
    array-like of them, against a bath at beta_r; an error names the first
    entry at fault."""
    entropy = np.asarray(entropy)
    if (entropy < 0).any():
        raise ValueError("entropy must be nonnegative")
    if not 0.0 < beta_r < math.inf:
        raise ValueError(f"erasure inverse temperature beta_r={beta_r} must be positive and finite")
    with np.errstate(over="ignore"):  # the overflow is reported below, naming its entropy
        work = entropy / beta_r
    overflows = entropy[work == math.inf].tolist()
    if overflows:
        raise ValueError(f"erasure work overflows at beta_r={beta_r} (entropy {overflows[0]})")
    return _out(work)


def cop(n, dim: int, r, r_hot, beta_r: float, scheme: str = "ico"):
    """Coefficient of performance at cold ratio ``r`` and hot ratio ``r_hot``.

    Average heat drawn from the cold reservoirs (cooling-branch extraction
    minus the heat the mediums carry back from the hot bath on heating
    branches) divided by the register erasure work. Zero exactly when the
    hot bath matches the heating-branch mediums; maximal at r_hot = r.

    The values are shaped as ``OperatingPoint.at``'s fields, from one call
    of it; ``r_hot`` is one ratio or an array-like as long as ``r``. An
    ``r_hot`` equal to ``r`` has passed ``r``'s checks; any other is checked
    once per value, all before the work checks, which run over the whole
    array.
    """
    point = OperatingPoint.at(scheme, n, dim, r)
    hot = np.ravel(r_hot).tolist()
    if hot != np.ravel(r).tolist():
        for h in hot:
            # no upper bound: stop_ratio may round just above 1 and cop is zero there;
            # the ratio rule still rejects a subnormal r_hot
            if not 0.0 < h < math.inf:
                raise ValueError(f"hot ratio {h} must be positive and finite")
            _validate_ratio(min(h, 1.0))
            if math.isnan(excited_weight(dim, h)):  # (dim - 1) * r_hot overflows
                raise ValueError(f"hot ratio {h} overflows the bath energy at d={dim}")
    a_hot = excited_weight(dim, np.array(r_hot, dtype=float))
    numerator = point.weighted_energy - point.p_heating * point.n_med * (a_hot - point.a)
    return _out(numerator / work_cost(point.entropy, beta_r))


def lowest_r(scheme: str, r_start, k):
    """Closed-form lowest cold-reservoir ratio reachable from ``r_start``.

    ``k`` is the hot-to-cold particle ratio. Negative raw values clamp to 0
    (the cold side can approach absolute zero); the result never exceeds the
    starting ratio.

    ``k`` may be an array-like that broadcasts against ``r_start`` (a
    column of k for a k x r grid); the result is their broadcast array. The
    checks run in this order: the first ratio; each k; the scheme; each k's
    overflow; then the other ratios.
    """
    r, k = np.asarray(r_start), np.asarray(k)
    ratios, sizes = r.ravel().tolist(), k.ravel().tolist()
    _validate_ratio(ratios[0])
    for x in sizes:
        _validate_size(f"reservoir size ratio k={x}", x)
    if scheme not in ("ico", "traj"):
        raise ValueError(f"no closed-form temperature limit for scheme {scheme!r}")
    for x in sizes:
        if scheme == "ico" and 2 * x == math.inf:
            raise ValueError(f"reservoir size ratio k={x} overflows the temperature limit")
    for x in ratios[1:]:
        _validate_ratio(x)
    if scheme == "ico":
        num, den = k - (2 * k + 3) * r, k * r - 3 - 2 * k
    else:
        # below -k for ico, but traj's rounds to 0 once k (1 - r) is lost next to k
        num, den = k - (k + 2) * r, k * r - 2 - k
    if not den.all():
        x, y = (np.broadcast_to(v, den.shape)[den == 0.0].tolist()[0] for v in (k, r))
        raise ValueError(f"reservoir size ratio k={x} is too large for the temperature limit at r_start={y}")
    return _out(np.minimum(np.maximum(num / den, 0.0), r) + 0.0)  # + 0.0 normalizes -0.0


@dataclass(frozen=True)
class ReservoirEnsemble:
    """Mean-field reservoirs: particle counts and current ratios."""

    n_cold: float
    n_hot: float
    r_cold: float
    r_hot: float

    def __post_init__(self):
        for count in (self.n_cold, self.n_hot):
            _validate_size(f"particle count {count}", count)
        for r in (self.r_cold, self.r_hot):
            _validate_ratio(r)

    @classmethod
    def from_ratio(cls, k: float, r_start: float, n_cold: float) -> "ReservoirEnsemble":
        """Both baths drawn from one superbath at ``r_start``, sizes in ratio k.

        ``k`` is checked itself, so an error names it rather than the
        product ``k * n_cold``, including when that product over- or
        underflows.
        """
        _validate_size(f"reservoir size ratio k={k}", k)
        n_hot = k * n_cold
        if _is_normal(n_cold) and not _is_normal(n_hot):
            flow = "overflows" if n_hot == math.inf else "underflows"
            raise ValueError(f"reservoir size ratio k={k} {flow} the hot particle count at n_cold={n_cold}")
        return cls(n_cold=n_cold, n_hot=n_hot, r_cold=r_start, r_hot=r_start)

    @property
    def k(self) -> float:
        return self.n_hot / self.n_cold


@dataclass
class CycleTrace:
    """Per-cycle record of a refrigeration run.

    ``run_cycles`` fills each column with a numpy array: ``cycles`` int,
    ``branches`` an object array of the two shared labels, and the six
    numbers float64, about 64 bytes per cycle in all. A hand-built trace
    may pass lists; ``audit_defect`` and ``to_csv`` take either.
    """

    cycles: np.ndarray = field(default_factory=list)
    branches: np.ndarray = field(default_factory=list)
    r_cold: np.ndarray = field(default_factory=list)
    r_hot: np.ndarray = field(default_factory=list)
    heat_cold: np.ndarray = field(default_factory=list)
    heat_hot: np.ndarray = field(default_factory=list)
    work: np.ndarray = field(default_factory=list)
    entropy: np.ndarray = field(default_factory=list)
    stop_reason: str = "budget"

    @property
    def final_r_cold(self) -> float:
        return float(self.r_cold[-1])

    def audit_defect(self) -> float:
        """Largest per-cycle first-law violation (cold loss vs hot gain)."""
        if len(self.cycles) == 0:
            return 0.0
        # np.max keeps a NaN violation, where the builtin max may drop it
        return float(np.max(np.abs(np.subtract(self.heat_cold, self.heat_hot))))

    def to_csv(self) -> Iterator[str]:
        """The trace as CSV strings from ``cli._text``, the writer of every
        table: the column line, then one string per block of rows; ``cli``
        writes the config header. Each block's columns become Python numbers
        once, so the whole table is never held."""
        # cli imports this module, so its writer is imported at the call
        from .cli import _text

        numbers = (self.r_cold, self.r_hot, self.heat_cold, self.heat_hot, self.work, self.entropy)
        cells = [np.asarray(self.cycles), iter(self.branches), *(np.asarray(x, dtype=float) for x in numbers)]
        return _text(_TRACE_COLUMNS, cells, len(self.cycles), "csv")


def run_cycles(
    scheme: str,
    ensemble: ReservoirEnsemble,
    n: int,
    dim: int = 2,
    seed: int = 0,
    max_cycles: int = 200_000,
) -> CycleTrace:
    """Drive the fridge until the heating branch matches the hot bath.

    The loop iterates the bath state; the trace is derived from it. The
    kernel's step is built once, before the loop; each cycle calls it at the
    current cold ratio, on the thermal input the step weighs itself (the
    ratio update is inline; cswap's medium sums come from
    ``_cswap_mediums``, as in ``OperatingPoint.at``), and applies the
    mean-field heat flows: cooling-branch extraction from the cold pool, and
    the heating mediums' round trip through the hot bath. Every constant
    the loop reads (N-1, D-1, the medium count, the bath sizes and nh plus
    the medium count) is made a float once, before it: each is exact in a
    float, so every value is the one the ints give, and each per-cycle
    operation is a float-float one, which CPython runs on its specialised
    opcodes. Cold-side loss equals hot-side gain every cycle. The run stops
    when the heating-branch mediums match the hot bath within
    STOP_POPULATION_TOL in excited population, when the cold ratio falls
    below COLD_EXHAUSTED_TOL, or after ``max_cycles`` (at least 1) cycles.

    The loop records the cold ratio, the hot excited weight and the two
    flows of each cycle in float64 buffers, which the trace's arrays then
    share. After it, one kernel call per ``_TRACE_SLICE`` cycles on the cold
    ratios the run passed through gives every cycle's branch probabilities
    and register entropy, written into two preallocated arrays, so the
    kernel's temporaries span one slice, not the run. The cumulative erasure
    work and the branch labels, drawn from ``seed``'s generator one uniform
    per cycle, are then taken over the whole run.
    """
    _validate(scheme, n, dim, ensemble.r_cold)
    if max_cycles < 1:
        raise ValueError(f"max_cycles must be at least 1, got {max_cycles}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    nc, nh = float(ensemble.n_cold), float(ensemble.n_hot)
    a_c = excited_weight(dim, ensemble.r_cold)
    a_h = excited_weight(dim, ensemble.r_hot)
    r_cold = r_first = float(ratio_of_weight(dim, a_c))
    # 8 bytes per value, where a list holds a pointer and a boxed float
    cold_ratios, hot_weights, heat_cold, heat_hot = (array("d") for _ in range(4))
    stop_reason = "budget"
    step = _kernel(scheme, n, dim)
    cswap = scheme == "cswap"
    # the loop's constants as floats (see above)
    n_f, n1, d1 = float(n), float(n - 1), float(dim - 1)
    n_med = float(n + 1) if cswap else 1.0  # working mediums per branch
    nh_med = nh + n_med
    put_cold, put_hot, put_heat_cold, put_heat_hot = (
        b.append for b in (cold_ratios, hot_weights, heat_cold, heat_hot)
    )
    for _ in range(max_cycles):
        # OperatingPoint.at(scheme, n, dim, r_cold), inlined; step weighs its
        # own thermal input
        p_c, p_h, e_cool, e_heat, x_res = step(r_cold)
        p_heating = n1 * p_h
        if cswap:
            x = d1 * r_cold
            e_cool, e_heat = _cswap_mediums(n_f, n_med, x / (1.0 + x), p_c, p_heating, e_cool, x_res)
        # heating-branch round trip: mediums equilibrate with the hot bath
        a_h_eq = (nh * a_h + e_heat) / nh_med
        d_cold = p_c * (e_cool - n_med * a_c) + p_heating * n_med * (a_h_eq - a_c)
        d_hot = p_heating * nh * (a_h_eq - a_h)
        a_c += d_cold / nc
        a_h += d_hot / nh
        # thermal.ratio_of_weight(dim, a_c), inlined; min and max are spelled
        # as conditionals because the builtins cost about four times as much
        a = 0.0 if a_c < 0.0 else a_c
        a = 1.0 - 1e-15 if a > 1.0 - 1e-15 else a
        x = a / (1.0 - a) / d1
        r_cold = 1.0 if x > 1.0 else x
        put_cold(r_cold)
        put_hot(a_h)
        put_heat_cold(-d_cold)
        put_heat_hot(d_hot)
        if abs(e_heat / n_med - a_h) < STOP_POPULATION_TOL:
            stop_reason = "converged"
            break
        if r_cold < COLD_EXHAUSTED_TOL:
            stop_reason = "cold-exhausted"
            break

    m = len(cold_ratios)
    cold = np.frombuffer(cold_ratios)
    p_c, entropy = np.empty(m), np.empty(m)
    for start in range(0, m, _TRACE_SLICE):
        stop = min(start + _TRACE_SLICE, m)
        # the ratio each cycle started from
        r_c = cold[start - 1 : stop - 1] if start else np.concatenate(([r_first], cold[: stop - 1]))
        p_c[start:stop], p_h, *_ = step(r_c)
        entropy[start:stop] = -_xlogx(p_c[start:stop]) - n1 * _xlogx(p_h)
    cooling = np.random.default_rng(seed).random(m) < p_c
    return CycleTrace(
        cycles=np.arange(1, m + 1),
        branches=_LABELS[cooling.astype(int)],
        r_cold=cold,
        r_hot=ratio_of_weight(dim, np.frombuffer(hot_weights)),
        heat_cold=np.frombuffer(heat_cold),
        heat_hot=np.frombuffer(heat_hot),
        work=np.cumsum(entropy),  # erasure work at beta_R = 1
        entropy=entropy,
        stop_reason=stop_reason,
    )


def _is_normal(x: float) -> bool:
    """Positive, finite and not subnormal (False for NaN)."""
    return sys.float_info.min <= x < math.inf


def _validate_size(name: str, x: float) -> None:
    """Reject a size that is not positive, finite and normal; ``name`` starts the message."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    if not _is_normal(x):
        raise ValueError(f"{name} is subnormal (below {sys.float_info.min})")


def _xlogx(p):
    if isinstance(p, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, p * np.log(p), 0.0)
    return p * math.log(p) if p > 0.0 else 0.0

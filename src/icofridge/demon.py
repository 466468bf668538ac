"""Maxwell-demon-like sorting experiments on a sample of thermal particles.

A sample of k particles (tiny against the reservoirs, which therefore stay at
ratio r throughout) is sent one by one through the superposed thermalisation,
the control is measured, and each particle is dropped into the hot box C
(heating branch) or the cold box D (cooling branch). Everything is diagonal
in the energy basis, so a particle is just its total excited population; the
whole sample evolves as vectorized closed-form maps plus one uniform draw per
particle per round.

Multiple rounds feed each particle's evolved state back into the channels
while the reservoirs stay fixed. The expected energy moved between the boxes
does not grow with rounds (the branch-averaged state after one pass is the
reservoir Gibbs state, and the transferred energy is linear in the input
state), but the distribution spreads: a particle that got cold and then
draws a heating branch overshoots, up to population inversion.

The oracle for that invariance, ``expected_transfer_exact``, walks the exact
branch tree one level at a time: each depth's histories are one array, and
one kernel call per level gives all their children. It draws nothing and
shares no code with the sampled rounds beyond the branch kernel itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fridge import _kernel, _validate
from .thermal import _validate_ratio, excited_weight, inversion_weight

# particles or table entries per slice of a round: bounds its draw, gather
# and kernel buffers
_CHUNK = 2**16


@dataclass(frozen=True)
class DemonConfig:
    particles: int
    n: int
    r: float
    dim: int = 2
    scheme: str = "ico"
    rounds: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.particles < 1 or self.rounds < 1:
            raise ValueError("particles and rounds must be positive")
        if not 0 <= self.seed < 2**128:  # Philox's key range
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.scheme not in ("ico", "traj"):
            raise ValueError("demon runs support schemes 'ico' and 'traj'")
        _validate(self.scheme, self.n, self.dim, self.r)


@dataclass
class DemonReport:
    """Outcome of one seeded demon run; bit-identical for identical configs."""

    config: DemonConfig
    final_energies: np.ndarray  # per-particle mean energy, units of the gap
    heated: np.ndarray  # True -> box C, False -> box D (final round)
    rounds_heated_count: list[int] = field(default_factory=list)

    @property
    def initial_energy(self) -> float:
        """Per-particle energy of the thermal sample."""
        return excited_weight(self.config.dim, self.config.r)

    @property
    def cooled_count(self) -> int:
        return int(np.count_nonzero(~self.heated))

    @property
    def heated_count(self) -> int:
        return int(np.count_nonzero(self.heated))

    @property
    def initial_total_energy(self) -> float:
        return self.initial_energy * self.config.particles

    @property
    def box_c_energy(self) -> float:
        return float(np.sum(self.final_energies[self.heated]))

    @property
    def box_d_energy(self) -> float:
        return float(np.sum(self.final_energies[~self.heated]))

    @property
    def transferred_fraction(self) -> float:
        """Energy gained by the hot box over the sample's initial energy."""
        gained = self.box_c_energy - self.heated_count * self.initial_energy
        return gained / self.initial_total_energy

    def energy_change_ratios(self) -> np.ndarray:
        """(E_final - E_0) / E_0 per particle."""
        return (self.final_energies - self.initial_energy) / self.initial_energy

    def histogram(self):
        """Per-box counts over 50 uniform bins of the energy-change ratio.

        Returns (edges, counts_box_c, counts_box_d).
        """
        ratios = self.energy_change_ratios()
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if hi <= lo:
            hi = lo + 1e-12
        edges = np.linspace(lo, hi, 50 + 1)
        c_counts, _ = np.histogram(ratios[self.heated], bins=edges)
        d_counts, _ = np.histogram(ratios[~self.heated], bins=edges)
        return edges, c_counts, d_counts


def _rounds(cfg: DemonConfig):
    """Yield (table, code, heated) after each round, from one uniform draw
    per particle per round: particle i's excited weight is
    ``table[code[i]]`` and its box is ``heated[i]`` (True -> C).

    A particle's weight is fixed by its branch history, so the kernel runs on
    a table of the distinct histories' weights: ``code`` indexes a particle's
    history, and each round doubles the table to the interleaved (cooling,
    heating) children. The table is compacted to the histories still held
    once it outgrows the sample, which bounds it for any number of rounds.

    Every code is below min(2**rounds, 2 * particles): the table doubles
    each round and, once compacted, holds at most one entry per particle.
    ``code`` (and the compaction's rank remap) therefore take the narrowest
    unsigned dtype that holds the largest code, 1 or 2 bytes per particle at
    up to 16 rounds or 32,768 particles, instead of 8.

    Every loop runs over ``_CHUNK``-sized slices, so a round holds no
    temporaries the size of the sample or the table. The kernel writes each
    slice's heating probabilities and children into preallocated arrays;
    ``code`` and ``heated`` are updated in place, so the yielded ones are
    overwritten by the next round. Each chunk's draws continue one generator
    stream, the same numbers as a single (rounds, particles) draw. Consumers
    gather ``table[code]`` only for the rounds they read; a fancy index casts
    the narrow codes chunk by chunk, so the gather holds no intp copy of them.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    step = _kernel(cfg.scheme, cfg.n, cfg.dim)
    table = np.array([excited_weight(cfg.dim, cfg.r)])
    code = np.zeros(cfg.particles, dtype=np.min_scalar_type(min(2**cfg.rounds, 2 * cfg.particles) - 1))
    heated = np.empty(cfg.particles, dtype=bool)
    u = np.empty(min(_CHUNK, cfg.particles))
    for _ in range(cfg.rounds):
        parent = table
        ph = np.empty(parent.size)
        table = np.empty(2 * parent.size)
        for start in range(0, parent.size, _CHUNK):
            stop = min(start + _CHUNK, parent.size)
            _, p_h, x_cool, x_heat, _ = step(cfg.r, parent[start:stop])
            np.multiply(cfg.n - 1, p_h, out=ph[start:stop])
            table[2 * start : 2 * stop : 2] = x_cool
            table[2 * start + 1 : 2 * stop : 2] = x_heat
        del parent, p_h, x_cool, x_heat
        for start in range(0, cfg.particles, _CHUNK):
            c, h = code[start : start + _CHUNK], heated[start : start + _CHUNK]
            # an intp copy of the chunk indexes three times as fast as the narrow codes
            np.less(rng.random(out=u[: c.size]), ph[c.astype(np.intp)], out=h)
            c <<= 1
            c += h
        # the probabilities go before the compaction builds its arrays
        del ph
        if table.size > cfg.particles:
            # the held histories in sorted order, as np.unique lists them,
            # and each one's rank among them as its new code; a held code's
            # count is at least 1, so the unsigned subtraction never wraps
            held = np.zeros(table.size, dtype=bool)
            for start in range(0, cfg.particles, _CHUNK):
                held[code[start : start + _CHUNK]] = True
            remap = np.cumsum(held, dtype=code.dtype)
            for start in range(0, cfg.particles, _CHUNK):
                c = code[start : start + _CHUNK]
                np.subtract(remap[c], 1, out=c)
            table = table[held]
            del held, remap
        yield table, code, heated


def run_demon(cfg: DemonConfig) -> DemonReport:
    """Sort a thermal sample by heralded branch over one or more rounds;
    only the last round's weights are gathered."""
    heated_counts = []
    for table, code, heated in _rounds(cfg):
        heated_counts.append(int(np.count_nonzero(heated)))
    return DemonReport(cfg, table[code], heated, heated_counts)


def expected_transfer_exact(n: int, dim: int, r: float, rounds: int, scheme: str = "ico") -> float:
    """Exact branch-tree expectation of the transferred fraction.

    Walks all 2**rounds branch histories one level at a time; the
    transferred energy is booked against the final round's box assignment.
    Independent of run_demon's sampling, this is the oracle for the
    rounds-invariance of the expected transfer.
    """
    if rounds > 16:
        raise ValueError("branch tree is desk-scale only (rounds <= 16)")
    DemonConfig(particles=1, n=n, r=r, dim=dim, scheme=scheme, rounds=rounds)  # validates
    step = _kernel(scheme, n, dim)
    e0 = excited_weight(dim, r)
    # excited weight and probability of every history at the current depth
    x, prob = np.array([e0]), np.array([1.0])
    for _ in range(rounds - 1):
        _, p_h, x_cool, x_heat, _ = step(r, x)
        ph = (n - 1) * p_h
        x = np.column_stack((x_heat, x_cool)).ravel()
        prob = np.column_stack((prob * ph, prob * (1.0 - ph))).ravel()
    _, p_h, _, x_heat, _ = step(r, x)
    ph = (n - 1) * p_h
    return float(np.sum(prob * ph * (x_heat - e0))) / e0


@dataclass
class HeatJumpReport:
    """Multi-round scan for population-inverted particles."""

    report: DemonReport
    max_energy_per_round: list[float]
    inversion_count_per_round: list[int]

    @property
    def first_inversion_round(self) -> int | None:
        """The first round (from 1) with a new inversion, if any."""
        counts = self.inversion_count_per_round
        return next((rnd for rnd, count in enumerate(counts, start=1) if count), None)

    @property
    def ever_inverted_count(self) -> int:
        return sum(self.inversion_count_per_round)


def heat_jump_scan(cfg: DemonConfig) -> HeatJumpReport:
    """Track per-round maximum energies and population-inversion events.

    A particle counts as inverted in the round where its excited weight
    first exceeds (D-1)/D, ``thermal.inversion_weight``; at r = 1 the sample
    stays maximally mixed, on that threshold, and a weight rounded an ulp
    above it counts nothing. The rounds are run_demon's, so the report inside
    is bit-identical to it (a thermal particle cannot overshoot in one pass).
    """
    threshold = inversion_weight(cfg.dim) if cfg.r < 1.0 else np.inf
    heated_counts: list[int] = []
    max_energy: list[float] = []
    inversions: list[int] = []
    inverted = np.zeros(cfg.particles, dtype=bool)
    for table, code, heated in _rounds(cfg):
        x = table[code]
        new = (x > threshold) & ~inverted
        inverted[new] = True
        heated_counts.append(int(np.count_nonzero(heated)))
        max_energy.append(float(np.max(x)))
        inversions.append(int(np.count_nonzero(new)))
        # the next round runs without this one's weights
        del x, new
    return HeatJumpReport(DemonReport(cfg, table[code], heated, heated_counts), max_energy, inversions)


def qubit_never_inverts(r: float) -> bool:
    """Analytic two-reservoir check: no reachable state inverts on heating.

    The cooling map is monotone with a unique fixed point q*(r) =
    (1 - sqrt(1 - r + r^2)) / (1 - r), the lowest excited population
    reachable from a thermal start; the heating map is decreasing in its
    input and only inverts below r^2/(1 + r^2). Inversion is impossible
    iff q* stays above that threshold, which holds for every r in (0, 1).
    At r = 1 the sample stays maximally mixed, which never inverts.
    """
    _validate_ratio(r)
    if r == 1.0:
        return True
    q_star = (1.0 - np.sqrt(1.0 - r + r * r)) / (1.0 - r)
    threshold = r * r / (1.0 + r * r)
    return bool(q_star > threshold)

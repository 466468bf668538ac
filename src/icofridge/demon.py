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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fridge import SCHEMES, _bath_energy, _branches, _validate_ratio, weighted_energy_scheme

_INVERSION_ENERGY = 0.5  # mean energy above gap/2 means inverted populations


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
        if self.n < 2:
            raise ValueError("need at least two reservoirs")
        _validate_ratio(self.r)
        if self.scheme not in SCHEMES or self.scheme == "cswap":
            raise ValueError("demon runs support schemes 'ico' and 'traj'")
        if self.scheme == "traj" and self.dim != 2:
            raise ValueError("trajectory scheme is defined for qubit particles")
        if self.dim < 2:
            raise ValueError("particle dimension must be at least 2")


@dataclass
class DemonReport:
    """Outcome of one seeded demon run; bit-identical for identical configs."""

    config: DemonConfig
    final_energies: np.ndarray  # per-particle mean energy, units of the gap
    heated: np.ndarray  # True -> box C, False -> box D (final round)
    initial_energy: float  # per particle
    rounds_heated_count: list[int] = field(default_factory=list)

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

    def histogram(self, bins: int = 50):
        """Per-box counts over uniform bins of the energy-change ratio.

        Returns (edges, counts_box_c, counts_box_d).
        """
        ratios = self.energy_change_ratios()
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if hi <= lo:
            hi = lo + 1e-12
        edges = np.linspace(lo, hi, bins + 1)
        c_counts, _ = np.histogram(ratios[self.heated], bins=edges)
        d_counts, _ = np.histogram(ratios[~self.heated], bins=edges)
        return edges, c_counts, d_counts

    def to_json(self) -> str:
        cfg = self.config
        return json.dumps(
            {
                "config": {
                    "particles": cfg.particles,
                    "n": cfg.n,
                    "r": cfg.r,
                    "dim": cfg.dim,
                    "scheme": cfg.scheme,
                    "rounds": cfg.rounds,
                    "seed": cfg.seed,
                },
                "cooled_count": self.cooled_count,
                "heated_count": self.heated_count,
                "initial_total_energy": self.initial_total_energy,
                "box_c_energy": self.box_c_energy,
                "box_d_energy": self.box_d_energy,
                "transferred_fraction": self.transferred_fraction,
            }
        )

    def histogram_csv(self, bins: int = 50) -> str:
        edges, c_counts, d_counts = self.histogram(bins)
        lines = ["bin_left,bin_right,count_boxC,count_boxD"]
        for i in range(len(c_counts)):
            lines.append(f"{edges[i]:.12g},{edges[i + 1]:.12g},{c_counts[i]},{d_counts[i]}")
        return "\n".join(lines) + "\n"


def _rounds(cfg: DemonConfig):
    """Yield (x, heated) after each round: every particle's excited weight
    and box (True -> C), from one uniform draw per particle per round.

    A particle's weight is fixed by its branch history, so the kernel runs on
    a table of the distinct histories' weights: ``code`` indexes a particle's
    history, and each round doubles the table to the interleaved (cooling,
    heating) children. The table is compacted to the histories still held
    once it outgrows the sample, which bounds it for any number of rounds.
    The per-round draws continue one generator stream, the same numbers as a
    single (rounds, particles) draw.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    table = np.array([_bath_energy(cfg.dim, cfg.r)])
    code = np.zeros(cfg.particles, dtype=np.intp)
    for _ in range(cfg.rounds):
        _, p_h, x_cool, x_heat, _ = _branches(cfg.scheme, cfg.n, cfg.dim, cfg.r, table)
        heated = rng.random(cfg.particles) < ((cfg.n - 1) * p_h)[code]
        code = 2 * code + heated
        table = np.column_stack((x_cool, x_heat)).ravel()
        if table.size > cfg.particles:
            held, code = np.unique(code, return_inverse=True)
            table = table[held]
        yield table[code], heated


def _report(cfg: DemonConfig, rounds) -> DemonReport:
    """Consume the per-round (x, heated) pairs into the final report."""
    heated_counts = []
    for x, heated in rounds:
        heated_counts.append(int(np.count_nonzero(heated)))
    return DemonReport(
        config=cfg,
        final_energies=x,
        heated=heated,
        initial_energy=_bath_energy(cfg.dim, cfg.r),
        rounds_heated_count=heated_counts,
    )


def run_demon(cfg: DemonConfig) -> DemonReport:
    """Sort a thermal sample by heralded branch over one or more rounds."""
    return _report(cfg, _rounds(cfg))


def analytic_transfer_fraction(n: int, dim: int, r: float) -> float:
    """Expected transferred energy over initial sample energy, one round.

    Equals the weighted heating energy change divided by the Gibbs mean
    energy: (N-1)(1-r^2) / (N (1+(D-1)r)^3) ... evaluated from the branch
    closed forms rather than a separate formula.
    """
    return weighted_energy_scheme(n, dim, r, "ico") / _bath_energy(dim, r)


def expected_transfer_exact(n: int, dim: int, r: float, rounds: int, scheme: str = "ico") -> float:
    """Exact branch-tree expectation of the transferred fraction.

    Walks all 2**rounds branch histories; the transferred energy is booked
    against the final round's box assignment. Independent of run_demon's
    sampling, this is the oracle for the rounds-invariance of the expected
    transfer.
    """
    if rounds > 16:
        raise ValueError("branch tree is desk-scale only (rounds <= 16)")
    DemonConfig(particles=1, n=n, r=r, dim=dim, scheme=scheme, rounds=rounds)  # validates
    e0 = _bath_energy(dim, r)
    total = 0.0
    stack = [(0, 1.0, e0)]
    while stack:
        depth, prob, x = stack.pop()
        _, p_h, x_cool, x_heat, _ = _branches(scheme, n, dim, r, x)
        ph = (n - 1) * p_h
        if depth == rounds - 1:
            total += prob * ph * (x_heat - e0)
        else:
            stack.append((depth + 1, prob * ph, x_heat))
            stack.append((depth + 1, prob * (1.0 - ph), x_cool))
    return total / e0


@dataclass
class HeatJumpReport:
    """Multi-round scan for population-inverted particles."""

    report: DemonReport
    max_energy_per_round: list[float]
    inversion_count_per_round: list[int]
    first_inversion_round: int | None

    @property
    def ever_inverted_count(self) -> int:
        return sum(self.inversion_count_per_round)


def heat_jump_scan(cfg: DemonConfig) -> HeatJumpReport:
    """Track per-round maximum energies and population-inversion events.

    A particle counts as inverted in the round where its mean energy first
    exceeds half the gap. The rounds are run_demon's, so the report inside
    is bit-identical to it (a thermal particle cannot overshoot in one pass).
    """
    max_energy: list[float] = []
    inversions: list[int] = []
    inverted = np.zeros(cfg.particles, dtype=bool)

    def watched():
        for x, heated in _rounds(cfg):
            new = (x > _INVERSION_ENERGY) & ~inverted
            inverted[new] = True
            max_energy.append(float(np.max(x)))
            inversions.append(int(np.count_nonzero(new)))
            yield x, heated

    report = _report(cfg, watched())
    first_round = next((rnd for rnd, count in enumerate(inversions, start=1) if count), None)
    return HeatJumpReport(
        report=report,
        max_energy_per_round=max_energy,
        inversion_count_per_round=inversions,
        first_inversion_round=first_round,
    )


def qubit_never_inverts(r: float) -> bool:
    """Analytic two-reservoir check: no reachable state inverts on heating.

    The cooling map is monotone with a unique fixed point q*(r) =
    (1 - sqrt(1 - r + r^2)) / (1 - r), the lowest excited population
    reachable from a thermal start; the heating map is decreasing in its
    input and only inverts below r^2/(1 + r^2). Inversion is impossible
    iff q* stays above that threshold, which holds for every r in (0, 1).
    """
    if not 0.0 < r < 1.0:
        return True
    q_star = (1.0 - np.sqrt(1.0 - r + r * r)) / (1.0 - r)
    threshold = r * r / (1.0 + r * r)
    return bool(q_star > threshold)

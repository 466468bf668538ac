"""Named oracle suite: every cross-module identity the package promises.

Each check is independent of the code path it validates wherever the package
offers two routes (closed form vs brute force, closed form vs dilation,
closed form vs joint-state simulation, cycle simulation vs fixed-point
formula). Each ``_check_*`` yields one defect per grid point (or per compared
quantity) and ``CHECKS`` holds the one tolerance they are held to; the first
docstring line names the defect. ``run_checks`` folds a check's defects into
its worst in one place: a NaN defect anywhere makes the worst NaN, so the
check fails, and the worst is floored at 0, so one-sided distances that go
negative on a passing point report 0. A side condition that is not a defect
against that tolerance (a flag, an event count, a statistical band) raises
with its message instead. ``run_checks`` returns one result per named check;
the CLI's ``verify`` command prints them and exits nonzero if any fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable

import numpy as np

from . import channels, cswap, demon, fridge, measurement, nswitch, qmat, thermal, trajectories


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    defect: float = math.nan  # NaN when the check raised
    tol: float = math.nan


def _require(ok: bool, message: str) -> None:
    """Fail a check on a condition that is not its defect."""
    if not ok:
        raise AssertionError(message)


def _worst(*defects: float) -> float:
    """Largest defect, NaN if any is NaN (the builtin ``max`` drops a NaN
    that is not its first argument, which would let a NaN defect pass)."""
    return math.nan if any(map(math.isnan, defects)) else max(defects)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def _random_matrix(rng, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _random_density(rng, dim: int) -> np.ndarray:
    m = _random_matrix(rng, dim)
    rho = m @ qmat.dagger(m)
    return rho / np.trace(rho).real


def _check_qmat_algebra():
    """kron / partial-trace / Pauli-twirl identity defect"""
    rng = np.random.default_rng(11)
    for da, db in ((2, 2), (2, 3), (3, 3), (4, 2)):
        a, b, c, d = (_random_matrix(rng, dim) for dim in (da, db, da, db))
        yield from (
            _max_abs(np.kron(a, b) @ np.kron(c, d), np.kron(a @ c, b @ d)),
            _max_abs(qmat.partial_trace(np.kron(a, b), (da, db), {0}), a * np.trace(b)),
        )
    for dim in (2, 3, 4):
        m = _random_matrix(rng, dim)
        s = sum(u @ m @ qmat.dagger(u) for u in qmat.pauli_basis(dim))
        yield _max_abs(s, dim * np.trace(m) * np.eye(dim))


def _check_kraus_completeness():
    """max |sum K^dag K - I|"""
    for dim in (2, 3):
        yield channels.depolarizing_kraus(dim).completeness_defect()
        for r in (0.1, 0.5, 1.0):
            spec = thermal.ThermalSpec.degenerate(dim, r)
            yield channels.thermalizing_kraus(spec).completeness_defect()


def _check_thermalizing_fixed_point():
    """max |channel(rho) - T| over random inputs"""
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        spec = thermal.ThermalSpec.degenerate(dim, 0.3)
        kset = channels.thermalizing_kraus(spec)
        t = thermal.gibbs_state(spec)
        for _ in range(20):
            rho = _random_density(rng, dim)
            yield _max_abs(channels.apply_channel(kset, rho), t)


def _check_closed_form_vs_bruteforce():
    """max |closed form - brute force|, cyclic N <= 4, D <= 3"""
    for n in (2, 3, 4):
        for dim in (2, 3):
            for r in (0.1, 0.5, 0.9):
                spec = thermal.ThermalSpec.degenerate(dim, r)
                t = thermal.gibbs_state(spec)
                bf = nswitch.switch_bruteforce(nswitch.OrderSet.cyclic(n), t, spec)
                cf = nswitch.switch_closed_form(n, t, t)
                yield _max_abs(bf.joint, cf.joint)


def _check_bruteforce_arbitrary_input():
    """max |closed form - brute force| at random inputs"""
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for dim in (2, 3):
            spec = thermal.ThermalSpec.degenerate(dim, 0.45)
            t = thermal.gibbs_state(spec)
            rho = _random_density(rng, dim)
            bf = nswitch.switch_bruteforce(nswitch.OrderSet.cyclic(n), rho, spec)
            cf = nswitch.switch_closed_form(n, rho, t)
            yield _max_abs(bf.joint, cf.joint)


def _check_noncyclic_order_sets():
    """blocks vs T/N and T^3/N (N=3), T^5/N (N=4)"""
    for n, power in ((3, 3), (4, 5)):
        for r in (0.3, 0.7):
            spec = thermal.ThermalSpec.qubit(r)
            t = thermal.gibbs_state(spec)
            out = nswitch.switch_bruteforce(nswitch.noncyclic_order_set(n), t, spec)
            expected = np.linalg.matrix_power(t, power) / n
            uniform = nswitch.offdiagonal_blocks_equal(out)
            _require(uniform, f"off-diagonal blocks differ for n={n}")
            for i in range(n):
                for j in range(n):
                    yield _max_abs(out.block(i, j), t / n if i == j else expected)


def _check_branch_probability_closure():
    """|p_H(2, r=1) - 0.375| and max |p_c + (N-1)p_h - 1|"""
    yield abs(nswitch.branch_stats(2, thermal.ThermalSpec.qubit(1.0)).p_heating_total - 0.375)
    for n in (2, 3, 10, 100):
        for dim in (2, 3, 5):
            for r in (0.05, 0.3, 0.8, 1.0):
                point = fridge.OperatingPoint.at("ico", n, dim, r)
                yield abs(point.p_c + point.p_heating - 1.0)


def _check_heating_branch_n_independence():
    """heating state spread over N"""
    for r in (0.1, 0.5, 0.9):
        spec = thermal.ThermalSpec.qubit(r)
        ref = nswitch.branch_stats(2, spec).rho_h
        for n in (3, 7, 40):
            yield _max_abs(nswitch.branch_stats(n, spec).rho_h, ref)


def _check_weighted_energy_doubling():
    """distance of dE(N=1e6)/dE(N=2) from [1.99, 2]"""
    for r in (0.1, 0.3, 0.5):
        many, two = (fridge.OperatingPoint.at("ico", n, 2, r).weighted_energy for n in (10**6, 2))
        x = many / two
        yield from (1.99 - x, x - 2.0)


def _check_qudit_boost():
    """max relative deviation from 2(D-1)(N-1)/N"""
    r = 1e-4
    base = fridge.OperatingPoint.at("ico", 2, 2, r).weighted_energy
    for dim in (2, 5, 10):
        for n in (2, 10):
            factor = fridge.OperatingPoint.at("ico", n, dim, r).weighted_energy / base
            yield abs(factor / (2 * (dim - 1) * (n - 1) / n) - 1.0)


def _check_measurement_basis():
    """Gram/completeness defect for every N in 2..64"""
    for n in range(2, 65):
        basis = measurement.build_basis(n)
        completeness = basis.vectors.T @ basis.vectors.conj()
        yield from (_max_abs(basis.gram(), np.eye(n)), _max_abs(completeness, np.eye(n)))


def _check_measured_branches():
    """outcomes vs branch kernel and vs (T + (N-1)T^3), (T - T^3)"""
    for n in (2, 3, 5, 8):
        for r in (0.1, 0.5):
            spec = thermal.ThermalSpec.qubit(r)
            t = thermal.gibbs_state(spec)
            outcomes = measurement.measure_control(
                nswitch.switch_closed_form(n, t, t), measurement.build_basis(n)
            )
            stats = nswitch.branch_stats(n, spec)
            t3 = np.linalg.matrix_power(t, 3)
            cool, heat = t + (n - 1) * t3, t - t3
            tr_cool, tr_heat = float(np.trace(cool).real), float(np.trace(heat).real)
            yield from (
                abs(sum(o.probability for o in outcomes) - 1.0),
                abs(outcomes[0].probability - stats.p_c),
                abs(outcomes[0].probability * n - tr_cool),
                _max_abs(outcomes[0].state, stats.rho_c),
                _max_abs(outcomes[0].state, cool / tr_cool),
            )
            for o in outcomes[1:]:
                yield from (
                    abs(o.probability - stats.p_h),
                    abs(o.probability * n - tr_heat),
                    _max_abs(o.state, stats.rho_h),
                    _max_abs(o.state, heat / tr_heat),
                )


def _check_entropy_identity():
    """entropy identity residual and register entropy defect"""
    for m in (1, 2, 3, 4):
        for r in (0.2, 0.5, 0.6, 0.9):
            t = thermal.gibbs_state(thermal.ThermalSpec.qubit(r))
            res = measurement.povm_ancilla_scheme(nswitch.switch_closed_form(2**m, t, t))
            expected = fridge.OperatingPoint.at("ico", 2**m, 2, r).entropy
            yield from (res.entropy_identity_residual(), abs(res.register_entropy_full - expected))


def _check_cswap_no_signalling():
    """pre-measurement marginal defect"""
    for n, r in ((2, 0.3), (4, 0.3), (5, 0.8)):
        out = cswap.cswap_evolve(n, r)
        dims = (n,) + (2,) * (n + 1)
        t = thermal.gibbs_state(thermal.ThermalSpec.qubit(r))
        for q in range(n + 1):
            yield _max_abs(qmat.partial_trace(out.joint, dims, {q + 1}), t)


def _check_cswap_marginals():
    """cswap branch probability and marginal defect"""
    for n in (2, 3, 4, 5, 6):
        for r in (0.1, 0.5, 0.9):
            (cool, p_c), (heat, p_h_tot) = cswap.cswap_branches(cswap.cswap_evolve(n, r))
            stats = nswitch.branch_stats(n, thermal.ThermalSpec.qubit(r))
            yield from (
                abs(p_c - stats.p_c),
                abs(p_h_tot - stats.p_heating_total),
                _max_abs(cswap.qubit_marginal(cool, 0), cswap.cooling_target_marginal(n, r)),
                _max_abs(cswap.qubit_marginal(cool, 1), cswap.cooling_reservoir_marginal(n, r)),
                _max_abs(cswap.qubit_marginal(heat, 0), stats.rho_h),
            )


def _check_cswap_energy_identity():
    """max |N*res shift - 2*target shift|"""
    for n in (2, 4, 6):
        for r in (0.1, 0.4, 1.0):
            lhs, rhs = cswap.cswap_energy_identity(n, r)
            yield abs(lhs - rhs)


def _check_cswap_tripling():
    """max relative deviation of total/target cooling from 3"""
    for n in (2, 3, 4, 5, 6):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            (cool, _), _ = cswap.cswap_branches(cswap.cswap_evolve(n, r))
            t_pop = thermal.excited_weight(2, r)
            total = sum(float(cswap.qubit_marginal(cool, q)[1, 1].real) - t_pop for q in range(n + 1))
            target = float(cswap.qubit_marginal(cool, 0)[1, 1].real) - t_pop
            yield abs(total / target - 3.0) / 3.0


def _check_cswap_sequential_discard():
    """marginal invariance and heat-total defect over discard orders"""
    for n in (2, 3, 4):
        r = 0.5
        spec = thermal.ThermalSpec.qubit(r)
        (cool, _), _ = cswap.cswap_branches(cswap.cswap_evolve(n, r))
        initial_pops = [float(cswap.qubit_marginal(cool, q)[1, 1].real) for q in range(n + 1)]
        t_pop = thermal.excited_weight(2, r)
        all_at_once = sum(p - t_pop for p in initial_pops)
        for order in permutations(range(n + 1)):
            snaps = cswap.sequential_discard(cool, list(order), spec)
            yield abs(snaps[-1].cumulative_heat - all_at_once)
            for snap in snaps:
                for q in range(n + 1):
                    expected = t_pop if q in snap.discarded else initial_pops[q]
                    yield abs(snap.excited_populations[q] - expected)


def _check_cswap_ordered_circuit_equivalence():
    """two-reservoir circuit equivalence defect"""
    for r in (0.2, 0.6, 1.0):
        plain, ordered = cswap.ico_cswap_equivalent(r)
        yield _max_abs(plain, ordered)


def _check_traj_dilation_agreement():
    """max |closed form - dilation|"""
    for n in (2, 3):
        for r in (0.1, 0.5, 0.9):
            spec = thermal.ThermalSpec.qubit(r)
            cfg = trajectories.canonical_config(n, spec)
            t = thermal.gibbs_state(spec)
            a = trajectories.traj_output(cfg, t)
            b = trajectories.dilation_oracle(cfg, t)
            yield _max_abs(a.joint, b.joint)


def _check_traj_obtainability():
    """max tr(M^dag T M) above the limit 1/2"""
    for r in np.linspace(0.05, 1.0, 20):
        cfg = trajectories.canonical_config(2, thermal.ThermalSpec.qubit(float(r)))
        for tm in cfg.transformation_matrices():
            _require(tm.obtainable, f"canonical matrix flagged non-obtainable at r={r}")
            yield tm.bound - 0.5


def _check_traj_branch_normalization():
    """normalization/positivity defect"""
    for n in (2, 3, 5):
        for r in (0.1, 0.6, 1.0):
            spec = thermal.ThermalSpec.qubit(r)
            stats = trajectories.traj_branches(trajectories.canonical_config(n, spec), spec)
            yield abs(stats.p_c + (n - 1) * stats.p_h - 1.0)
            for state in (stats.rho_c, stats.rho_h):
                yield from (
                    abs(float(np.trace(state).real) - 1.0),
                    -float(np.linalg.eigvalsh(state).min()),
                )


def _check_fridge_fixed_points():
    """max |simulated - closed form| final cold ratio, high-k floors included"""
    for scheme in ("ico", "traj"):
        for k in (0.5, 1.0, 5.0, 100.0):
            for r0 in np.linspace(0.05, 0.95, 10):
                ens = fridge.ReservoirEnsemble.from_ratio(k, float(r0), n_cold=16)
                trace = fridge.run_cycles(scheme, ens, n=2, seed=3)
                target = fridge.lowest_r(scheme, float(r0), k)
                yield abs(trace.final_r_cold - target)
    ens = fridge.ReservoirEnsemble.from_ratio(1e6, 0.6, n_cold=16)
    floor = fridge.run_cycles("ico", ens, n=2, seed=3).final_r_cold
    yield abs(floor - (1 - 2 * 0.6) / (0.6 - 2))
    for r0 in (0.3, 0.7, 0.95):
        ens = fridge.ReservoirEnsemble.from_ratio(1e6, r0, n_cold=16)
        yield fridge.run_cycles("traj", ens, n=2, seed=3).final_r_cold


def _check_first_law_audit():
    """max per-cycle first-law defect"""
    for scheme in ("ico", "cswap", "traj"):
        ens = fridge.ReservoirEnsemble.from_ratio(2.0, 0.6, n_cold=16)
        trace = fridge.run_cycles(scheme, ens, n=3, seed=9, max_cycles=20_000)
        yield trace.audit_defect()


def _check_cop_zero_point():
    """max |COP at stop point|"""
    for scheme in ("ico", "cswap", "traj"):
        for n in (2, 4):
            for r in (0.2, 0.5, 0.9):
                r_hot = fridge.OperatingPoint.at(scheme, n, 2, r).stop_ratio
                yield abs(fridge.cop(n, 2, r, r_hot, 1.0, scheme))


def _check_cop_cswap_tripling():
    """max relative deviation of COP ratio from 3"""
    for n in (2, 3, 4, 7):
        for r in (0.1, 0.5, 0.9):
            ratio = fridge.cop(n, 2, r, r, 1.0, "cswap") / fridge.cop(n, 2, r, r, 1.0, "ico")
            yield abs(ratio - 3.0) / 3.0


def _check_demon_statistics():
    """|sampled - analytic| transferred fraction at N=100 and N=2"""
    cfg = demon.DemonConfig(particles=10_000, n=100, r=0.1, seed=20260810)
    rep = demon.run_demon(cfg)
    energy = rep.initial_total_energy
    _require(abs(energy - 10_000 * (0.1 / 1.1)) <= 1e-9, f"initial energy {energy}")
    cooled = rep.cooled_count / cfg.particles
    _require(abs(cooled - 0.75) <= 0.02, f"cooled fraction {cooled:.4f} outside 75% +- 2pp")
    # 4-sigma binomial band for the cooled fraction on a few configurations
    for n, r in ((2, 0.3), (10, 0.6), (100, 0.9)):
        c = demon.DemonConfig(particles=20_000, n=n, r=r, seed=99)
        frac = demon.run_demon(c).cooled_count / c.particles
        # measured_branches' closed side, not the kernel: tr(T + (N-1)T^3) / N
        t = thermal.gibbs_state(thermal.ThermalSpec.qubit(r))
        p_c = float(np.trace(t + (n - 1) * np.linalg.matrix_power(t, 3)).real) / n
        band = 4 * math.sqrt(p_c * (1 - p_c) / c.particles)
        message = f"cooled fraction {frac:.4f} outside 4-sigma of {p_c:.4f}"
        _require(abs(frac - p_c) <= band, message)
    rep2 = demon.run_demon(demon.DemonConfig(particles=10_000, n=2, r=0.1, seed=20260810))
    # the qubit transfer fraction (N-1)(1-r^2) / (N (1+r)^3), not the kernel
    for n, sample in ((100, rep), (2, rep2)):
        yield abs(sample.transferred_fraction - (n - 1) * (1 - 0.1**2) / (n * (1 + 0.1) ** 3))


def _check_demon_rounds_invariance():
    """expected-transfer drift over rounds"""
    for scheme in ("ico", "traj"):
        for n, r in ((2, 0.3), (100, 0.1)):
            one = demon.expected_transfer_exact(n, 2, r, 1, scheme)
            for rounds in (2, 3):
                later = demon.expected_transfer_exact(n, 2, r, rounds, scheme)
                yield abs(later - one)


def _check_demon_heat_jump():
    """two-reservoir inversions, predicted or sampled"""
    hj = demon.heat_jump_scan(
        demon.DemonConfig(particles=10_000, n=100, r=0.33, rounds=10, seed=20260810)
    )
    _require(hj.ever_inverted_count >= 1, "no inversion events at N=100, r=0.33")
    grid = np.linspace(0.001, 0.999, 999)
    predicted = sum(not demon.qubit_never_inverts(float(r)) for r in grid)
    sampled = sum(
        demon.heat_jump_scan(
            demon.DemonConfig(particles=2000, n=2, r=r, rounds=10, seed=7)
        ).ever_inverted_count
        for r in (0.1, 0.5, 0.9)
    )
    yield predicted + sampled


def _check_demon_determinism():
    """entries that differ between two runs of one config+seed"""
    cfg = demon.DemonConfig(particles=5000, n=10, r=0.2, rounds=3, seed=123)
    a = demon.run_demon(cfg)
    b = demon.run_demon(cfg)
    differing_energies = np.count_nonzero(a.final_energies != b.final_energies)
    yield differing_energies + np.count_nonzero(a.heated != b.heated)


# name -> (check, tolerance on its worst defect), in report order
CHECKS: dict[str, tuple[Callable[[], Iterable[float]], float]] = {
    "qmat_algebra": (_check_qmat_algebra, 1e-12),
    "kraus_completeness": (_check_kraus_completeness, 1e-10),
    "thermalizing_fixed_point": (_check_thermalizing_fixed_point, 1e-12),
    "closed_form_vs_bruteforce": (_check_closed_form_vs_bruteforce, 1e-10),
    "bruteforce_arbitrary_input": (_check_bruteforce_arbitrary_input, 1e-10),
    "noncyclic_order_sets": (_check_noncyclic_order_sets, 1e-10),
    "branch_probability_closure": (_check_branch_probability_closure, 1e-12),
    "heating_branch_n_independence": (_check_heating_branch_n_independence, 1e-12),
    "weighted_energy_doubling": (_check_weighted_energy_doubling, 0.0),
    "qudit_boost": (_check_qudit_boost, 0.05),
    "measurement_basis": (_check_measurement_basis, 1e-12),
    "measured_branches": (_check_measured_branches, 1e-12),
    "entropy_identity": (_check_entropy_identity, 1e-10),
    "cswap_no_signalling": (_check_cswap_no_signalling, 1e-12),
    "cswap_marginals": (_check_cswap_marginals, 1e-10),
    "cswap_energy_identity": (_check_cswap_energy_identity, 1e-10),
    "cswap_tripling": (_check_cswap_tripling, 1e-9),
    "cswap_sequential_discard": (_check_cswap_sequential_discard, 1e-10),
    "cswap_ordered_circuit_equivalence": (_check_cswap_ordered_circuit_equivalence, 1e-12),
    "traj_dilation_agreement": (_check_traj_dilation_agreement, 1e-10),
    "traj_obtainability": (_check_traj_obtainability, 1e-12),
    "traj_branch_normalization": (_check_traj_branch_normalization, 1e-10),
    "fridge_fixed_points": (_check_fridge_fixed_points, 1e-3),
    "first_law_audit": (_check_first_law_audit, 1e-10),
    "cop_zero_point": (_check_cop_zero_point, 1e-10),
    "cop_cswap_tripling": (_check_cop_cswap_tripling, 1e-9),
    "demon_statistics": (_check_demon_statistics, 0.03),
    "demon_rounds_invariance": (_check_demon_rounds_invariance, 1e-10),
    "demon_heat_jump": (_check_demon_heat_jump, 0.0),
    "demon_determinism": (_check_demon_determinism, 0.0),
}


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default), in declaration order."""
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")

    def run_one(name: str) -> CheckResult:
        check, tol = CHECKS[name]
        start = time.perf_counter()
        try:
            # the one fold: keeps a NaN, and 0.0 is the floor of every check
            defect = _worst(0.0, *map(float, check()))
            detail = f"{(check.__doc__ or 'defect').strip()}: {defect:.3g} (tol {tol:g})"
        except Exception as exc:  # a crash is a failure, not an abort
            defect, detail = math.nan, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        return CheckResult(name, defect <= tol, detail, seconds, defect, tol)

    return [run_one(name) for name in selected]

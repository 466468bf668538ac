"""Named oracle suite: every cross-module identity the package promises.

Each check is independent of the code path it validates wherever the package
offers two routes (closed form vs brute force, closed form vs dilation,
closed form vs joint-state simulation, cycle simulation vs fixed-point
formula). ``run_checks`` returns one result per named check; the CLI's
``verify`` command prints them and exits nonzero if any fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import channels, cswap, demon, fridge, measurement, nswitch, qmat, thermal, trajectories


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_qmat_algebra():
    rng = np.random.default_rng(11)
    worst = 0.0
    for da, db in ((2, 2), (2, 3), (3, 3), (4, 2)):
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        c = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        d = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        worst = max(
            worst,
            float(np.max(np.abs(qmat.kron(a, b) @ qmat.kron(c, d) - qmat.kron(a @ c, b @ d)))),
            float(
                np.max(
                    np.abs(
                        qmat.partial_trace(qmat.kron(a, b), (da, db), {0}) - a * np.trace(b)
                    )
                )
            ),
        )
    for dim in (2, 3, 4):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s = sum(u @ m @ qmat.dagger(u) for u in qmat.pauli_basis(dim))
        worst = max(worst, float(np.max(np.abs(s - dim * np.trace(m) * np.eye(dim)))))
    return worst <= 1e-12, f"max defect {worst:.2e} (tol 1e-12)"


def _check_kraus_completeness():
    worst = 0.0
    for dim in (2, 3):
        worst = max(worst, channels.depolarizing_kraus(dim).completeness_defect())
        for r in (0.1, 0.5, 1.0):
            spec = thermal.ThermalSpec.degenerate(dim, r)
            worst = max(worst, channels.thermalizing_kraus(spec).completeness_defect())
    return worst <= 1e-10, f"max completeness defect {worst:.2e} (tol 1e-10)"


def _check_thermalizing_fixed_point():
    rng = np.random.default_rng(5)
    worst = 0.0
    for dim in (2, 3):
        spec = thermal.ThermalSpec.degenerate(dim, 0.3)
        kset = channels.thermalizing_kraus(spec)
        t = thermal.gibbs_state(spec)
        for _ in range(20):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = m @ qmat.dagger(m)
            rho /= np.trace(rho).real
            worst = max(worst, float(np.max(np.abs(channels.apply_channel(kset, rho) - t))))
    return worst <= 1e-12, f"max output spread {worst:.2e} (tol 1e-12)"


def _check_closed_form_vs_bruteforce():
    worst = 0.0
    for n in (2, 3, 4):
        for dim in (2, 3):
            for r in (0.1, 0.5, 0.9):
                spec = thermal.ThermalSpec.degenerate(dim, r)
                t = thermal.gibbs_state(spec)
                bf = nswitch.switch_bruteforce(nswitch.OrderSet.cyclic(n), t, spec)
                cf = nswitch.switch_closed_form(n, t, t)
                worst = max(worst, float(np.max(np.abs(bf.joint - cf.joint))))
    return worst <= 1e-10, f"max |closed - brute| {worst:.2e} (tol 1e-10)"


def _check_bruteforce_arbitrary_input():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (2, 3):
        for dim in (2, 3):
            spec = thermal.ThermalSpec.degenerate(dim, 0.45)
            t = thermal.gibbs_state(spec)
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = m @ qmat.dagger(m)
            rho /= np.trace(rho).real
            bf = nswitch.switch_bruteforce(nswitch.OrderSet.cyclic(n), rho, spec)
            cf = nswitch.switch_closed_form(n, rho, t)
            worst = max(worst, float(np.max(np.abs(bf.joint - cf.joint))))
    return worst <= 1e-10, f"max |closed - brute| at random input {worst:.2e} (tol 1e-10)"


def _check_noncyclic_order_sets():
    worst = 0.0
    for n, power in ((3, 3), (4, 5)):
        for r in (0.3, 0.7):
            spec = thermal.ThermalSpec.qubit(r)
            t = thermal.gibbs_state(spec)
            out = nswitch.switch_bruteforce(nswitch.noncyclic_order_set(n), t, spec)
            expected = np.linalg.matrix_power(t, power) / n
            if not nswitch.offdiagonal_blocks_equal(out):
                return False, f"off-diagonal blocks differ for n={n}"
            for i in range(n):
                for j in range(n):
                    ref = t / n if i == j else expected
                    worst = max(worst, float(np.max(np.abs(out.block(i, j) - ref))))
    return worst <= 1e-10, f"blocks T^3 (n=3) / T^5 (n=4), defect {worst:.2e} (tol 1e-10)"


def _check_branch_probability_closure():
    p = nswitch.branch_stats(2, thermal.ThermalSpec.qubit(1.0)).p_heating_total
    if abs(p - 0.375) > 1e-12:
        return False, f"p_H(N=2, r=1) = {p}, want 0.375"
    worst = 0.0
    for n in (2, 3, 10, 100):
        for dim in (2, 3, 5):
            for r in (0.05, 0.3, 0.8, 1.0):
                st = nswitch.qudit_branch_stats(n, dim, r)
                worst = max(worst, abs(st.p_c + (n - 1) * st.p_h - 1.0))
    return worst <= 1e-12, f"max |p_c + (N-1)p_h - 1| = {worst:.2e} (tol 1e-12)"


def _check_heating_branch_n_independence():
    worst = 0.0
    for r in (0.1, 0.5, 0.9):
        spec = thermal.ThermalSpec.qubit(r)
        ref = nswitch.branch_stats(2, spec).rho_h
        for n in (3, 7, 40):
            worst = max(
                worst, float(np.max(np.abs(nswitch.branch_stats(n, spec).rho_h - ref)))
            )
    return worst <= 1e-12, f"heating state spread over N: {worst:.2e} (tol 1e-12)"


def _check_weighted_energy_doubling():
    ratios = []
    for r in (0.1, 0.3, 0.5):
        big = nswitch.weighted_energy(10**6, 2, r)[0]
        small = nswitch.weighted_energy(2, 2, r)[0]
        ratios.append(big / small)
    ok = all(1.99 <= x <= 2.0 for x in ratios)
    return ok, f"dE(1e6)/dE(2) = {', '.join(f'{x:.6f}' for x in ratios)} (band [1.99, 2])"


def _check_qudit_boost():
    worst = 0.0
    r = 1e-4
    base = nswitch.weighted_energy(2, 2, r)[0]
    for dim in (2, 5, 10):
        for n in (2, 10):
            factor = nswitch.weighted_energy(n, dim, r)[0] / base
            ideal = 2 * (dim - 1) * (n - 1) / n
            worst = max(worst, abs(factor / ideal - 1.0))
    return worst <= 0.05, f"max relative deviation from 2(D-1)(N-1)/N: {worst:.3%} (tol 5%)"


def _check_measurement_basis():
    worst = 0.0
    for n in (2, 3, 5, 8, 17, 32, 64):
        basis = measurement.build_basis(n)
        worst = max(worst, float(np.max(np.abs(basis.gram() - np.eye(n)))))
        completeness = basis.vectors.T @ basis.vectors.conj()
        worst = max(worst, float(np.max(np.abs(completeness - np.eye(n)))))
    return worst <= 1e-12, f"Gram/completeness defect {worst:.2e} for N <= 64 (tol 1e-12)"


def _check_measured_branches():
    worst = 0.0
    for n in (2, 3, 5):
        for r in (0.1, 0.5):
            spec = thermal.ThermalSpec.qubit(r)
            t = thermal.gibbs_state(spec)
            out = nswitch.switch_closed_form(n, t, t)
            outcomes = measurement.measure_control(out, measurement.build_basis(n))
            stats = nswitch.branch_stats(n, spec)
            worst = max(worst, abs(sum(o.probability for o in outcomes) - 1.0))
            worst = max(worst, abs(outcomes[0].probability - stats.p_c))
            worst = max(worst, float(np.max(np.abs(outcomes[0].state - stats.rho_c))))
            for o in outcomes[1:]:
                worst = max(worst, abs(o.probability - stats.p_h))
                worst = max(worst, float(np.max(np.abs(o.state - stats.rho_h))))
    return worst <= 1e-12, f"branch states/probabilities defect {worst:.2e} (tol 1e-12)"


def _check_entropy_identity():
    worst = 0.0
    for m in (1, 2, 3, 4):
        for r in (0.2, 0.5, 0.9):
            spec = thermal.ThermalSpec.qubit(r)
            t = thermal.gibbs_state(spec)
            out = nswitch.switch_closed_form(2**m, t, t)
            res = measurement.povm_ancilla_scheme(m, out)
            worst = max(worst, res.entropy_identity_residual())
            if m >= 1:
                expected = fridge.register_entropy(2**m, r, "ico")
                worst = max(worst, abs(res.register_entropy_full - expected))
    return worst <= 1e-10, f"entropy identity residual {worst:.2e} (tol 1e-10)"


def _check_cswap_no_signalling():
    worst = 0.0
    for n, r in ((2, 0.3), (4, 0.3), (5, 0.8)):
        state = cswap.cswap_evolve(n, r)
        t = thermal.gibbs_state(thermal.ThermalSpec.qubit(r))
        for q in range(n + 1):
            worst = max(worst, float(np.max(np.abs(state.qubit_marginal(q) - t))))
    return worst <= 1e-12, f"pre-measurement marginal defect {worst:.2e} (tol 1e-12)"


def _check_cswap_marginals():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for r in (0.1, 0.5, 0.9):
            state = cswap.cswap_evolve(n, r)
            (cool, p_c), (heat, p_h_tot) = cswap.cswap_branches(
                state, measurement.build_basis(n)
            )
            stats = nswitch.branch_stats(n, thermal.ThermalSpec.qubit(r))
            worst = max(worst, abs(p_c - stats.p_c))
            worst = max(worst, abs(p_h_tot - stats.p_heating_total))
            worst = max(
                worst,
                float(np.max(np.abs(cool.qubit_marginal(0) - cswap.cooling_target_marginal(n, r)))),
                float(np.max(np.abs(cool.qubit_marginal(1) - cswap.cooling_reservoir_marginal(n, r)))),
                float(np.max(np.abs(heat.qubit_marginal(0) - stats.rho_h))),
            )
    return worst <= 1e-10, f"cswap marginal defect {worst:.2e} (tol 1e-10)"


def _check_cswap_energy_identity():
    worst = 0.0
    for n in (2, 4, 6):
        for r in (0.1, 0.4, 1.0):
            lhs, rhs = cswap.cswap_energy_identity(n, r)
            worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, f"max |N*res shift - 2*target shift| = {worst:.2e} (tol 1e-10)"


def _check_cswap_tripling():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            state = cswap.cswap_evolve(n, r)
            (cool, _), _ = cswap.cswap_branches(state, measurement.build_basis(n))
            t_pop = r / (1 + r)
            total = sum(
                float(cool.qubit_marginal(q)[1, 1].real) - t_pop for q in range(n + 1)
            )
            target = float(cool.qubit_marginal(0)[1, 1].real) - t_pop
            worst = max(worst, abs(total / target - 3.0) / 3.0)
    return worst <= 1e-9, f"max relative deviation from tripling: {worst:.2e} (tol 1e-9)"


def _check_cswap_sequential_discard():
    from itertools import permutations

    worst_marg = 0.0
    worst_heat = 0.0
    for n in (2, 3, 4):
        r = 0.5
        spec = thermal.ThermalSpec.qubit(r)
        state = cswap.cswap_evolve(n, r)
        (cool, _), _ = cswap.cswap_branches(state, measurement.build_basis(n))
        initial_pops = [float(cool.qubit_marginal(q)[1, 1].real) for q in range(n + 1)]
        t_pop = r / (1 + r)
        all_at_once = sum(p - t_pop for p in initial_pops)
        for order in permutations(range(n + 1)):
            snaps = cswap.sequential_discard(cool, list(order), spec)
            worst_heat = max(worst_heat, abs(snaps[-1].cumulative_heat - all_at_once))
            for snap in snaps:
                for q in range(n + 1):
                    expected = t_pop if q in snap.discarded else initial_pops[q]
                    worst_marg = max(worst_marg, abs(snap.excited_populations[q] - expected))
    ok = worst_marg <= 1e-10 and worst_heat <= 1e-10
    return ok, (
        f"marginal invariance {worst_marg:.2e}, heat-total defect {worst_heat:.2e} (tol 1e-10)"
    )


def _check_cswap_ordered_circuit_equivalence():
    worst = 0.0
    for r in (0.2, 0.6, 1.0):
        plain, ordered = cswap.ico_cswap_equivalent(r)
        worst = max(worst, float(np.max(np.abs(plain - ordered))))
    return worst <= 1e-12, f"two-reservoir circuit equivalence defect {worst:.2e} (tol 1e-12)"


def _check_traj_dilation_agreement():
    worst = 0.0
    for n in (2, 3):
        for r in (0.1, 0.5, 0.9):
            spec = thermal.ThermalSpec.qubit(r)
            cfg = trajectories.canonical_config(n, spec)
            t = thermal.gibbs_state(spec)
            a = trajectories.traj_output(cfg, t)
            b = trajectories.dilation_oracle(cfg, t)
            worst = max(worst, float(np.max(np.abs(a.joint - b.joint))))
    return worst <= 1e-10, f"max |closed - dilation| {worst:.2e} (tol 1e-10)"


def _check_traj_obtainability():
    worst = -1.0
    for r in np.linspace(0.05, 1.0, 20):
        spec = thermal.ThermalSpec.qubit(float(r))
        cfg = trajectories.canonical_config(2, spec)
        for tm in cfg.transformation_matrices():
            if not tm.obtainable:
                return False, f"canonical matrix flagged non-obtainable at r={r}"
            worst = max(worst, tm.bound)
    return worst <= 0.5 + 1e-12, f"max tr(M^+ T M) = {worst:.6f} (limit 0.5)"


def _check_traj_branch_normalization():
    worst = 0.0
    for n in (2, 3, 5):
        for r in (0.1, 0.6, 1.0):
            spec = thermal.ThermalSpec.qubit(r)
            stats = trajectories.traj_branches(trajectories.canonical_config(n, spec), spec)
            worst = max(worst, abs(stats.p_c + (n - 1) * stats.p_h - 1.0))
            for state in (stats.rho_c, stats.rho_h):
                worst = max(worst, abs(float(np.trace(state).real) - 1.0))
                eigs = np.linalg.eigvalsh(state)
                worst = max(worst, max(0.0, -float(eigs.min())))
    return worst <= 1e-10, f"normalization/positivity defect {worst:.2e} (tol 1e-10)"


def _check_fridge_fixed_points():
    worst = 0.0
    for scheme in ("ico", "traj"):
        for k in (0.5, 1.0, 5.0, 100.0):
            for r0 in np.linspace(0.05, 0.95, 10):
                ens = fridge.ReservoirEnsemble.from_ratio(k, float(r0), n_cold=16)
                trace = fridge.run_cycles(scheme, ens, n=2, seed=3)
                target = fridge.lowest_r(scheme, float(r0), k)
                worst = max(worst, abs(trace.final_r_cold - target))
    ens = fridge.ReservoirEnsemble.from_ratio(1e6, 0.6, n_cold=16)
    floor = fridge.run_cycles("ico", ens, n=2, seed=3).final_r_cold
    if abs(floor - (1 - 2 * 0.6) / (0.6 - 2)) > 1e-3:
        return False, f"high-k floor {floor:.6f}, want 0.142857"
    for r0 in (0.3, 0.7, 0.95):
        ens = fridge.ReservoirEnsemble.from_ratio(1e6, r0, n_cold=16)
        cold = fridge.run_cycles("traj", ens, n=2, seed=3).final_r_cold
        if cold > 1e-3:
            return False, f"traj high-k floor {cold} at r0={r0}, want 0"
    return worst <= 1e-3, f"max |simulated - closed form| = {worst:.2e} (tol 1e-3)"


def _check_first_law_audit():
    worst = 0.0
    for scheme in ("ico", "cswap", "traj"):
        ens = fridge.ReservoirEnsemble.from_ratio(2.0, 0.6, n_cold=16)
        trace = fridge.run_cycles(scheme, ens, n=3, seed=9, max_cycles=20_000)
        worst = max(worst, trace.audit_defect())
    return worst <= 1e-10, f"max per-cycle first-law defect {worst:.2e} (tol 1e-10)"


def _check_cop_zero_point():
    worst = 0.0
    for scheme in ("ico", "cswap", "traj"):
        for n in (2, 4):
            for r in (0.2, 0.5, 0.9):
                r_hot = fridge.stop_ratio(n, 2, r, scheme)
                worst = max(worst, abs(fridge.cop(n, 2, r, r_hot, 1.0, scheme)))
    return worst <= 1e-10, f"max |COP at stop point| = {worst:.2e} (tol 1e-10)"


def _check_cop_cswap_tripling():
    worst = 0.0
    for n in (2, 3, 4, 7):
        for r in (0.1, 0.5, 0.9):
            ratio = fridge.cop(n, 2, r, r, 1.0, "cswap") / fridge.cop(n, 2, r, r, 1.0, "ico")
            worst = max(worst, abs(ratio - 3.0) / 3.0)
    return worst <= 1e-9, f"max relative deviation of COP ratio from 3: {worst:.2e} (tol 1e-9)"


def _check_demon_statistics():
    cfg = demon.DemonConfig(particles=10_000, n=100, r=0.1, seed=20260810)
    rep = demon.run_demon(cfg)
    if abs(rep.initial_total_energy - 10_000 * (0.1 / 1.1)) > 1e-9:
        return False, f"initial energy {rep.initial_total_energy}"
    cooled = rep.cooled_count / cfg.particles
    if abs(cooled - 0.75) > 0.02:
        return False, f"cooled fraction {cooled:.4f} outside 75% +- 2pp"
    analytic = demon.analytic_transfer_fraction(100, 2, 0.1)
    if abs(rep.transferred_fraction - analytic) > 0.03:
        return False, f"transfer {rep.transferred_fraction:.4f} vs analytic {analytic:.4f}"
    rep2 = demon.run_demon(demon.DemonConfig(particles=10_000, n=2, r=0.1, seed=20260810))
    analytic2 = demon.analytic_transfer_fraction(2, 2, 0.1)
    if abs(rep2.transferred_fraction - analytic2) > 0.03:
        return False, f"N=2 transfer {rep2.transferred_fraction:.4f} vs {analytic2:.4f}"
    # 4-sigma binomial band for the cooled fraction on a few configurations
    for n, r in ((2, 0.3), (10, 0.6), (100, 0.9)):
        c = demon.DemonConfig(particles=20_000, n=n, r=r, seed=99)
        rp = demon.run_demon(c)
        p_c = nswitch.branch_stats(n, thermal.ThermalSpec.qubit(r)).p_c
        band = 4 * math.sqrt(p_c * (1 - p_c) / c.particles)
        frac = rp.cooled_count / c.particles
        if abs(frac - p_c) > band:
            return False, f"cooled fraction {frac:.4f} outside 4-sigma of {p_c:.4f}"
    return True, (
        f"cooled {cooled:.1%}, transfer {rep.transferred_fraction:.1%} "
        f"(analytic {analytic:.1%}), N=2 {rep2.transferred_fraction:.1%}"
    )


def _check_demon_rounds_invariance():
    worst = 0.0
    for scheme in ("ico", "traj"):
        for n, r in ((2, 0.3), (100, 0.1)):
            one = demon.expected_transfer_exact(n, 2, r, 1, scheme)
            for rounds in (2, 3):
                worst = max(worst, abs(demon.expected_transfer_exact(n, 2, r, rounds, scheme) - one))
    return worst <= 1e-10, f"expected-transfer drift over rounds {worst:.2e} (tol 1e-10)"


def _check_demon_heat_jump():
    hj = demon.heat_jump_scan(
        demon.DemonConfig(particles=10_000, n=100, r=0.33, rounds=10, seed=20260810)
    )
    if hj.ever_inverted_count < 1:
        return False, "no inversion events at N=100, r=0.33"
    if not all(demon.qubit_never_inverts(float(r)) for r in np.linspace(0.001, 0.999, 999)):
        return False, "two-reservoir inversion threshold crossed"
    for r in (0.1, 0.5, 0.9):
        h2 = demon.heat_jump_scan(demon.DemonConfig(particles=2000, n=2, r=r, rounds=10, seed=7))
        if h2.ever_inverted_count:
            return False, f"two-reservoir run inverted at r={r}"
    return True, (
        f"{hj.ever_inverted_count} inversions at N=100 (first round "
        f"{hj.first_inversion_round}); none possible or observed at N=2"
    )


def _check_demon_determinism():
    cfg = demon.DemonConfig(particles=5000, n=10, r=0.2, rounds=3, seed=123)
    a = demon.run_demon(cfg)
    b = demon.run_demon(cfg)
    same = (
        np.array_equal(a.final_energies, b.final_energies)
        and np.array_equal(a.heated, b.heated)
    )
    return same, "bit-identical reports for identical config+seed" if same else "reports differ"


CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "qmat_algebra": _check_qmat_algebra,
    "kraus_completeness": _check_kraus_completeness,
    "thermalizing_fixed_point": _check_thermalizing_fixed_point,
    "closed_form_vs_bruteforce": _check_closed_form_vs_bruteforce,
    "bruteforce_arbitrary_input": _check_bruteforce_arbitrary_input,
    "noncyclic_order_sets": _check_noncyclic_order_sets,
    "branch_probability_closure": _check_branch_probability_closure,
    "heating_branch_n_independence": _check_heating_branch_n_independence,
    "weighted_energy_doubling": _check_weighted_energy_doubling,
    "qudit_boost": _check_qudit_boost,
    "measurement_basis": _check_measurement_basis,
    "measured_branches": _check_measured_branches,
    "entropy_identity": _check_entropy_identity,
    "cswap_no_signalling": _check_cswap_no_signalling,
    "cswap_marginals": _check_cswap_marginals,
    "cswap_energy_identity": _check_cswap_energy_identity,
    "cswap_tripling": _check_cswap_tripling,
    "cswap_sequential_discard": _check_cswap_sequential_discard,
    "cswap_ordered_circuit_equivalence": _check_cswap_ordered_circuit_equivalence,
    "traj_dilation_agreement": _check_traj_dilation_agreement,
    "traj_obtainability": _check_traj_obtainability,
    "traj_branch_normalization": _check_traj_branch_normalization,
    "fridge_fixed_points": _check_fridge_fixed_points,
    "first_law_audit": _check_first_law_audit,
    "cop_zero_point": _check_cop_zero_point,
    "cop_cswap_tripling": _check_cop_cswap_tripling,
    "demon_statistics": _check_demon_statistics,
    "demon_rounds_invariance": _check_demon_rounds_invariance,
    "demon_heat_jump": _check_demon_heat_jump,
    "demon_determinism": _check_demon_determinism,
}


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default), in declaration order."""
    selected = list(CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")

    def run_one(name: str) -> CheckResult:
        start = time.perf_counter()
        try:
            passed, detail = CHECKS[name]()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        return CheckResult(name=name, passed=passed, detail=detail, seconds=time.perf_counter() - start)

    return [run_one(name) for name in selected]

"""Acceptance gate: every quantitative promise of the package, one test per
criterion, each printing a PASS/FAIL line with its measured values.

A criterion runs named ``verify`` checks, which hold the grids and
tolerances, under a wall-time bound."""

import math
import time

from icofridge import verify

# number -> (label, verify checks (None: all), wall-time bound in s)
CRITERIA = {
    1: ("closed form vs brute force", ["closed_form_vs_bruteforce"], 10.0),
    2: ("non-cyclic order sets give T^3 (N=3) / T^5 (N=4)", ["noncyclic_order_sets"], math.inf),
    3: ("p_H(2, r=1) = 0.375 and probability closure", ["branch_probability_closure"], math.inf),
    4: ("weighted energy doubles for many channels", ["weighted_energy_doubling"], math.inf),
    5: ("qudit boost factor 2(D-1)(N-1)/N", ["qudit_boost"], math.inf),
    6: (
        "basis orthonormality, branch states, entropy identity",
        ["measurement_basis", "measured_branches", "entropy_identity"],
        math.inf,
    ),
    7: (
        "controlled-SWAP marginals, energy identity, discard, tripling",
        ["cswap_marginals", "cswap_energy_identity", "cswap_sequential_discard", "cswap_tripling"],
        30.0,
    ),
    8: (
        "trajectory closed form vs dilation; obtainability bound",
        ["traj_dilation_agreement", "traj_obtainability"],
        math.inf,
    ),
    9: ("cycle asymptotes match closed-form limits", ["fridge_fixed_points"], math.inf),
    10: ("COP vanishes at the stop condition", ["cop_zero_point"], math.inf),
    11: ("demon sample statistics", ["demon_statistics"], 5.0),
    12: ("heat jump: inversions at N=100, never at N=2", ["demon_heat_jump"], math.inf),
    13: ("full verification suite green in under two minutes", None, 120.0),
}


def _criterion(number: int):
    label, names, bound = CRITERIA[number]
    start = time.perf_counter()
    results = verify.run_checks(names)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < bound
    checks = ", ".join(
        f"{r.name} {r.defect:.1e} <= {r.tol:g}" if r.passed else f"{r.name} FAIL {r.detail}"
        for r in results
    )
    mark = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {mark} {label} ({checks}; {elapsed:.1f}s)"
    print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence():
    _criterion(1)


def test_criterion_02_noncyclic_order_sets():
    _criterion(2)


def test_criterion_03_branch_probabilities():
    _criterion(3)


def test_criterion_04_weighted_energy_doubling():
    _criterion(4)


def test_criterion_05_qudit_boost():
    _criterion(5)


def test_criterion_06_measurement_basis_and_entropy():
    _criterion(6)


def test_criterion_07_controlled_swap():
    _criterion(7)


def test_criterion_08_trajectories():
    _criterion(8)


def test_criterion_09_temperature_limits():
    _criterion(9)


def test_criterion_10_cop_zero_point():
    _criterion(10)


def test_criterion_11_demon_statistics():
    _criterion(11)


def test_criterion_12_heat_jump():
    _criterion(12)


def test_criterion_13_verify_suite():
    _criterion(13)

import math

import numpy as np
import pytest

from icofridge import qmat
from icofridge.channels import thermalizing_kraus
from icofridge.thermal import ThermalSpec, gibbs_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_trace_multiplicative():
    r = 0.4
    t = np.diag([1, r]) / (1 + r)
    prod = np.kron(t, t)
    assert abs(np.trace(prod) - 1.0) < 1e-15


def test_kron_pauli_x_squares_to_identity():
    # oracle: direct 4x4 multiplication
    xx = np.kron(SX, SX)
    direct = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            direct[i, j] = sum(xx[i, k] * xx[k, j] for k in range(4))
    assert np.max(np.abs(direct - np.eye(4))) < 1e-15


def test_kron_mixed_product_property():
    rng = np.random.default_rng(0)
    for da, db in ((2, 2), (2, 4), (3, 2), (8, 3)):
        a, b, c, d = (random_matrix(rng, x) for x in (da, db, da, db))
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    for da, db in ((2, 2), (3, 4), (8, 2)):
        a, b = random_matrix(rng, da), random_matrix(rng, db)
        reduced = qmat.partial_trace(np.kron(a, b), (da, db), {0})
        assert np.max(np.abs(reduced - a * np.trace(b))) < 1e-12


def _partial_trace_loop(m, dims, keep):
    """Reference: trace out one subsystem at a time with np.trace."""
    n = len(dims)
    tensor = m.reshape(tuple(dims) * 2)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + tensor.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return tensor.reshape(d_keep, d_keep)


@pytest.mark.parametrize(
    "dims, keep",
    [
        ((2, 3), {1}),
        ((3, 2, 4), {0}),
        ((3, 2, 4), {0, 2}),
        ((2, 3, 4, 2), {1, 3}),
        ((4, 2, 3, 2), {0, 2, 3}),
        ((2, 4, 3, 2, 2), {0, 2, 4}),
        ((2, 2, 2), {0, 1, 2}),
    ],
)
def test_partial_trace_matches_trace_loop(dims, keep):
    # mixed dimensions, non-adjacent kept subsystems, complex entries
    rng = np.random.default_rng(sum(dims) + len(keep))
    m = random_matrix(rng, int(np.prod(dims)))
    got = qmat.partial_trace(m, dims, keep)
    ref = _partial_trace_loop(m, dims, sorted(keep))
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-13


def test_partial_trace_subsystem_limit():
    # one einsum labels at most 26 subsystems; size-1 factors keep it small
    assert qmat.partial_trace(np.eye(1), (1,) * 26, {0}).shape == (1, 1)
    with pytest.raises(ValueError, match="27 subsystems exceed the 26"):
        qmat.partial_trace(np.eye(1), (1,) * 27, {0})


def test_partial_trace_all_subsystems_gives_trace():
    rho = np.diag([0.3, 0.2, 0.25, 0.25]).astype(complex)
    out = qmat.partial_trace(rho, (4,), {0})
    assert out.shape == (4, 4)
    full = qmat.partial_trace(rho, (2, 2), {0})
    assert abs(np.trace(full) - 1.0) < 1e-14


def test_partial_trace_bell_projector():
    # oracle: 4x4 hand computation for |00>+|11>
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    for keep in (0, 1):
        reduced = qmat.partial_trace(bell, (2, 2), {keep})
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-15


def test_partial_trace_preserves_trace_multipartite():
    rng = np.random.default_rng(2)
    dims = (2, 3, 2)
    m = random_matrix(rng, 12)
    for keep in ({0}, {1}, {2}, {0, 2}, {0, 1, 2}):
        reduced = qmat.partial_trace(m, dims, keep)
        assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_partial_trace_shape_errors():
    with pytest.raises(ValueError):
        qmat.partial_trace(np.eye(4), (2, 3), {0})
    with pytest.raises(ValueError):
        qmat.partial_trace(np.eye(4), (2, 2), set())
    with pytest.raises(ValueError):
        qmat.partial_trace(np.eye(4), (2, 2), {5})
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 4\)"):
        qmat.partial_trace(np.ones((2, 4)), (2,), {0})
    with pytest.raises(ValueError, match=r"subsystem dimensions must be positive, got \(-2, -2\)"):
        qmat.partial_trace(np.eye(4), (-2, -2), {0})


def test_pauli_basis_qubit_is_pauli_group():
    basis = qmat.pauli_basis(2)
    expected = [
        np.eye(2),
        SX,
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1, -1]),
    ]
    for got, want in zip(basis, expected):
        assert np.max(np.abs(got - want)) == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pauli_basis_orthogonality_and_completeness(d):
    basis = qmat.pauli_basis(d)
    assert len(basis) == d * d
    gram = np.array([[np.trace(qmat.dagger(a) @ b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - d * np.eye(d * d))) < 1e-12
    rng = np.random.default_rng(d)
    m = random_matrix(rng, d)
    total = sum(u @ m @ qmat.dagger(u) for u in basis)
    assert np.max(np.abs(total - d * np.trace(m) * np.eye(d))) < 1e-12


def test_dagger_involution():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 5)
    assert np.array_equal(qmat.dagger(qmat.dagger(m)), m)


def test_sqrt_diagonal():
    # the thermalizing channel's A = sqrt(T) is K_0 sqrt(d), since U_0 = I
    for d in (2, 3, 5):
        for r in (1e-300, 0.3, 1.0):
            spec = ThermalSpec.degenerate(d, r)
            a = thermalizing_kraus(spec).operators[0] * np.sqrt(d)
            assert np.max(np.abs(a @ a - gibbs_state(spec))) < 1e-15


def _kron_then_transpose(m, dims, index, fresh):
    """Oracle: fresh (x) the other subsystems' marginal, whose factors are
    then put back in their order by one transpose."""
    n = len(dims)
    keep = [k for k in range(n) if k != index]
    combined = np.kron(fresh, qmat.partial_trace(m, dims, keep))
    order = [index] + keep  # combined's factor order
    perm = [order.index(k) for k in range(n)]
    factors = tuple(dims[k] for k in order)
    tensor = combined.reshape(factors + factors).transpose(perm + [p + n for p in perm])
    return tensor.reshape(m.shape)


@pytest.mark.parametrize("dims", ((2, 3), (3, 2, 2), (4, 2, 3), (2,) * 5))
def test_replace_subsystem_equals_kron_then_transpose(dims):
    rng = np.random.default_rng(len(dims))
    m = random_matrix(rng, math.prod(dims))
    for index, d in enumerate(dims):
        fresh = random_matrix(rng, d)
        expected = _kron_then_transpose(m, dims, index, fresh)
        assert np.array_equal(qmat.replace_subsystem(m, dims, index, fresh), expected)


def test_replace_subsystem_leaves_other_marginals():
    rng = np.random.default_rng(5)
    dims = (2, 2, 2)
    m = random_matrix(rng, 8)
    m = m @ qmat.dagger(m)
    m /= np.trace(m).real
    fresh = np.diag([0.7, 0.3]).astype(complex)
    out = qmat.replace_subsystem(m, dims, 1, fresh)
    assert np.max(np.abs(qmat.partial_trace(out, dims, {1}) - fresh)) < 1e-12
    for other in (0, 2):
        before = qmat.partial_trace(m, dims, {other})
        after = qmat.partial_trace(out, dims, {other})
        assert np.max(np.abs(before - after)) < 1e-12

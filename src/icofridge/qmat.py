"""Dense complex linear algebra for small multipartite systems.

Everything here operates on plain numpy arrays in row-major order. Matrices
stay dense; the largest objects in this package are a few thousand on a side,
so there is no point in sparse formats. Subsystem structure is carried
explicitly as a tuple of dimensions (e.g. ``(N, 2)`` for control x target)
and validated where it matters.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

# Tolerance for algebraic identities (completeness sums, trace preservation,
# Hermiticity ...). Individual checks may override.
ALGEBRA_TOL = 1e-10


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty sequence of matrices, left to right."""
    return functools.reduce(np.kron, mats)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` gives the tensor factorization of ``m``; ``keep`` is a set of
    subsystem indices to retain (order of the kept factors is preserved).
    The trace of the result equals the trace of the input.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != m.shape[0]:
        raise ValueError(f"subsystem dims {dims} do not factor matrix dimension {m.shape[0]}")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")

    # one einsum, whose 52 labels allow 26 subsystems: subsystem k's row index
    # is chr(97 + k), and its column index chr(65 + k) if kept, else the same
    if n > 26:
        raise ValueError(f"{n} subsystems exceed the 26 that one einsum can label")
    rows = [chr(97 + k) for k in range(n)]
    cols = [chr(65 + k) if k in keep else rows[k] for k in range(n)]
    out = "".join(rows[k] for k in keep) + "".join(cols[k] for k in keep)
    tensor = np.einsum("".join(rows + cols) + "->" + out, m.reshape(dims + dims))
    d_keep = math.prod(dims[k] for k in keep)
    return tensor.reshape(d_keep, d_keep)


def replace_subsystem(
    m: np.ndarray, dims: Sequence[int], index: int, fresh: np.ndarray
) -> np.ndarray:
    """Discard subsystem ``index`` and put the state ``fresh`` in its place.

    This is the action of a channel that traces out one factor and reprepares
    it; marginals of all other subsystems are untouched. ``dims`` has at
    least two factors, ``index`` names one of them and ``fresh`` is
    ``dims[index]`` on a side; the caller checks these, so the remaining
    factors come from one ``np.trace`` over subsystem ``index``'s row and
    column axes, not a validating ``partial_trace``.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    fresh = np.asarray(fresh)
    # the other factors' rows, then their columns, as partial_trace keeps them
    rest = np.trace(np.asarray(m).reshape(dims + dims), axis1=index, axis2=n + index)
    # fresh (x) rest as a tensor: fresh's row and column axes lead; move them
    # to subsystem ``index``'s row and column slots
    tensor = np.multiply.outer(fresh, rest)
    tensor = np.moveaxis(tensor, (0, 1), (index, n + index))
    return tensor.reshape(math.prod(dims), -1)


def pauli_basis(d: int) -> list[np.ndarray]:
    """Orthogonal unitary basis of the d x d matrices.

    Returns d**2 unitaries U_i with tr(U_i^dag U_j) = d * delta_ij and the
    completeness relation sum_i U_i M U_i^dag = d * tr(M) * I for every M.
    For d = 2 these are the Pauli matrices {I, X, Y, Z}; for d > 2 the
    clock-and-shift (generalized Pauli) construction is used.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d == 2:
        return [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    basis = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        zb = np.eye(d, dtype=complex)
        for _ in range(d):
            basis.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return basis

"""Dense complex Hermitian / positive definite matrix algebra.

Matrices are plain ``numpy`` arrays of ``complex128``.  The public
operations validate their input against the Hermitian tolerance once, on
entry; the private ``_power`` and ``_congruence`` skip that check and
serve callers whose operands are already validated.  Outputs are
re-symmetrized with ``(M + M*) / 2`` so that round-off never accumulates
into a symmetry defect across long iteration runs.

Every eigensolve is a call to ``eig_hermitian``, a thin wrapper over
LAPACK ``eigh`` (``numpy.linalg.eigh``).  The tests cross-check it against
an independent cyclic Jacobi solver kept in ``tests/jacobi.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
    NotPositiveDefinite,
)

ComplexMatrix = NDArray[np.complex128]

_EPS = float(np.finfo(np.float64).eps)


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = V diag(eigenvalues) V*.

    ``eigenvalues`` are real and sorted ascending; ``vectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: NDArray[np.float64]
    vectors: ComplexMatrix


def identity(n: int) -> ComplexMatrix:
    """The n-by-n identity as a complex matrix."""
    return np.eye(n, dtype=np.complex128)


def as_square_matrix(m, name: str = "matrix") -> ComplexMatrix:
    """Coerce to a square complex array with finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonHermitianInput(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(m) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.complex128)))


def hermitian_tolerance(m) -> float:
    """Symmetry tolerance: 1e-12 * max(1, ||M||_F)."""
    return 1e-12 * max(1.0, frobenius_norm(m))


def symmetrize(m) -> ComplexMatrix:
    """(M + M*) / 2, the Hermitian part of M."""
    arr = np.asarray(m, dtype=np.complex128)
    return 0.5 * (arr + arr.conj().T)


def require_hermitian(m, name: str = "matrix") -> ComplexMatrix:
    """Validate Hermitian symmetry and return the coerced array.

    Raises ``NonHermitianInput`` when any entry differs from the conjugate
    of its mirror by more than the relative tolerance (this also covers
    imaginary parts on the diagonal).
    """
    arr = as_square_matrix(m, name)
    defect = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
    tol = hermitian_tolerance(arr)
    if defect > tol:
        raise NonHermitianInput(
            f"{name} is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return arr


def eig_hermitian(m) -> EigenDecomposition:
    """Eigendecomposition of a complex Hermitian matrix by LAPACK ``eigh``.

    Every eigensolve in the package goes through this function.

    Parameters
    ----------
    m : array_like
        Square Hermitian matrix (validated against the relative tolerance).

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending, eigenvectors as orthonormal columns.

    Raises
    ------
    NonHermitianInput
        If the symmetry tolerance is violated or an entry is not finite.
    ConvergenceFailure
        If LAPACK reports that the decomposition did not converge.
    """
    arr = require_hermitian(m)
    try:
        lam, vectors = np.linalg.eigh(symmetrize(arr))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    return EigenDecomposition(lam, vectors)


def pd_floor(eigenvalues: NDArray[np.float64]) -> float:
    """Relative positive-definiteness floor: n * eps * lambda_max."""
    lam_max = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return len(eigenvalues) * _EPS * max(lam_max, 0.0)


def is_positive_definite(m) -> tuple[bool, float]:
    """Whether the smallest eigenvalue clears the relative floor.

    Returns the verdict together with the smallest eigenvalue, which is
    reported either way.
    """
    dec = eig_hermitian(m)
    min_eig = float(dec.eigenvalues[0])
    return min_eig > pd_floor(dec.eigenvalues), min_eig


def matrix_power(m, p: float) -> ComplexMatrix:
    """Real matrix power of a positive definite matrix.

    Computed as V diag(lambda_i ** p) V* from the eigendecomposition and
    re-symmetrized.  Any finite nonzero real exponent is accepted; the
    positivity of the spectrum makes them all well defined.

    Raises
    ------
    NotPositiveDefinite
        If the smallest eigenvalue does not clear the relative floor.
    ValueError
        If the exponent is zero or not finite.
    """
    p = float(p)
    if p == 0.0 or not math.isfinite(p):
        raise ValueError(f"exponent must be finite and nonzero, got {p}")
    return _power(m, p)


def _power(m, p: float) -> ComplexMatrix:
    """``matrix_power`` for an exponent known to be finite and nonzero."""
    dec = eig_hermitian(m)
    lam = dec.eigenvalues
    if lam[0] <= pd_floor(lam):
        raise NotPositiveDefinite(
            f"matrix_power requires a positive definite input "
            f"(min eigenvalue {lam[0]:.3e}, floor {pd_floor(lam):.3e})"
        )
    return symmetrize((dec.vectors * lam**p) @ dec.vectors.conj().T)


def congruence(a, m) -> ComplexMatrix:
    """The congruence A* M A, re-symmetrized.

    Preserves positive definiteness whenever A is nonsingular.
    """
    a_arr = as_square_matrix(a, "congruence factor")
    m_arr = require_hermitian(m, "congruence argument")
    if a_arr.shape[0] != m_arr.shape[0]:
        raise DimensionMismatch(
            f"congruence shapes differ: {a_arr.shape} vs {m_arr.shape}"
        )
    return _congruence(a_arr, m_arr)


def _congruence(a: ComplexMatrix, m: ComplexMatrix) -> ComplexMatrix:
    """``congruence`` of a square factor and a Hermitian argument of the
    same size, both already validated."""
    return symmetrize(a.conj().T @ m @ a)


def matrix_from_literal(obj, name: str = "matrix") -> ComplexMatrix:
    """Parse the nested-array matrix literal shared with the problem files.

    Each entry is either a bare real number or an ``[re, im]`` pair; rows
    must be lists of equal length.
    """
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise DimensionMismatch(f"{name} must be a non-empty list of rows")
    n_rows = len(obj)
    out = np.zeros((n_rows, len(obj[0])), dtype=np.complex128)
    for i, row in enumerate(obj):
        if len(row) != len(obj[0]):
            raise DimensionMismatch(f"{name} row {i} has length {len(row)}, expected {len(obj[0])}")
        for j, entry in enumerate(row):
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                out[i, j] = float(entry)
            elif (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
            ):
                out[i, j] = complex(float(entry[0]), float(entry[1]))
            else:
                raise DimensionMismatch(
                    f"{name} entry [{i}][{j}] must be a number or an [re, im] pair, got {entry!r}"
                )
    return out


def matrix_to_literal(m) -> list:
    """Serialize a matrix to the nested-array literal.

    Real matrices are written with bare numbers, complex ones with
    ``[re, im]`` pairs throughout; either form parses back to the exact
    same array.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if np.all(arr.imag == 0.0):
        return [[float(entry.real) for entry in row] for row in arr]
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in arr]


def _haar_unitary(rng: np.random.Generator, n: int) -> ComplexMatrix:
    """Haar-distributed unitary: QR of a complex Gaussian draw with the
    diagonal phases of R fixed to one."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return np.ascontiguousarray(q * (d / np.abs(d)))


def random_unitary(n: int, seed) -> ComplexMatrix:
    """Seeded random n-by-n unitary matrix.

    Deterministic for a fixed seed; ``seed`` may also be an existing
    ``numpy.random.Generator``.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be positive, got {n}")
    return _haar_unitary(np.random.default_rng(seed), n)


def random_pd_in_ball(n: int, radius: float, seed) -> ComplexMatrix:
    """Seeded random positive definite matrix within a log-eigenvalue bound.

    Returns X = U diag(exp(t_1), ..., exp(t_n)) U* with each t_i uniform in
    [-radius, radius] and U a seeded random unitary, so every eigenvalue of
    X lies in [exp(-radius), exp(radius)] by construction.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be positive, got {n}")
    radius = float(radius)
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(-radius, radius, size=n)
    u = _haar_unitary(rng, n)
    return symmetrize((u * np.exp(t)) @ u.conj().T)

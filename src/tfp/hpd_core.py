"""Dense complex Hermitian / positive definite matrix algebra.

Matrices are plain ``numpy`` arrays of ``complex128``.  The kernels
(``symmetrize``, ``_congruence``, ``eig_hermitian``, ``PDPoint.powered``)
also take stacks of shape ``(..., n, n)`` and work matrix by matrix: a
single matrix is the same code with no leading axis, and a matrix of a
stack comes out with the bits it would have on its own.  Input is validated
once, where it comes in: ``pd_point`` checks a matrix against the
Hermitian tolerance and the positive-definiteness floor, and what it
returns, a ``PDPoint``, is trusted from then on.  The kernels that work on
validated or computed operands (``eig_hermitian``, ``_congruence`` and
``PDPoint.powered``) do not check symmetry again.  Outputs are
re-symmetrized with ``(M + M*) / 2`` so that round-off never accumulates
into a symmetry defect across long iteration runs; the result is exactly
Hermitian, so ``eig_hermitian`` decomposes it as it is.

A ``PDPoint`` is a positive definite matrix carried with its
eigendecomposition.  ``pd_point`` decomposes a matrix once; powers, ratio
spectra and distances then read the known spectrum.  X**p is the point
``pd_point(x).powered(p)``, with X's eigenvectors and eigenvalues
lambda_i**p.  A point converts to its matrix wherever numpy expects an
array.  A stack of points is one ``PDPoint`` whose fields carry the
leading axes; indexing it selects points.

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

# The exact types of a number in a matrix literal.
_REAL = (int, float)


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = V diag(eigenvalues) V*.

    ``eigenvalues`` are real and sorted ascending; ``vectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: NDArray[np.float64]
    vectors: ComplexMatrix


class PDPoint:
    """A positive definite matrix carried with its eigendecomposition.

    ``matrix`` is the Hermitian array and ``dec`` its spectral
    factorization, eigenvalues ascending and above the relative floor.
    Build one with ``pd_point`` (one eigensolve) or as a power of another
    point (none).  Treat both fields as read-only: the decomposition
    describes the matrix only while neither changes.  A stack of points
    has leading axes on every field, and ``point[index]`` selects along
    them.
    """

    __slots__ = ("matrix", "dec")

    def __init__(self, matrix: ComplexMatrix, dec: EigenDecomposition) -> None:
        self.matrix = matrix
        self.dec = dec

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype) if copy else np.asarray(self.matrix, dtype=dtype)

    def __getitem__(self, index) -> "PDPoint":
        lam, vectors = self.dec
        return PDPoint(self.matrix[index], EigenDecomposition(lam[index], vectors[index]))

    def powered(self, p: float) -> "PDPoint":
        """X**p = V diag(lambda_i ** p) V*, re-symmetrized, as a point; for a
        negative p the decomposition is reversed back to ascending order."""
        lam, vectors = self.dec
        mu = lam**p
        matrix = symmetrize((vectors * mu[..., None, :]) @ vectors.conj().swapaxes(-1, -2))
        if p < 0.0:
            mu, vectors = mu[..., ::-1], vectors[..., ::-1]
        return PDPoint(matrix, EigenDecomposition(mu, vectors))


def identity(n: int) -> ComplexMatrix:
    """The n-by-n identity as a complex matrix."""
    return np.eye(n, dtype=np.complex128)


def as_square_matrix(m, name: str = "matrix") -> ComplexMatrix:
    """Coerce to a square complex array, or a stack of them, with finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonHermitianInput(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(m) -> float:
    """Frobenius norm of a matrix: numpy's, unless its sum of squares
    overflows (norms above about 1e154); a finite matrix is then scaled by
    its largest real or imaginary part first."""
    arr = np.asarray(m, dtype=np.complex128)
    norm = float(np.linalg.norm(arr))
    if math.isinf(norm) and np.isfinite(arr).all():
        scale = float(np.maximum(np.abs(arr.real), np.abs(arr.imag)).max())
        norm = scale * float(np.linalg.norm(arr / scale))
    return norm


def hermitian_tolerance(m) -> float:
    """Symmetry tolerance: 1e-12 * max(1, ||M||_F), scaled before the norm,
    so it is finite for every finite M."""
    # frobenius_norm rescales a sum of squares that overflows, so numpy's
    # overflow warning would be noise; it runs once per validated matrix
    with np.errstate(over="ignore"):
        return max(1e-12, frobenius_norm(1e-12 * np.asarray(m, dtype=np.complex128)))


def symmetrize(m) -> ComplexMatrix:
    """(M + M*) / 2, the Hermitian part of M (of each matrix of a stack).

    Halved before the sum, which gives the same bits (halving is exact)
    but cannot overflow on entries above half the largest float.
    """
    half = 0.5 * np.asarray(m, dtype=np.complex128)
    return half + half.conj().swapaxes(-1, -2)


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


def eig_hermitian(m, name: str = "matrix") -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack, by LAPACK ``eigh``.

    Every eigensolve in the package goes through this function; a stack
    is one call that decomposes every matrix in it.  It does not check
    symmetry, and ``eigh`` reads one triangle only, so the argument must
    be exactly Hermitian: ``pd_point`` symmetrizes a matrix it has
    validated, and the kernels symmetrize what they compute.  It does
    check that the entries are finite, because a right-hand side computed
    from valid input can overflow and ``eigh`` returns NaN eigenvalues for
    it without an error.

    Parameters
    ----------
    m : array_like
        Exactly Hermitian square matrix, or stack ``(..., n, n)``.
    name : str
        Labels the matrix in an error message.

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending, eigenvectors as orthonormal columns, with
        the leading axes of a stack.

    Raises
    ------
    DimensionMismatch
        If the matrix is not square.
    NonHermitianInput
        If an entry is not finite.
    ConvergenceFailure
        If LAPACK reports that the decomposition did not converge.
    """
    arr = as_square_matrix(m, name)
    try:
        lam, vectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    return EigenDecomposition(lam, vectors)


def pd_floor(eigenvalues: NDArray[np.float64]):
    """Relative positive-definiteness floor n * eps * lambda_max of
    ascending eigenvalues, one per spectrum of a stack.

    lambda_max is not clamped at 0: a spectrum with no positive eigenvalue
    gets a floor of at most 0, which its smallest eigenvalue does not
    clear, just as it would not clear a floor of 0.
    """
    return eigenvalues.shape[-1] * _EPS * eigenvalues[..., -1]


def _count(mask) -> int:
    """How many samples a per-sample mask holds for: a numpy bool for a
    single sample (counted without a ufunc call, which would cost more
    than the rest of a small decision) or a boolean array for a stack."""
    return int(mask) if mask.ndim == 0 else int(np.count_nonzero(mask))


def pd_point(m, name: str = "matrix") -> PDPoint:
    """The positive definite point of a Hermitian matrix: one eigensolve.

    This is where a matrix from outside is checked.  A ``PDPoint`` is
    returned as it is.  Raises ``NonHermitianInput`` or, when the smallest
    eigenvalue does not clear the relative floor, ``NotPositiveDefinite``;
    ``name`` labels the matrix in the message.  The point keeps M and the
    decomposition of its Hermitian part (M + M*) / 2.
    """
    if isinstance(m, PDPoint):
        return m
    arr = require_hermitian(m, name)
    return _point(arr, name, symmetrize(arr))


def _point(arr: ComplexMatrix, name: str = "matrix", hermitian: ComplexMatrix | None = None) -> PDPoint:
    """``pd_point`` of an array, or a stack, that a kernel computed and
    symmetrized, so it is exactly Hermitian; for an array only validated
    as Hermitian within the tolerance, ``hermitian`` is its Hermitian part,
    which is decomposed in its place.  ``name`` labels the matrix in the
    non-finite and the positive-definiteness errors; on a stack they
    report the first matrix that fails."""
    dec = eig_hermitian(arr if hermitian is None else hermitian, name)
    lam_min, floor = dec.eigenvalues[..., 0], pd_floor(dec.eigenvalues)
    below = lam_min <= floor
    if _count(below):
        first = np.flatnonzero(below)[0]
        raise NotPositiveDefinite(
            f"{name} must be positive definite (min eigenvalue {np.ravel(lam_min)[first]:.3e}, "
            f"floor {max(np.ravel(floor)[first], 0.0):.3e})"
        )
    return PDPoint(arr, dec)


def _congruence(a: ComplexMatrix, m: ComplexMatrix) -> ComplexMatrix:
    """The congruence A* M A, re-symmetrized, of a square factor and a
    Hermitian argument of the same size, either of them a stack; neither
    is validated.

    Preserves positive definiteness whenever A is nonsingular.
    """
    return symmetrize(a.conj().swapaxes(-1, -2) @ m @ a)


def matrix_from_literal(obj, name: str = "matrix") -> ComplexMatrix:
    """Parse the nested-array matrix literal shared with the problem files.

    Each entry is either a bare real number or an ``[re, im]`` pair of
    them, a number being an ``int`` or a ``float`` as ``json.loads``
    returns it (not a ``bool``); rows must be lists of equal length.  An
    integer beyond the float range is rejected, naming the entry.
    """
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise DimensionMismatch(f"{name} must be a non-empty list of rows")
    n_cols = len(obj[0])
    values = []
    for i, row in enumerate(obj):
        if len(row) != n_cols:
            raise DimensionMismatch(f"{name} row {i} has length {len(row)}, expected {n_cols}")
        for j, entry in enumerate(row):
            re, im = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0.0)
            if type(re) not in _REAL or type(im) not in _REAL:
                raise DimensionMismatch(
                    f"{name} entry [{i}][{j}] must be a number or an [re, im] pair, got {entry!r}"
                )
            try:
                values.append(complex(re, im))
            except OverflowError:
                raise DimensionMismatch(f"{name} entry [{i}][{j}] is an integer beyond the float range") from None
    return np.array(values, dtype=np.complex128).reshape(len(obj), n_cols)


def matrix_to_literal(m) -> list:
    """Serialize a matrix to the nested-array literal.

    Real matrices are written with bare numbers, complex ones with
    ``[re, im]`` pairs throughout; either form parses back to the exact
    same array.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if not arr.imag.any():
        return arr.real.tolist()
    return np.stack((arr.real, arr.imag), -1).tolist()


def _haar_unitaries(z: ComplexMatrix) -> ComplexMatrix:
    """Haar-distributed unitaries from a stack of complex Gaussian draws:
    one stacked QR, with the diagonal phases of each R fixed to one."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return np.ascontiguousarray(q * (d / np.abs(d))[..., None, :])


def random_pd_in_ball(n: int, radius: float, seed, shape: tuple[int, ...] = ()) -> PDPoint:
    """Seeded random positive definite point within a log-eigenvalue bound.

    Returns X = U diag(exp(t_1), ..., exp(t_n)) U* with each t_i uniform in
    [-radius, radius] and U a seeded random unitary, so every eigenvalue of
    X lies in [exp(-radius), exp(radius)] by construction.  The point keeps
    that construction, sorted, as its decomposition: no eigensolve.

    With a ``shape``, the result is a stack of points of that shape.  They
    are drawn one after another, in C order, from the same generator, so
    each has the draws and the bits it would have as a single point drawn
    in turn; the unitaries come from one stacked QR.

    A radius whose exp overflows is a ``NonHermitianInput``, raised before
    drawing: the points would have infinite eigenvalues.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be positive, got {n}")
    radius = float(radius)
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    try:
        math.exp(radius)
    except OverflowError:
        message = f"ball of radius {radius:g} is too wide to sample: exp({radius:g}) overflows"
        raise NonHermitianInput(message) from None
    rng = np.random.default_rng(seed)
    count = math.prod(shape)
    t = np.empty((count, n))
    re, im = np.empty((2, count, n, n))
    for k in range(count):
        t[k] = rng.uniform(-radius, radius, size=n)
        rng.standard_normal(out=re[k])
        rng.standard_normal(out=im[k])
    u = _haar_unitaries((re + 1j * im) / math.sqrt(2))
    lam = np.exp(t)
    order = np.argsort(t, axis=-1)
    matrix = symmetrize((u * lam[:, None, :]) @ u.conj().swapaxes(-1, -2))
    lam, u = np.take_along_axis(lam, order, -1), np.take_along_axis(u, order[:, None, :], -1)
    shape = tuple(shape)
    return PDPoint(
        matrix.reshape(shape + (n, n)),
        EigenDecomposition(lam.reshape(shape + (n,)), u.reshape(shape + (n, n))),
    )

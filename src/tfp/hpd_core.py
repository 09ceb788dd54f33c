"""Dense complex Hermitian / positive definite matrix algebra.

Matrices are plain ``numpy`` arrays of ``complex128``.  The kernels
(``symmetrize``, ``eig_hermitian``, ``PDPoint.powered``, ``frobenius_norm``,
the floor check of ``_pd_eig``) also take stacks of shape ``(..., n, n)``
and work matrix by matrix: a single matrix is the same code with no
leading axis, and a matrix of a stack comes out with the bits it would
have on its own.
Input is validated once, where it comes in: ``pd_point`` checks a matrix's
shape, then the Hermitian tolerance and the positive-definiteness floor,
and what it returns, a ``PDPoint``, is trusted from then on.  The kernels
that work on validated or computed operands (``eig_hermitian`` and
``PDPoint.powered``) do not check symmetry again.  Outputs are
re-symmetrized with ``(M + M*) / 2`` so that round-off never accumulates
into a symmetry defect across long iteration runs; the result is exactly
Hermitian, so ``eig_hermitian`` decomposes it as it is.

A ``PDPoint`` is a positive definite matrix carried with its
eigendecomposition.  ``pd_point`` decomposes a matrix once; powers, ratio
spectra and distances then read the known spectrum.  X**p is the point
``pd_point(x).powered(p)``, with X's eigenvectors and eigenvalues
lambda_i**p; a decomposition's ``powered`` gives the same point with no
point for X.  A point converts to its matrix wherever numpy expects an
array.  A stack of points is one ``PDPoint`` whose fields carry the
leading axes; indexing it selects points.

Every eigensolve is a call to ``eig_hermitian``, a thin wrapper over
LAPACK ``eigh`` (``numpy.linalg.eigh``), or over ``eigvalsh`` when the
caller reads no eigenvector.  Only the points need vectors: ``pd_point``,
the iteration maps' roots and the certificate of a solution compute them,
through ``_pd_eig``, which adds the positive-definiteness check of a
point; the Thompson pencils, the Gram check of a type1 coefficient and
condition (C) read eigenvalues only (condition (C) through
``_pd_eig(..., vectors=False)``).  The tests cross-check the solver
against an independent cyclic Jacobi solver kept in ``tests/jacobi.py``.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
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
_REAL = frozenset((int, float))


class EigenDecomposition(NamedTuple):
    """Spectral factorization M = V diag(eigenvalues) V*.

    ``eigenvalues`` are real and sorted ascending; ``vectors`` holds the
    corresponding orthonormal eigenvectors as columns, or is None when
    they were not computed.
    """

    eigenvalues: NDArray[np.float64]
    vectors: ComplexMatrix | None

    def powered(self, p: float) -> "PDPoint":
        """M**p = V diag(lambda_i ** p) V*, re-symmetrized, as a point; for a
        negative p the decomposition is reversed back to ascending order.

        The reversed eigenvalues are copied contiguous: numpy's ``pow`` and
        ``log`` take another loop on a reversed view, which can round
        differently.  The reversed eigenvectors stay a view; they reach only
        elementwise products, ``conj`` and stacking, which copy them."""
        lam, vectors = self
        mu = lam**p
        matrix = symmetrize((vectors * mu[..., None, :]) @ vectors.conj().swapaxes(-1, -2))
        if p < 0.0:
            mu, vectors = np.ascontiguousarray(mu[..., ::-1]), vectors[..., ::-1]
        return PDPoint(matrix, EigenDecomposition(mu, vectors))


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

    @staticmethod
    def stacked(points) -> "PDPoint":
        """One stack of a sequence of points of one shape, in order."""
        lam = np.array([p.dec.eigenvalues for p in points])
        vectors = np.array([p.dec.vectors for p in points])
        return PDPoint(np.array([p.matrix for p in points]), EigenDecomposition(lam, vectors))

    def powered(self, p: float) -> "PDPoint":
        """X**p as a point, from X's decomposition alone."""
        return self.dec.powered(p)


def identity(n: int) -> ComplexMatrix:
    """The n-by-n identity as a complex matrix."""
    return np.eye(n, dtype=np.complex128)


def as_square_matrix(m, name: str = "matrix", n: int | None = None) -> ComplexMatrix:
    """A matrix from outside as a complex array, by the one shape rule: one
    non-empty square matrix, n-by-n when ``n`` is given, with finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    side = n if n is not None else arr.shape[-1] if arr.ndim else 0
    if arr.shape != (side, side) or side < 1:
        expected = f"({side}, {side})" if side >= 1 else "(n, n) with n >= 1"
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {expected}")
    return _require_finite(arr, name)


def _require_finite(arr: ComplexMatrix, name: str) -> ComplexMatrix:
    """``arr``, a matrix or a stack, once its entries are checked finite."""
    if not np.isfinite(arr).all():
        raise NonHermitianInput(f"{name} contains non-finite entries")
    return arr


# a sum of squares that overflows is rescaled, so numpy's warning is noise
@np.errstate(over="ignore")
def frobenius_norm(m):
    """Frobenius norm of a matrix, as a float, or of each matrix of a stack,
    as an array.

    One BLAS dot of the real parts and one of the imaginary parts over each
    matrix's entries in its memory order: the dot and the order of numpy's
    norm of one matrix, so a matrix of a stack gets the bits it gets on its
    own.  A finite matrix whose sum of squares overflows (a norm above
    about 1e154) is scaled by its largest real or imaginary part first.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if abs(arr.strides[-1]) > abs(arr.strides[-2]):
        arr = arr.swapaxes(-1, -2)  # numpy's norm reads a matrix in memory order
    flat = arr.reshape(math.prod(arr.shape[:-2]), arr.shape[-2] * arr.shape[-1])
    norms = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    big = np.isinf(norms)
    if big.any():
        big &= np.isfinite(flat).all(axis=-1)
        scale = np.maximum(abs(flat.real[big]), abs(flat.imag[big])).max(axis=-1)
        flat = flat[big] / scale[:, None]
        norms[big] = scale * np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return float(norms[0]) if arr.ndim == 2 else norms.reshape(arr.shape[:-2])


def hermitian_tolerance(m) -> float:
    """Symmetry tolerance: 1e-12 * max(1, ||M||_F), scaled before the norm,
    so it is finite for every finite M."""
    return max(1e-12, frobenius_norm(1e-12 * np.asarray(m, dtype=np.complex128)))


def symmetrize(m) -> ComplexMatrix:
    """(M + M*) / 2, the Hermitian part of M (of each matrix of a stack).

    Halved before the sum, which gives the same bits (halving is exact)
    but cannot overflow on entries above half the largest float.
    """
    half = 0.5 * np.asarray(m, dtype=np.complex128)
    return half + half.conj().swapaxes(-1, -2)


def require_hermitian(m, name: str = "matrix", n: int | None = None) -> ComplexMatrix:
    """Validate one matrix from outside, ``as_square_matrix(m, name, n)``,
    and its Hermitian symmetry; return the coerced array.

    Raises ``NonHermitianInput`` when any entry differs from the conjugate
    of its mirror by more than the relative tolerance (this also covers
    imaginary parts on the diagonal).
    """
    arr = as_square_matrix(m, name, n)
    defect = float(np.abs(arr - arr.conj().T).max())
    tol = hermitian_tolerance(arr)
    if defect > tol:
        raise NonHermitianInput(f"{name} is not Hermitian: defect {defect:.3e} exceeds tolerance {tol:.3e}")
    return arr


def eig_hermitian(m, name: str = "matrix", *, vectors: bool = True) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack, by LAPACK ``eigh``; eigenvalues only, by ``eigvalsh``, when
    ``vectors`` is false.

    Every eigensolve in the package goes through this function; a stack
    is one call that decomposes every matrix in it.  It does not check
    symmetry, and LAPACK reads one triangle only, so the argument must be
    exactly Hermitian: ``pd_point`` symmetrizes a matrix it has validated,
    and the kernels symmetrize what they compute.  It does check that the
    entries are finite, because a right-hand side computed from valid
    input can overflow and LAPACK returns NaN eigenvalues for it without
    an error.  The eigenvalues of the two modes may differ in the last
    bits (LAPACK uses another algorithm without vectors), so a quantity is
    always computed in the same mode.

    Parameters
    ----------
    m : array_like
        Exactly Hermitian square matrix, or stack ``(..., n, n)``.
    name : str
        Labels the matrix in an error message.
    vectors : bool
        Whether to compute the eigenvectors; without them LAPACK takes
        about half the time, or less.

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending, eigenvectors as orthonormal columns (None
        without ``vectors``), with the leading axes of a stack.

    Raises
    ------
    DimensionMismatch
        If the matrix is not square.
    NonHermitianInput
        If an entry is not finite.
    ConvergenceFailure
        If LAPACK reports that the decomposition did not converge.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    _require_finite(arr, name)
    try:
        if vectors:
            return EigenDecomposition(*np.linalg.eigh(arr))
        return EigenDecomposition(np.linalg.eigvalsh(arr), None)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{'eigh' if vectors else 'eigvalsh'} did not converge: {exc}") from exc


def pd_floor(eigenvalues: NDArray[np.float64]):
    """Relative positive-definiteness floor n * eps * lambda_max of
    ascending eigenvalues, one per spectrum of a stack.

    lambda_max is not clamped at 0: a spectrum with no positive eigenvalue
    gets a floor of at most 0, which its smallest eigenvalue does not
    clear, just as it would not clear a floor of 0.
    """
    return eigenvalues.shape[-1] * _EPS * eigenvalues[..., -1]


def pd_point(m, name: str = "matrix", n: int | None = None) -> PDPoint:
    """The positive definite point of a Hermitian matrix: one eigensolve.

    This is where a matrix from outside is checked: ``require_hermitian``,
    then the relative floor (``NotPositiveDefinite``), each error naming it
    ``name``.  A ``PDPoint``, or a stack, passes unless its matrices are not
    n-by-n.  The point keeps M and the decomposition of (M + M*) / 2.
    """
    if isinstance(m, PDPoint) and (n is None or m.matrix.shape[-2:] == (n, n)):
        return m
    arr = require_hermitian(m, name, n)
    return PDPoint(arr, _pd_eig(symmetrize(arr), name))


def _pd_eig(arr: ComplexMatrix, name: str = "matrix", *, vectors: bool = True) -> EigenDecomposition:
    """``eig_hermitian`` of an exactly Hermitian array, or a stack, whose
    smallest eigenvalue must clear the relative floor; a point a kernel
    computed and symmetrized is ``PDPoint(arr, _pd_eig(arr, name))``.
    ``name`` labels the matrix in the non-finite and the floor errors; on
    a stack they report the first matrix that fails."""
    dec = eig_hermitian(arr, name, vectors=vectors)
    lam = dec.eigenvalues.reshape(-1, dec.eigenvalues.shape[-1])
    floor = lam.shape[1] * _EPS * lam[:, -1]  # pd_floor written out: no Python call per map step
    below = (lam[:, 0] <= floor).tolist()
    if True in below:
        i = below.index(True)  # the first in C order
        raise NotPositiveDefinite(
            f"{name} must be positive definite (min eigenvalue {lam[i, 0]:.3e}, floor {max(floor[i], 0.0):.3e})"
        )
    return dec


def matrix_from_literal(obj, name: str = "matrix") -> ComplexMatrix:
    """Parse the nested-array matrix literal shared with the problem files.

    Each entry is either a bare real number or an ``[re, im]`` pair of
    them, a number being an ``int`` or a ``float`` as ``json.loads``
    returns it (not a ``bool``); rows must be lists of equal length.  An
    integer beyond the float range is rejected, naming the entry.

    The literal is read array-at-a-time: the row lengths, the entries'
    types and the pairs' lengths are checked in C-level passes, and every
    number is converted by one ``np.array(..., float64)``, which rounds an
    int as ``float`` does.  A complex literal's matrix is a view of its
    ``[re, im]`` floats, a bare number among its pairs first paired with
    0.0; a real literal's imaginary parts are +0.0.  Only a literal that
    fails these checks is walked entry by entry, to name its first bad row
    or entry.
    """
    if not isinstance(obj, list) or not obj or not all(map(isinstance, obj, repeat(list))):
        raise DimensionMismatch(f"{name} must be a non-empty list of rows")
    shape = (len(obj), len(obj[0]))
    if set(map(len, obj)) != {shape[1]}:
        raise _literal_error(obj, name)
    entries = list(chain.from_iterable(obj))
    kinds = set(map(type, entries))
    lists = {kind for kind in kinds if issubclass(kind, list)}
    if not lists:  # a real literal
        bare, pairs = entries, []
    else:  # a complex literal, a bare number among its pairs paired with 0.0
        bare = []
        pairs = entries if lists == kinds else [e if isinstance(e, list) else [e, 0.0] for e in entries]
    parts = list(chain.from_iterable(pairs))
    if not kinds - lists <= _REAL or not set(map(len, pairs)) <= {2} or not set(map(type, parts)) <= _REAL:
        raise _literal_error(obj, name)
    try:
        numbers = np.array(bare + parts, dtype=np.float64)
    except OverflowError:
        raise _literal_error(obj, name) from None
    # a view of the [re, im] floats, or imaginary parts +0.0
    matrix = numbers.view(np.complex128) if pairs else numbers.astype(np.complex128)
    return matrix.reshape(shape)


def _literal_error(obj: list, name: str) -> DimensionMismatch:
    """The error naming the first bad row or entry of a list of rows, in
    reading order: a row of the wrong length, an entry that is not a number
    or an ``[re, im]`` pair, or an integer beyond the float range."""
    n_cols = len(obj[0])
    for i, row in enumerate(obj):
        if len(row) != n_cols:
            return DimensionMismatch(f"{name} row {i} has length {len(row)}, expected {n_cols}")
        for j, entry in enumerate(row):
            re, im = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0.0)
            if type(re) not in _REAL or type(im) not in _REAL:
                return DimensionMismatch(
                    f"{name} entry [{i}][{j}] must be a number or an [re, im] pair, got {entry!r}"
                )
            try:
                complex(re, im)
            except OverflowError:
                return DimensionMismatch(f"{name} entry [{i}][{j}] is an integer beyond the float range")


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

    With a ``shape``, the result is a stack of points of that shape, in C
    order, whose unitaries come from one stacked QR.  ``seed`` is an int, a
    generator, or a ``(spectra, gauss)`` tuple of two generators; one
    generator is both.  A stack costs two generator calls, whatever its
    size: ``spectra.random`` gives the n unit doubles u_i of each point,
    then ``gauss.standard_normal`` the real and the imaginary parts of each
    point's Gaussian matrix.  Each t_i is low + (high - low) * u_i with
    (low, high) = (-radius, radius), the arithmetic of
    ``Generator.uniform``.  Each stream is consumed in point order, so a
    stack drawn from a pair has the bits of its points drawn one at a time
    from it, and a single point drawn from one generator has the bits of
    one ``uniform`` and two ``standard_normal`` calls.

    A NaN or negative radius is a ``ValueError``.  A radius whose exp
    overflows, infinity included, is a ``NonHermitianInput``, raised
    before drawing: the points would have infinite eigenvalues.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be positive, got {n}")
    radius = float(radius)
    if not radius >= 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    try:
        wide = math.exp(radius) == math.inf
    except OverflowError:
        wide = True
    if wide:
        message = f"ball of radius {radius:g} is too wide to sample: exp({radius:g}) overflows"
        raise NonHermitianInput(message)
    spectra, gauss = seed if isinstance(seed, tuple) else (np.random.default_rng(seed),) * 2
    count = math.prod(shape)
    unit = spectra.random((count, n))
    z = gauss.standard_normal((count, 2, n, n))
    low, high = -radius, radius
    t = low + (high - low) * unit
    u = _haar_unitaries((z[:, 0] + 1j * z[:, 1]) / math.sqrt(2))
    lam = np.exp(t)
    order = np.argsort(t, axis=-1)
    matrix = symmetrize((u * lam[:, None, :]) @ u.conj().swapaxes(-1, -2))
    points = np.arange(count)[:, None]
    lam, u = lam[points, order], u[points[:, None], np.arange(n)[:, None], order[:, None, :]]
    shape = tuple(shape)
    return PDPoint(
        matrix.reshape(shape + (n, n)),
        EigenDecomposition(lam.reshape(shape + (n,)), u.reshape(shape + (n, n))),
    )

"""Dense complex Hermitian / positive definite matrix algebra.

Matrices are plain ``numpy`` arrays of ``complex128``.  The kernels
(``symmetrize``, ``eig_hermitian``, ``PDPoint.powered``, ``frobenius_norm``,
the floor check of ``_pd_eig``) also take stacks of shape ``(..., n, n)``
and work matrix by matrix: a single matrix is the same code with no
leading axis, and a matrix of a stack comes out with the bits it would
have on its own.
Input is validated once, where it comes in: ``pd_point`` checks a matrix's
shape, then the Hermitian tolerance and the positive-definiteness floor,
and what it returns, a ``PDPoint``, is trusted from then on.  A scalar is
read by a field rule (``as_finite``, ``as_tolerance``, ``as_count``,
``as_seed``, ``as_bool``), which names the field ``what`` in its
ValueError and returns the value as stored; the solver, the CLI, the
engine and the sampler share them.  The kernels that work on validated
or computed operands (``eig_hermitian`` and ``PDPoint.powered``) do not
check symmetry again.  Outputs are re-symmetrized with ``(M + M*) / 2``
so that round-off never accumulates into a symmetry defect across long
iteration runs; the result is exactly Hermitian, so ``eig_hermitian``
decomposes it as it is.

A ``PDPoint`` is a positive definite matrix carried with its
eigendecomposition.  ``pd_point`` decomposes a matrix once; powers,
right-hand sides, ratio pencils and distances then read the known
eigenvalues and eigenvectors.  X**p is the point
``pd_point(x).powered(p)``, with X's eigenvectors and eigenvalues
lambda_i**p; a decomposition's ``powered`` gives the same point with no
point for X.  A point built from a decomposition alone, as a power or an
iteration map's root is, forms its matrix V diag(lambda) V*
(``_spectral_matrix``) only when something reads it, and a point
converts to its matrix wherever numpy expects an array.  A stack of
points is one ``PDPoint`` whose fields carry the leading axes; indexing
it selects points.

Every eigensolve is a call to ``eig_hermitian``, a thin wrapper over
LAPACK ``eigh`` (``numpy.linalg.eigh``), or over ``eigvalsh`` when the
caller reads no eigenvector.  Only the points need vectors: ``pd_point``,
the iteration maps' roots and the certificate of a solution compute them,
through ``_pd_eig``, which adds the positive-definiteness check of a
point; the Thompson pencils, the Gram check of a type1 coefficient and
condition (C) read eigenvalues only (condition (C) through
``_pd_eig(..., vectors=False)``).  The tests cross-check the solver
against an independent cyclic Jacobi solver kept in ``tests/jacobi.py``.

The condition check's samples come from ``sample_ball_pairs``: a block
of pairs (X, Y) of a Thompson ball, as a ``BallPairs`` that keeps each
pair in X's eigenbasis (two spectra and the unitary W between the
eigenbases) and draws X's eigenvectors, or forms X and Y, only where
they are read.
"""

from __future__ import annotations

import math
import numbers
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
        """M**p as a point with eigenvalues lambda_i ** p, its matrix formed
        when it is first read; for a negative p the decomposition is
        reversed back to ascending order.

        The reversed eigenvalues and eigenvectors are copied contiguous:
        numpy's ``pow`` and ``log`` take another loop on a reversed view,
        which can round differently, and ``matmul`` another kernel."""
        lam, vectors = self
        mu = lam**p
        if p < 0.0:
            mu, vectors = np.ascontiguousarray(mu[..., ::-1]), np.ascontiguousarray(vectors[..., ::-1])
        return PDPoint(None, EigenDecomposition(mu, vectors))


def _spectral_matrix(lam, vectors) -> ComplexMatrix:
    """V diag(lam) V*, re-symmetrized, of each decomposition of a stack: a
    point's matrix formed from its decomposition."""
    return symmetrize((vectors * lam[..., None, :]) @ vectors.conj().swapaxes(-1, -2))


class PDPoint:
    """A positive definite matrix carried with its eigendecomposition.

    ``matrix`` is the Hermitian array and ``dec`` its spectral
    factorization, eigenvalues ascending and above the relative floor.
    Build one with ``pd_point`` (one eigensolve) or as a power of another
    point (none).  A point built without its matrix (``None``) forms it
    from ``dec`` by ``_spectral_matrix`` when it is first read; a stack
    from ``stacked`` forms it then from its points' matrices, and a point
    of such a stack from the stack's.  The distances, the maps and the
    residuals read the decomposition alone.  Treat both fields as
    read-only: the decomposition describes the matrix only while neither
    changes.  A stack of points has leading axes on every field, and
    ``point[index]`` selects along them.
    """

    __slots__ = ("_matrix", "dec")

    def __init__(self, matrix, dec: EigenDecomposition) -> None:
        self._matrix = matrix  # an array, None or a function that forms it
        self.dec = dec

    @property
    def matrix(self) -> ComplexMatrix:
        if not isinstance(self._matrix, np.ndarray):
            self._matrix = _spectral_matrix(*self.dec) if self._matrix is None else self._matrix()
        return self._matrix

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype) if copy else np.asarray(self.matrix, dtype=dtype)

    def __getitem__(self, index) -> "PDPoint":
        lam, vectors = self.dec
        matrix = self._matrix
        if matrix is not None:
            matrix = matrix[index] if isinstance(matrix, np.ndarray) else lambda: self.matrix[index]
        return PDPoint(matrix, EigenDecomposition(lam[index], vectors[index]))

    @staticmethod
    def stacked(points) -> "PDPoint":
        """One stack of a sequence of points of one shape, in order; its
        matrix, the points' matrices, is formed when it is first read."""
        lam = np.array([p.dec.eigenvalues for p in points])
        vectors = np.array([p.dec.vectors for p in points])
        return PDPoint(lambda: np.array([p.matrix for p in points]), EigenDecomposition(lam, vectors))

    def powered(self, p: float) -> "PDPoint":
        """X**p as a point, from X's decomposition alone."""
        return self.dec.powered(p)


def identity(n: int) -> ComplexMatrix:
    """The n-by-n identity as a complex matrix."""
    return np.eye(n, dtype=np.complex128)


def as_finite(value, what: str) -> float:
    """A real number, not a bool, finite as a float."""
    got = None
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            got = "an integer beyond the float range"
        else:
            if math.isfinite(number):
                return number
    raise ValueError(f"{what} must be a finite number, got {got or repr(value)}")


def _at_least(value, minimum: int, what: str):
    if value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    return value


def as_tolerance(value, what: str) -> float:
    return _at_least(as_finite(value, what), 0, what)


def as_count(value, what: str, minimum: int = 1) -> int:
    """An integer: an integral float reads as its int, a numpy integer is kept."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return _at_least(value, minimum, what)


def as_seed(value, what: str) -> int:
    return as_count(value, what, minimum=0)


def as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


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
    if isinstance(m, PDPoint) and (n is None or m.dec.vectors.shape[-2:] == (n, n)):
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


def _haar_unitaries(z) -> ComplexMatrix:
    """Haar-distributed unitaries from a stack ``(..., 2, n, n)`` of real
    Gaussian draws, the real and the imaginary parts of each complex
    Gaussian matrix: one stacked QR, with the diagonal phases of each R
    fixed to one."""
    q, r = np.linalg.qr((z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return np.ascontiguousarray(q * (d / np.abs(d))[..., None, :])


def _sampling_radius(radius) -> float:
    """A ball's radius as a float: a real number, not a bool, at least 0,
    whose exp is finite.  A str or a bool, NaN or a negative radius is a
    ``ValueError``; a radius whose exp overflows, infinity included (and
    an integer beyond the float range, read as infinity), is a
    ``NonHermitianInput``: the points would have infinite eigenvalues."""
    if isinstance(radius, bool) or not isinstance(radius, numbers.Real):
        raise ValueError(f"radius must be a real number, got {radius!r}")
    try:
        radius = float(radius)
    except OverflowError:
        radius = math.inf if radius > 0 else -math.inf
    if not radius >= 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    try:
        wide = math.exp(radius) == math.inf
    except OverflowError:
        wide = True
    if wide:
        raise NonHermitianInput(f"ball of radius {radius:g} is too wide to sample: exp({radius:g}) overflows")
    return radius


class BallPairs:
    """A block of pairs (X, Y) drawn from a Thompson ball about I, kept in
    X's eigenbasis: X = U diag(lam_x) U* and Y = V diag(lam_y) V* with
    V = U W.

    ``lam_x`` and ``lam_y`` are the ascending spectra, ``(S, n)`` each, and
    ``w`` the Haar unitaries W = U* V, ``(S, n, n)``.  The Thompson metric
    is unitarily invariant, so d(X, Y), and d(F(X), G(Y)) for powers F
    and G, read ``lam_x``, ``lam_y`` and ``w`` alone
    (``thompson._frame_ratios``).  U is drawn only where it is read:
    ``x_dec`` and ``y_dec`` draw it for every pair of the block, from the
    stream ``gauss``, and build it with W in one stacked QR.  A block
    whose U is never read is a block of pairs known up to one unitary
    change of basis, and ``matrices`` gives its pairs in X's eigenbasis,
    U = I.
    """

    __slots__ = ("lam_x", "lam_y", "_draws", "_gauss", "_w", "_u", "_formed")

    def __init__(self, lam_x, lam_y, draws, gauss) -> None:
        self.lam_x, self.lam_y = lam_x, lam_y
        self._draws, self._gauss = draws, gauss  # draws: W's, then room for U's
        self._w, self._u, self._formed = None, None, {}

    def __len__(self) -> int:
        return len(self.lam_x)

    @property
    def w(self) -> ComplexMatrix:
        if self._w is None:
            self._w = _haar_unitaries(self._draws[0])
        return self._w

    def _unitaries(self) -> ComplexMatrix:
        if self._u is None:
            self._gauss.standard_normal(out=self._draws[1])
            if self._w is None:
                self._w, self._u = _haar_unitaries(self._draws)
            else:
                self._u = _haar_unitaries(self._draws[1])
        return self._u

    def x_dec(self) -> EigenDecomposition:
        """X = U diag(lam_x) U* of every pair."""
        return EigenDecomposition(self.lam_x, self._unitaries())

    def y_dec(self) -> EigenDecomposition:
        """Y = V diag(lam_y) V* of every pair, V = U W."""
        return EigenDecomposition(self.lam_y, self._unitaries() @ self.w)

    def matrices(self, i: int) -> tuple[ComplexMatrix, ComplexMatrix]:
        """The matrices X and Y of pair ``i``, re-symmetrized, formed once
        (two conditions' witnesses may share a pair); with U = I unless
        the block's U was read."""
        if i not in self._formed:
            u = self._u[i] if self._u is not None else identity(self.lam_x.shape[-1])
            vectors, lam = np.stack((u, u @ self.w[i])), np.stack((self.lam_x[i], self.lam_y[i]))
            self._formed[i] = tuple(_spectral_matrix(lam, vectors))
        return self._formed[i]


def sample_ball_pairs(n: int, radius: float, streams, count: int) -> BallPairs:
    """``count`` seeded pairs (X, Y) from the Thompson ball of ``radius``
    about I: X's and Y's spectra, then W, in two generator calls, and U's
    Gaussian draws in a third where U is read.

    ``streams`` is a ``(spectra, gauss, frame)`` triple of generators.
    ``spectra.random`` gives each pair's 2n unit doubles u_i, X's n then
    Y's, and each log-eigenvalue is t_i = low + (high - low) * u_i with
    (low, high) = (-radius, radius), the arithmetic of
    ``Generator.uniform``; each point's spectrum is exp of its sorted t_i,
    so it lies in [exp(-radius), exp(radius)].  ``frame.standard_normal``
    then gives the real and the imaginary parts of each pair's complex
    Gaussian matrix for W, and ``gauss.standard_normal``, when the block's
    U is first read, those for U.  W and U are Haar and independent, so X
    and Y are independent, each U diag(exp(t)) U* with U Haar.  Each
    stream is consumed in pair order, so for a caller that reads U in
    every block or in none, the pairs of consecutive blocks are those of
    one block with their counts summed.

    ``n`` and ``count`` are counts (``as_count``) and ``radius`` is read by
    ``_sampling_radius``, before drawing.
    """
    n, count = as_count(n, "n"), as_count(count, "count")
    radius = _sampling_radius(radius)
    spectra, gauss, frame = streams
    low, high = -radius, radius
    t = low + (high - low) * spectra.random((count, 2, n))
    draws = np.empty((2, count, 2, n, n))
    frame.standard_normal(out=draws[0])
    lam = np.exp(np.sort(t, axis=-1))
    return BallPairs(np.ascontiguousarray(lam[:, 0]), np.ascontiguousarray(lam[:, 1]), draws, gauss)

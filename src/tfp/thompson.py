"""Thompson metric on the positive definite cone.

d(A, B) = max(log W(A/B), log W(B/A)), where the order-ratio functional
W(B/A) is the largest eigenvalue mu_max of A^{-1/2} B A^{-1/2}, and
W(A/B) = 1/mu_min of the same pencil.  A^{-1/2} comes from A's known
spectrum, so a distance between two points costs one eigensolve.  As
mu_min carries an absolute error of about n * eps * mu_max, a pencil too
wide for 1/mu_min to hold ``_ONE_SOLVE_REL_TOL`` (far-apart points, as on
a wide sampling ball) takes W(A/B) from a second eigensolve, the top of
B^{-1/2} A B^{-1/2}.  The pencil is taken relative to the
better-conditioned point, so swapped arguments take the same path unless
the condition numbers tie.

The pencils are decomposed without eigenvectors: only their extreme
eigenvalues are read.

``gaps``, ``distance`` (its two-point case) and ``distance_to_identity``
take matrices or points: a matrix is validated by ``pd_point`` and a
point passes through, so the iteration's points go to ``gaps`` directly.
``gaps`` gives the distances of a sequence's consecutive pairs from one
stacked call, one eigensolve call for all its pencils (and one for the
wide ones): the iteration's gaps, up to a step ``spectral_distance``
(a lower bound read off two spectra) cannot rule out as the stop.
``_ratios`` and ``distance_to_identity`` also take stacks of points and
decide every choice above sample by sample.  Each quantity has one rule,
for a pair and a stack alike: ``_ratio_distances`` and ``_ratio_powers``
(inf for a power that overflows) take the C math library's ``log`` and
``pow``, as ``math.log`` and ``math.pow`` compute them, element by element
through numpy object ufuncs.  numpy's own vectorized log and pow can round
differently in the last place, and a sample of a stack must get the bits
it gets on its own; the scalar distance rule lives on as the tests' oracle.
"""

from __future__ import annotations

import math

import numpy as np

from . import hpd_core
from .errors import DimensionMismatch
from .hpd_core import PDPoint

# Largest relative error accepted in 1/mu_min before W(A/B) is recomputed.
_ONE_SOLVE_REL_TOL = 1e-12


def _pow(w: float, exponent: float) -> float:
    """w ** exponent, inf where it overflows."""
    try:
        return w**exponent
    except OverflowError:
        return math.inf


_LOG = np.frompyfunc(math.log, 1, 1)
_POWERS = np.frompyfunc(_pow, 2, 1)


def _ratio_distances(w_ab, w_ba) -> np.ndarray:
    """d(A, B) = max(log W(A/B), log W(B/A), 0) of each pair of ratios of
    two arrays.

    The logs of positive ratios are never NaN or -0.0, so ``np.maximum``
    picks what ``max`` picks."""
    log_ab = np.asarray(_LOG(w_ab), dtype=np.float64)
    log_ba = np.asarray(_LOG(w_ba), dtype=np.float64)
    return np.maximum(np.maximum(log_ab, log_ba), 0.0)


def _ratio_powers(w, exponent: float) -> np.ndarray:
    """``_pow`` of each ratio of an array: what ``**`` computes on floats,
    unless a power overflows."""
    # the overflow to inf is the intended value, not a warning
    with np.errstate(over="ignore"):
        return np.asarray(_POWERS(w, exponent), dtype=np.float64)


def _ratio_spectrum(lam, vectors, m) -> np.ndarray:
    """Eigenvalues, ascending, of base^{-1/2} M base^{-1/2} for a base with
    spectrum ``lam`` and eigenvectors ``vectors``: one eigensolve without
    eigenvectors (of the congruence in base's eigenbasis, which has the
    same spectrum).  A pencil whose entries overflow, as between points far
    apart on a wide ball, is a ``NonHermitianInput`` naming it."""
    factor = vectors * (lam**-0.5)[..., None, :]
    pencil = hpd_core.symmetrize(factor.conj().swapaxes(-1, -2) @ m @ factor)
    return hpd_core.eig_hermitian(pencil, "Thompson ratio pencil", vectors=False).eigenvalues


def _ratios(a: PDPoint, b: PDPoint) -> tuple:
    """(W(A/B), W(B/A)) from one eigensolve, or two on a very wide pencil.

    Two points give two numpy floats (0-d arrays if equal), two stacks of
    points two arrays of their leading shape, sample by sample.  Equal
    matrices have both ratios exactly 1; a pair whose samples are all equal
    costs no eigensolve, and only the wide pencils take the second.
    """
    equal = np.logical_and.reduce(a.matrix == b.matrix, axis=(-2, -1))
    if equal.all():
        return np.ones(equal.shape), np.ones(equal.shape)
    (lam_a, vec_a), (lam_b, vec_b) = a.dec, b.dec
    swap = lam_b[..., -1] / lam_b[..., 0] < lam_a[..., -1] / lam_a[..., 0]
    on_lam, on_vec = swap[..., None], swap[..., None, None]
    mu = _ratio_spectrum(
        np.where(on_lam, lam_b, lam_a), np.where(on_vec, vec_b, vec_a), np.where(on_vec, a.matrix, b.matrix)
    )
    w_other, w_base = mu[..., -1], 1.0 / mu[..., 0]
    wide = hpd_core.pd_floor(mu) > _ONE_SOLVE_REL_TOL * mu[..., 0]
    if wide.any():
        w_base = np.array(w_base)
        w_base[wide] = _ratio_spectrum(
            np.where(on_lam[wide], lam_a[wide], lam_b[wide]),
            np.where(on_vec[wide], vec_a[wide], vec_b[wide]),
            np.where(on_vec[wide], b.matrix[wide], a.matrix[wide]),
        )[..., -1]
    return tuple(np.where(equal, 1.0, np.where(swap, (w_other, w_base), (w_base, w_other))))


def distance(a, b) -> float:
    """Thompson distance of two positive definite matrices or points: ``gaps([a, b])[0]``."""
    return gaps([a, b])[0]


def gaps(points) -> list[float]:
    """d(points[i], points[i+1]) of each two consecutive points of a
    sequence of matrices or points of one shape, in order: one ``_ratios``
    call on the stacked pairs, so each gap has the bits its pair gets
    alone.  Fewer than two points have no gap."""
    points = [p if isinstance(p, PDPoint) else hpd_core.pd_point(p, f"point {i}") for i, p in enumerate(points)]
    for a, b in zip(points, points[1:]):
        if a.matrix.shape != b.matrix.shape:
            raise DimensionMismatch(f"distance shapes differ: {a.matrix.shape} vs {b.matrix.shape}")
    if len(points) < 2:
        return []
    stack = PDPoint.stacked(points)
    return _ratio_distances(*_ratios(stack[:-1], stack[1:])).tolist()


def distance_to_identity(a):
    """d(A, I) = max(|log lambda_i(A)|): no eigensolve on a point, one on a
    matrix; one distance per point of a stack."""
    return _identity_distance(hpd_core.pd_point(a, "distance_to_identity argument").dec.eigenvalues)


def spectral_distance(a: PDPoint, b: PDPoint) -> float:
    """max_i |log lambda_i(A) - log lambda_i(B)|, a lower bound on d(A, B)
    from the points' ascending spectra, with no eigensolve: by Weyl's
    inequality, A <= mu B gives lambda_i(A) <= mu lambda_i(B) for every i.
    Equality holds for commuting points with eigenvalues ordered alike."""
    return float(np.abs(np.log(a.dec.eigenvalues / b.dec.eigenvalues)).max())


def _identity_distance(lam):
    """d(A, I) from A's eigenvalues, one distance per spectrum of a stack."""
    return np.abs(np.log(lam)).max(axis=-1)

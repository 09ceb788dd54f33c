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

``distance`` and ``distance_to_identity`` take matrices or points: a
matrix is validated by ``pd_point`` and a point passes through
unchecked, so the iteration calls ``distance`` on its points directly.
``_ratios`` and ``distance_to_identity`` also take stacks of points and
decide every choice above sample by sample.  The logs and powers of
ratios are taken on Python floats, by ``_ratio_distance`` and ``_pow``,
and applied element by element to stacks (``_ratio_distances``,
``_ratio_powers``): numpy's vectorized log and pow can round differently
in the last place, and a sample of a stack must get the bits it gets on
its own.
"""

from __future__ import annotations

import math

import numpy as np

from . import hpd_core
from .errors import DimensionMismatch
from .hpd_core import PDPoint

# Largest relative error accepted in 1/mu_min before W(A/B) is recomputed.
_ONE_SOLVE_REL_TOL = 1e-12


def _ratio_distance(w_ab: float, w_ba: float) -> float:
    """d(A, B) = max(log W(A/B), log W(B/A), 0) from the ratio pair."""
    return max(math.log(w_ab), math.log(w_ba), 0.0)


def _pow(w: float, exponent: float) -> float:
    """w ** exponent, inf where it overflows."""
    try:
        return w**exponent
    except OverflowError:
        return math.inf


_DISTANCES = np.frompyfunc(_ratio_distance, 2, 1)
_POWERS = np.frompyfunc(_pow, 2, 1)


def _ratio_distances(w_ab, w_ba) -> np.ndarray:
    """``_ratio_distance`` of each pair of ratios of two arrays."""
    return np.asarray(_DISTANCES(w_ab, w_ba), dtype=np.float64)


def _ratio_powers(w, exponent: float) -> np.ndarray:
    """``_pow`` of each ratio of an array."""
    return np.asarray(_POWERS(w, exponent), dtype=np.float64)


def _ratio_spectrum(lam, vectors, m) -> np.ndarray:
    """Eigenvalues, ascending, of base^{-1/2} M base^{-1/2} for a base with
    spectrum ``lam`` and eigenvectors ``vectors``: one eigensolve (of the
    congruence in base's eigenbasis, which has the same spectrum).  A
    pencil whose entries overflow, as between points far apart on a wide
    ball, is a ``NonHermitianInput`` naming it."""
    factor = vectors * (lam**-0.5)[..., None, :]
    return hpd_core.eig_hermitian(hpd_core._congruence(factor, m), "Thompson ratio pencil").eigenvalues


def _choose(mask, count: int, x: tuple, y: tuple) -> tuple:
    """Per sample, the arrays of ``x`` where ``mask`` holds and those of
    ``y`` elsewhere, given the ``count`` of samples where it holds; no copy
    when all samples choose the same side."""
    if count == 0:
        return y
    if count == mask.size:
        return x
    return tuple(
        np.where(mask.reshape(mask.shape + (1,) * (np.ndim(u) - mask.ndim)), u, v) for u, v in zip(x, y)
    )


def _ratios(a: PDPoint, b: PDPoint) -> tuple:
    """(W(A/B), W(B/A)) from one eigensolve, or two on a very wide pencil.

    Two points, or two stacks of points of one shape, sample by sample;
    the ratios have the stacks' leading shape (numpy scalars for two
    points).  Equal matrices have both ratios exactly 1, and a pair whose
    samples are all equal costs no eigensolve.  The second eigensolve runs
    on the wide pencils only.
    """
    equal = np.logical_and.reduce(a.matrix == b.matrix, axis=(-2, -1))
    n_equal = hpd_core._count(equal)
    if n_equal == equal.size:
        return np.ones(equal.shape), np.ones(equal.shape)
    (lam_a, vec_a), (lam_b, vec_b) = a.dec, b.dec
    swap = lam_b[..., -1] / lam_b[..., 0] < lam_a[..., -1] / lam_a[..., 0]
    n_swap = hpd_core._count(swap)
    base_lam, base_vec, other = _choose(swap, n_swap, (lam_b, vec_b, a.matrix), (lam_a, vec_a, b.matrix))
    mu = _ratio_spectrum(base_lam, base_vec, other)
    w_other, w_base = mu[..., -1], 1.0 / mu[..., 0]
    wide = hpd_core.pd_floor(mu) > _ONE_SOLVE_REL_TOL * mu[..., 0]
    if hpd_core._count(wide):
        other_lam, other_vec, base = _choose(swap, n_swap, (lam_a, vec_a, b.matrix), (lam_b, vec_b, a.matrix))
        w_base = np.array(w_base)
        w_base[wide] = _ratio_spectrum(other_lam[wide], other_vec[wide], base[wide])[..., -1]
    w_ab, w_ba = _choose(swap, n_swap, (w_other, w_base), (w_base, w_other))
    if n_equal:
        w_ab, w_ba = np.where(equal, 1.0, w_ab), np.where(equal, 1.0, w_ba)
    return w_ab, w_ba


def distance(a, b) -> float:
    """Thompson distance between two positive definite matrices or points."""
    a = hpd_core.pd_point(a, "distance first argument")
    b = hpd_core.pd_point(b, "distance second argument")
    if a.matrix.shape != b.matrix.shape:
        raise DimensionMismatch(f"distance shapes differ: {a.matrix.shape} vs {b.matrix.shape}")
    return _ratio_distance(*_ratios(a, b))


def distance_to_identity(a):
    """d(A, I) = max(|log lambda_i(A)|): no eigensolve on a point, one on a
    matrix; one distance per point of a stack."""
    lam = hpd_core.pd_point(a, "distance_to_identity argument").dec.eigenvalues
    return np.abs(np.log(lam)).max(axis=-1)

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
``_ratios`` takes points only.
"""

from __future__ import annotations

import math

import numpy as np

from . import hpd_core
from .errors import DimensionMismatch
from .hpd_core import PDPoint

# Largest relative error accepted in 1/mu_min before W(A/B) is recomputed.
_ONE_SOLVE_REL_TOL = 1e-12


def _ratio_spectrum(base: PDPoint, m) -> np.ndarray:
    """Eigenvalues, ascending, of base^{-1/2} M base^{-1/2}: one eigensolve
    (of the congruence in base's eigenbasis, which has the same spectrum)."""
    lam, vectors = base.dec
    return hpd_core.eig_hermitian(hpd_core._congruence(vectors * lam**-0.5, m)).eigenvalues


def _ratios(a: PDPoint, b: PDPoint) -> tuple[float, float]:
    """(W(A/B), W(B/A)) from one eigensolve, or two on a very wide pencil.

    Equal matrices have both ratios exactly 1, with no eigensolve.
    """
    if a is b or np.array_equal(a.matrix, b.matrix):
        return 1.0, 1.0
    lam_a, lam_b = a.dec.eigenvalues, b.dec.eigenvalues
    swap = lam_b[-1] / lam_b[0] < lam_a[-1] / lam_a[0]
    base, other = (b, a) if swap else (a, b)
    mu = _ratio_spectrum(base, other.matrix)
    w_other = float(mu[-1])
    if hpd_core.pd_floor(mu) <= _ONE_SOLVE_REL_TOL * mu[0]:
        w_base = float(1.0 / mu[0])
    else:
        w_base = float(_ratio_spectrum(other, base.matrix)[-1])
    return (w_other, w_base) if swap else (w_base, w_other)


def _ratio_distance(w_ab: float, w_ba: float) -> float:
    """d(A, B) = max(log W(A/B), log W(B/A), 0) from the ratio pair."""
    return max(math.log(w_ab), math.log(w_ba), 0.0)


def distance(a, b) -> float:
    """Thompson distance between two positive definite matrices or points."""
    a = hpd_core.pd_point(a, "distance first argument")
    b = hpd_core.pd_point(b, "distance second argument")
    if a.matrix.shape != b.matrix.shape:
        raise DimensionMismatch(f"distance shapes differ: {a.matrix.shape} vs {b.matrix.shape}")
    return _ratio_distance(*_ratios(a, b))


def distance_to_identity(a) -> float:
    """d(A, I) = max(|log lambda_i(A)|): no eigensolve on a point, one on a matrix."""
    lam = hpd_core.pd_point(a, "distance_to_identity argument").dec.eigenvalues
    return float(np.abs(np.log(lam)).max())

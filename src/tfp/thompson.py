"""Thompson metric on the positive definite cone.

The metric is d(A, B) = max(log W(A/B), log W(B/A)) where the order-ratio
functional W(A/B) is the largest eigenvalue of B^{-1/2} A B^{-1/2}.  Both
ratios are computed independently through one code path; at the dimensions
this package targets the extra eigensolve is irrelevant next to clarity.

``w_ratio`` and ``distance`` validate their operands; ``_w_ratio`` and
``_distance`` skip that for callers whose operands are already validated
Hermitian arrays of one size.
"""

from __future__ import annotations

import math

import numpy as np

from . import hpd_core
from .errors import DimensionMismatch, NotPositiveDefinite

# Distances below this are reported as exact equality by the test oracles.
ZERO_TOL = 1e-10


def w_ratio(a, b) -> float:
    """The ratio functional W(A/B) = lambda_max(B^{-1/2} A B^{-1/2}).

    Equals inf{delta > 0 : A <= delta * B} for positive definite A and B.
    Only B must be positive definite: W reads just the top eigenvalue, so
    a numerator whose smallest eigenvalue underflows the relative floor
    still has a well-defined ratio.
    """
    return _w_ratio(*_validated_pair(a, b, "w_ratio"))


def _w_ratio(a, b) -> float:
    b_inv_half = hpd_core._power(b, -0.5)
    return float(hpd_core.eig_hermitian(hpd_core._congruence(b_inv_half, a)).eigenvalues[-1])


def distance(a, b) -> float:
    """Thompson distance between two positive definite matrices."""
    return _distance(*_validated_pair(a, b, "distance"))


def _distance(a, b) -> float:
    # Both ratios come first: each one's power rejects a non-PD denominator
    # before a log of a non-positive numerator ratio can fail.
    w_ab = _w_ratio(a, b)
    w_ba = _w_ratio(b, a)
    return max(math.log(w_ab), math.log(w_ba), 0.0)


def _validated_pair(a, b, name: str):
    a_arr = hpd_core.require_hermitian(a, f"{name} first argument")
    b_arr = hpd_core.require_hermitian(b, f"{name} second argument")
    if a_arr.shape != b_arr.shape:
        raise DimensionMismatch(f"{name} shapes differ: {a_arr.shape} vs {b_arr.shape}")
    return a_arr, b_arr


def distance_to_identity(a) -> float:
    """d(A, I), computed directly as max(|log lambda_i(A)|).

    One eigendecomposition instead of the four the generic path needs;
    the ball-membership checks lean on this heavily.
    """
    dec = hpd_core.eig_hermitian(a)
    lam = dec.eigenvalues
    if lam[0] <= hpd_core.pd_floor(lam):
        raise NotPositiveDefinite("distance_to_identity requires a positive definite input")
    return float(np.abs(np.log(lam)).max())

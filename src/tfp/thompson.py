"""Thompson metric on the positive definite cone.

d(A, B) = max(log W(A/B), log W(B/A)), where the order-ratio functional
W(B/A) is the largest eigenvalue mu_max of A^{-1/2} B A^{-1/2}, and
W(A/B) = 1/mu_min of the same pencil.  The metric is invariant under
unitary congruence, so the pencil is taken in A's eigenbasis: for
A = U diag(lam_a) U* and B = V diag(lam_b) V* it is K K* with
K = diag(lam_a)^-1/2 W diag(lam_b)^1/2 and W = U* V, and a distance
costs one eigensolve, read off the two decompositions with no matrix A
or B.  As mu_min carries an absolute error of about n * eps * mu_max, a
pencil too wide for 1/mu_min to hold ``_ONE_SOLVE_REL_TOL`` (far-apart
points, as on a wide sampling ball) takes W(A/B) from a second
eigensolve, the top of the pencil on B's base.  The pencil is taken
relative to the better-conditioned point, so swapped arguments take the
same path unless the condition numbers tie.

The pencil has one rule, ``_frame_ratios``, which takes pairs known by
their spectra and the unitary W between their eigenbases (the condition
check's samples) and decomposes the pencils without eigenvectors: only
their extreme eigenvalues are read.  ``_ratios`` takes pairs of points,
or of stacks of points, there: it chooses each pair's base, once, forms
W = V_base* V_other and hands the rule its choice.  A single point,
such as a constant F beside the samples' G(Y), broadcasts against a
stack.

``gaps``, ``distance`` (its two-point case) and ``distance_to_identity``
take matrices or points: a matrix is validated by ``pd_point`` and a
point passes through, so the iteration's points go to ``gaps`` directly.
``gaps`` gives the distances of a sequence's consecutive pairs from one
stacked call, one eigensolve call for all its pencils (and one for the
wide ones): the iteration's gaps, up to a step ``spectral_distance``
(a lower bound read off two spectra) cannot rule out as the stop.
``_ratios`` and ``distance_to_identity`` also take stacks of points and
decide every choice above sample by sample.  Each quantity has one rule,
for a pair and a stack alike: ``_ratio_distances`` takes logs with
``_logs``, and the condition checks take powers with ``_raised_to``:
numpy's ``log`` and ``power`` on a C-ordered array, since numpy picks its
loop by strides and a reversed view can take the C library's scalar
loop, which rounds another way.  So each element of a 0-d, contiguous,
strided or reversed array gets the bits it gets alone, as
``TestNumpyRatioMath`` in ``tests/test_thompson.py`` pins.
"""

from __future__ import annotations

import numpy as np

from . import hpd_core
from .errors import DimensionMismatch, NotPositiveDefinite
from .hpd_core import PDPoint

# Largest relative error accepted in 1/mu_min before W(A/B) is recomputed.
_ONE_SOLVE_REL_TOL = 1e-12


def _logs(w) -> np.ndarray:
    """np.log of a ratio, or of each ratio of an array, on a C-ordered array."""
    return np.log(np.asarray(w, order="C"))


def _raised_to(w, exponent: float) -> np.ndarray:
    """np.power of a ratio, or of each ratio of an array, on a C-ordered array."""
    return np.power(np.asarray(w, order="C"), exponent)


def _ratio_distances(w_ab, w_ba) -> np.ndarray:
    """d(A, B) = max(log W(A/B), log W(B/A), 0) of each pair of ratios of
    two arrays.

    A ratio that is not a positive number, such as one that underflowed to
    0 between points farther apart than the float range, raises
    ``NotPositiveDefinite``, as does a NaN.
    The logs of positive ratios are never NaN or -0.0, so ``np.maximum``
    picks what ``max`` picks."""
    if not np.minimum(w_ab, w_ba).min() > 0.0:
        raise NotPositiveDefinite("Thompson ratio is not a positive number: the distance is beyond the float range")
    return np.maximum(np.maximum(_logs(w_ab), _logs(w_ba)), 0.0)


def _condition(lam):
    """lambda_max / lambda_min of an ascending or a descending spectrum, one
    per spectrum of a stack: the larger ratio of its ends."""
    return np.maximum(lam[..., -1] / lam[..., 0], lam[..., 0] / lam[..., -1])


def _ratios(a: PDPoint, b: PDPoint) -> tuple:
    """(W(A/B), W(B/A)) of two points, or of each pair of two stacks of
    points, from their decompositions alone.

    Each pair's base, the better-conditioned point (B where it is strictly
    better), is chosen here, before W = V_base* V_other is formed, and the
    pair goes to ``_frame_ratios`` base first, in the base's eigenbasis,
    with that choice: swapped arguments take the same arrays, so they get
    the same bits swapped unless the condition numbers tie.  Two points
    give two numpy floats (0-d arrays if equal), two stacks of points, or
    a point and a stack, which broadcast, two arrays of their leading
    shape, sample by sample.  Points of one decomposition have both ratios
    exactly 1; a pair whose samples all are costs no eigensolve.
    """
    (lam_a, vec_a), (lam_b, vec_b) = a.dec, b.dec
    equal = np.logical_and(
        np.logical_and.reduce(lam_a == lam_b, axis=-1), np.logical_and.reduce(vec_a == vec_b, axis=(-2, -1))
    )
    if equal.all():
        return np.ones(equal.shape), np.ones(equal.shape)
    swap = _condition(lam_b) < _condition(lam_a)
    on_lam, on_vec = swap[..., None], swap[..., None, None]
    w = np.where(on_vec, vec_b, vec_a).conj().swapaxes(-1, -2) @ np.where(on_vec, vec_a, vec_b)
    lam_base, lam_other = np.where(on_lam, lam_b, lam_a), np.where(on_lam, lam_a, lam_b)
    w_bo, w_ob = _frame_ratios(lam_base, lam_other, w, np.zeros(swap.shape, bool))
    return tuple(np.where(equal, 1.0, np.where(swap, (w_ob, w_bo), (w_bo, w_ob))))


def _frame_ratios(lam_a, lam_b, w, swap=None) -> tuple:
    """(W(A/B), W(B/A)) of A = U diag(lam_a) U* and B = U W diag(lam_b) W* U*,
    for any unitary U: each pair of a stack of spectra ``(..., n)`` and
    unitaries W, whose stack broadcasts to theirs, with no matrix A or B.
    Every Thompson pencil of the package is taken here.

    Each spectrum is paired with its columns of U or U W, and is ascending
    or descending (a negative power of an ascending one).  The pencil is
    taken on the better-conditioned base, B's when it is strictly better,
    unless the caller has chosen: ``swap``, of the pairs' shape, is true
    where it is taken on B's base (``_ratios`` passes its pairs base
    first, and ``swap`` all false).  In A's eigenbasis B is
    W diag(lam_b) W*, so the pencil on A's base is K K* with
    K = diag(lam_a)^-1/2 W diag(lam_b)^1/2; the pencil on B's base, K* K
    for K = diag(lam_a)^1/2 W diag(lam_b)^-1/2, has the spectrum of K K*.  Either is one product of W scaled by rows and
    columns, decomposed without eigenvectors.  A pencil whose entries
    overflow, as between points far apart on a wide ball, is a
    ``NonHermitianInput`` naming it."""

    def spectrum(on_b, rows):  # the pencils of pairs ``rows``, on B's base where ``on_b``
        on_lam = on_b[..., None]
        a, b = lam_a[rows], lam_b[rows]
        k = w[rows] * np.where(on_lam, a**0.5, a**-0.5)[..., :, None] * np.where(on_lam, b**-0.5, b**0.5)[..., None, :]
        pencil = hpd_core.symmetrize(k @ k.conj().swapaxes(-1, -2))
        return hpd_core.eig_hermitian(pencil, "Thompson ratio pencil", vectors=False).eigenvalues

    w = np.broadcast_to(w, lam_a.shape[:-1] + w.shape[-2:])
    if swap is None:
        swap = np.asarray(_condition(lam_b) < _condition(lam_a))
    mu = spectrum(swap, ...)
    w_other, w_base = mu[..., -1], 1.0 / mu[..., 0]
    wide = hpd_core.pd_floor(mu) > _ONE_SOLVE_REL_TOL * mu[..., 0]
    if wide.any():
        w_base = np.array(w_base)
        w_base[wide] = spectrum(~swap[wide], wide)[..., -1]
    return tuple(np.where(swap, (w_other, w_base), (w_base, w_other)))


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
        if a.dec.vectors.shape != b.dec.vectors.shape:
            raise DimensionMismatch(f"distance shapes differ: {a.dec.vectors.shape} vs {b.dec.vectors.shape}")
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

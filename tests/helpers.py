"""Seeded random matrix generators shared by the test modules."""

import math

import numpy as np

from tfp import hpd_core


def random_hermitian(rng, n, scale=3.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hpd_core.symmetrize(scale * z)


def random_pd(rng, n, radius=1.5):
    """A positive definite matrix (the array of a random ball point)."""
    return hpd_core.random_pd_in_ball(n, radius, rng).matrix


def random_unitary(n, seed):
    """Seeded Haar unitary: QR of a complex Gaussian draw with the diagonal
    phases of R fixed to one.  ``seed`` may also be a Generator to draw from."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_nonsingular(rng, n, max_cond=1e6):
    while True:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(z) < max_cond:
            return z

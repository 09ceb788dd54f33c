"""Seeded problems whose common solution is known by construction.

Type1 (method of manufactured solutions): draw X* with every eigenvalue in
[exp(-0.5), exp(0.5)], take s = 2, F = X^(1/2), G = X^(1/3) and one complex
coefficient A, and set Q_j = X*^s - A* F_j(X*) A.  A is shrunk to the
largest scale at which both Q_j keep a positive-definiteness margin, so X*
solves both equations.

Type2: m = 2 Haar unitaries A_i and exponents with r - p = s - q, where p
and q are the powers of F and G.  Then X = c I with c = m^(1/(r - p))
solves both X^r = sum A_i* X^p A_i and X^s = sum A_i* X^q A_i.  The start
is a seeded random point inside the admissible ball.

The arithmetic here is plain numpy (LAPACK ``eigh``), independent of the
package under test, so the answers are an oracle for it.
"""

from __future__ import annotations

import math

import numpy as np

TYPE1_S = 2.0
TYPE1_F = 0.5
TYPE1_G = 1.0 / 3.0
TYPE1_RADIUS = 0.5
# Smallest eigenvalue each Q_j must keep, relative to lambda_min(X*^s).
TYPE1_Q_MARGIN = 0.05
# Far below d(F(X), G(Y)) / d(X, Y) on the ball, so condition (B) fails on
# every sample and a check of a type1 problem exits 3 whatever its seed.
TYPE1_L = 0.05

TYPE2_M = 2
TYPE2_R, TYPE2_F = 2.0, -0.25
TYPE2_S, TYPE2_G = 2.5, 0.25
TYPE2_A = 0.5
# Satisfies 3l < rs / (r + s); condition (B) still fails on every sample,
# as it does for any type2 pair whose functions vary, so checks exit 3.
TYPE2_L = 0.1
# Start drawn from the ball of this radius; the admissible one is r * a.
TYPE2_START_RADIUS = 0.5


def _power(m: np.ndarray, p: float) -> np.ndarray:
    lam, v = np.linalg.eigh(m)
    return (v * lam**p) @ v.conj().T


def _hermitian(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _pd_in_ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """U diag(exp(t)) U* with U Haar and t evenly spaced over [-radius, radius].

    Only the eigenvectors are random: the spectrum, which sets the work of
    every eigensolve on the way to the answer, is the same for every seed.
    """
    t = np.linspace(-radius, radius, n)
    u = _haar_unitary(rng, n)
    return _hermitian((u * np.exp(t)) @ u.conj().T)


def _literal(m: np.ndarray) -> list:
    """Matrix literal of the problem-file format, always in [re, im] form."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def type1(n: int, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """A type1 problem document and its known solution X*."""
    x = _pd_in_ball(rng, n, TYPE1_RADIUS)
    x_s = _power(x, TYPE1_S)
    floor = TYPE1_Q_MARGIN * float(np.linalg.eigvalsh(x_s)[0])
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
    fx, gx = _power(x, TYPE1_F), _power(x, TYPE1_G)
    # Largest scale t with lambda_min(X*^s - t^2 A* F_j A) >= floor for both j:
    # t^2 = 1 / lambda_max(C^(-1/2) A* F_j A C^(-1/2)) with C = X*^s - floor I.
    c_inv_half = _power(_hermitian(x_s - floor * np.eye(n)), -0.5)
    worst = max(
        float(np.linalg.eigvalsh(_hermitian(c_inv_half @ a.conj().T @ f @ a @ c_inv_half))[-1])
        for f in (fx, gx)
    )
    a = a / math.sqrt(worst)
    q1 = _hermitian(x_s - a.conj().T @ fx @ a)
    q2 = _hermitian(x_s - a.conj().T @ gx @ a)
    doc = {
        "kind": "type1",
        "n": n,
        "m": 1,
        "s": TYPE1_S,
        "A": [_literal(a)],
        "Q1": _literal(q1),
        "Q2": _literal(q2),
        "F": {"kind": "power", "exponent": TYPE1_F},
        "G": {"kind": "power", "exponent": TYPE1_G},
        "a": 1.0,
        "l": TYPE1_L,
        "x0": "identity",
        "options": {"force": True},
    }
    return doc, x


def type2(n: int, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """A type2 problem document and its known solution c I."""
    mats = [_haar_unitary(rng, n) for _ in range(TYPE2_M)]
    x0 = _pd_in_ball(rng, n, TYPE2_START_RADIUS)
    c = TYPE2_M ** (1.0 / (TYPE2_R - TYPE2_F))
    doc = {
        "kind": "type2",
        "n": n,
        "m": TYPE2_M,
        "r": TYPE2_R,
        "s": TYPE2_S,
        "A": [_literal(u) for u in mats],
        "F": {"kind": "power", "exponent": TYPE2_F},
        "G": {"kind": "power", "exponent": TYPE2_G},
        "a": TYPE2_A,
        "l": TYPE2_L,
        "x0": _literal(x0),
        "options": {"force": True},
    }
    return doc, c * np.eye(n, dtype=np.complex128)


def problems(n: int, count: int, seed: int) -> list[tuple[dict, np.ndarray]]:
    """``count`` problems of size n, type1 and type2 alternating, from one seed."""
    rng = np.random.default_rng(seed)
    return [(type1 if i % 2 == 0 else type2)(n, rng) for i in range(count)]

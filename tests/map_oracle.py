"""The iteration maps and the residuals written out step by step: the test
oracle for ``matrix_solver.build_map``, condition (C) and
``matrix_solver.residuals``.

The package forms every right-hand side Q + sum_i A_i* F(X) A_i in one
function, ``matrix_solver._rhs``, from F(X)'s decomposition (mu, V) and
conjugates taken once, when a problem's maps are built.  The right-hand
side here follows the same recipe with code of its own: it takes each
A_i's conjugate transpose itself, adds B_i diag(mu) B_i* with
B_i = A_i* V to Q in a loop over i, and symmetrizes the sum with
``symmetrize``; F(X)'s decomposition is X's eigenvectors with
eigenvalues ** p for a power, and a constant's own, repeated along X's
leading axes, for a constant.  So it shares none of the package's
right-hand side: a fault there cannot leave a map's fixed point and its
residual certificate wrong and still in agreement.  Its points must
match the package's bit for bit, eigenvectors included, its residuals
bit for bit, and its errors message for message.
"""

import numpy as np

from tfp.hpd_core import PDPoint, _pd_eig, frobenius_norm, symmetrize


def f_decomposition(f_spec, x):
    """(mu, V) of F(X) = V diag(mu) V* at the point, or each point of a
    stack, ``x``."""
    if f_spec.kind == "power":
        lam, vectors = x.dec
        return lam**f_spec.exponent, vectors
    lam, vectors = f_spec.value.dec
    batch = x.dec.eigenvalues.shape[:-1]
    return np.broadcast_to(lam, batch + lam.shape), np.broadcast_to(vectors, batch + vectors.shape)


def rhs(q, a_list, mu, vectors):
    """Q + sum_i A_i* V diag(mu) V* A_i; no Q when ``q`` is None."""
    acc = None if q is None else q.matrix
    for a in a_list:
        b = a.conj().T @ vectors
        term = (b * mu[..., None, :]) @ b.conj().swapaxes(-1, -2)
        acc = term if acc is None else acc + term
    return symmetrize(acc)


def build_map(q, a_list, f_spec, exponent):
    """X -> (Q + sum_i A_i* F(X) A_i) ** (1/exponent), step by step."""
    root = 1.0 / exponent

    def t(x):
        value = rhs(q, a_list, *f_decomposition(f_spec, x))
        return PDPoint(value, _pd_eig(value, "map right-hand side")).powered(root)

    return t


def maps_for(problem):
    """The oracle pair (T1, T2) of a problem."""
    return tuple(build_map(q, problem.A, f_spec, e) for e, q, f_spec in problem.equations)


def residuals(problem, x):
    """||X**e_j - RHS_j(X)||_F / max(1, ||X**e_j||_F) of each equation at
    the point ``x``, one equation at a time."""
    out = []
    for e, q, f_spec in problem.equations:
        power = x.powered(e).matrix
        difference = power - rhs(q, problem.A, *f_decomposition(f_spec, x))
        out.append(frobenius_norm(difference) / np.maximum(1.0, frobenius_norm(power)))
    return tuple(out)

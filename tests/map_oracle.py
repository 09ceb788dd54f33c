"""The iteration maps and the residuals as a composition of the package's
kernels: the test oracle for ``matrix_solver.build_map``, condition (C)
and ``matrix_solver.residuals``.

The package forms every right-hand side Q + sum_i A_i* F(X) A_i in one
function, ``matrix_solver._rhs``, from conjugates taken once.  The
right-hand side here sums ``_congruence`` kernels, each taking its own
conjugate, and symmetrizes Q's sum with ``symmetrize``; a map builds F(X)
as a point with ``apply_F`` and takes the root of the right-hand side's
point.  So it shares none of the package's right-hand side: a fault there
cannot leave a map's fixed point and its residual certificate wrong and
still in agreement.  Its points must match the package's bit for bit,
eigenvectors included, its residuals bit for bit, and its errors message
for message.
"""

import numpy as np

from tfp.hpd_core import PDPoint, _pd_eig, frobenius_norm, symmetrize
from tfp.matrix_solver import apply_F


def _congruence(a, m):
    """The congruence A* M A, re-symmetrized, of a square factor and a
    Hermitian argument of the same size, either of them a stack.

    Preserves positive definiteness whenever A is nonsingular.
    """
    return symmetrize(a.conj().swapaxes(-1, -2) @ m @ a)


def sum_congruences(a_list, value):
    """sum_i A_i* M A_i, each congruence symmetrized, for a matrix or a stack."""
    acc = _congruence(a_list[0], value)
    for a_i in a_list[1:]:
        acc = acc + _congruence(a_i, value)
    return acc


def rhs(q, a_list, f_value):
    """Q + sum_i A_i* F(X) A_i from the point F(X); no Q when ``q`` is None."""
    acc = sum_congruences(a_list, f_value.matrix)
    return acc if q is None else symmetrize(q.matrix + acc)


def build_map(q, a_list, f_spec, exponent):
    """X -> (Q + sum_i A_i* F(X) A_i) ** (1/exponent), kernel by kernel."""
    root = 1.0 / exponent

    def t(x):
        value = rhs(q, a_list, apply_F(f_spec, x))
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
        difference = power - rhs(q, problem.A, apply_F(f_spec, x))
        out.append(frobenius_norm(difference) / np.maximum(1.0, frobenius_norm(power)))
    return tuple(out)

"""The iteration maps as a composition of the package's kernels: the test
oracle for ``matrix_solver.build_map``.

The package compiles each map once and forms its right-hand side in one
straight line from X's spectrum.  The map here builds F(X) as a point
with ``apply_F``, sums the congruences with ``_rhs`` and takes the root of
that point, so it shares none of the compiled arithmetic.  Its points must
match the package's bit for bit, eigenvectors included, and its errors
message for message.
"""

from tfp.hpd_core import PDPoint, _pd_eig
from tfp.matrix_solver import _rhs, apply_F


def build_map(q, a_list, f_spec, exponent):
    """X -> (Q + sum_i A_i* F(X) A_i) ** (1/exponent), kernel by kernel."""
    root = 1.0 / exponent

    def t(x):
        rhs = _rhs(q, a_list, apply_F(f_spec, x))
        return PDPoint(rhs, _pd_eig(rhs, "map right-hand side")).powered(root)

    return t


def maps_for(problem):
    """The oracle pair (T1, T2) of a problem."""
    return tuple(build_map(q, problem.A, f_spec, e) for e, q, f_spec in problem.equations)

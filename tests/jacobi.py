"""Cyclic Jacobi eigensolver for complex Hermitian matrices.

An independent oracle for ``hpd_core.eig_hermitian``: it shares no code
with LAPACK, needs nothing beyond basic array arithmetic, and is
unconditionally stable, so agreement between the two is evidence for
both.  Too slow for the package itself (about 20x LAPACK at n = 3 and
360x at n = 16).
"""

import math

import numpy as np

# Off-diagonal convergence threshold of the Jacobi sweep, relative to the
# Frobenius norm of the input.
_JACOBI_OFF_TOL = 1e-14

# Sweep budget: 30 * n**2 full cyclic sweeps before giving up.
_JACOBI_SWEEP_FACTOR = 30


def _off_diagonal_norm(a):
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _rotate(a, v, p, q):
    """Zero the (p, q) entry of ``a`` by a unitary plane rotation.

    The rotation first absorbs the phase of a[p, q] so the 2x2 pivot block
    becomes real symmetric, then applies the stable Jacobi tangent formula.
    ``a`` and ``v`` are updated in place (``a`` stays Hermitian, ``v``
    accumulates the eigenvector basis).
    """
    apq = a[p, q]
    mag = abs(apq)
    phase = apq / mag
    tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    root = math.sqrt(1.0 + tau * tau)
    t = 1.0 / (tau + root) if tau >= 0.0 else -1.0 / (-tau + root)
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    cp = phase * c
    sp = phase * s

    colp = a[:, p].copy()
    colq = a[:, q].copy()
    a[:, p] = cp * colp - s * colq
    a[:, q] = sp * colp + c * colq
    rowp = a[p, :].copy()
    rowq = a[q, :].copy()
    a[p, :] = np.conj(cp) * rowp - s * rowq
    a[q, :] = np.conj(sp) * rowp + c * rowq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = cp * vp - s * vq
    v[:, q] = sp * vp + c * vq


def jacobi_eig(m):
    """(eigenvalues ascending, orthonormal eigenvector columns) of the
    Hermitian part of ``m``, by cyclic Jacobi sweeps."""
    arr = np.asarray(m, dtype=np.complex128)
    a = 0.5 * (arr + arr.conj().T)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    off_tol = _JACOBI_OFF_TOL * float(np.linalg.norm(a))
    skip_tol = off_tol / (2.0 * n)
    for _ in range(_JACOBI_SWEEP_FACTOR * n * n):
        if _off_diagonal_norm(a) <= off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip_tol:
                    _rotate(a, v, p, q)
    else:
        raise RuntimeError(f"Jacobi sweep did not converge within {_JACOBI_SWEEP_FACTOR * n * n} sweeps")

    lam = np.diagonal(a).real.copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], v[:, order]

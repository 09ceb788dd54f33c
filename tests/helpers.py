"""Seeded random matrix generators, the matrix functions F(X) as points
and the benchmark's known-answer problems, shared by the test modules."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from tfp import hpd_core, matrix_solver


# Draw methods of numpy's Generator (``random``, ``standard_normal``, ...)
DRAWS = frozenset(name for name in dir(np.random.Generator) if not name.startswith("_")) - {"bit_generator", "spawn"}


class CountingGenerator(np.random.Generator):
    """A generator that counts its calls of draw methods in ``calls``.  It
    draws the stream of the bit generator it is built on, so one built on
    another generator's ``bit_generator`` advances that generator's state;
    ``default_rng`` returns it unchanged."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.calls = 0


def _counted(name):
    def draw(self, *args, **kwargs):
        self.calls += 1
        return getattr(super(CountingGenerator, self), name)(*args, **kwargs)

    return draw


for _name in DRAWS:
    setattr(CountingGenerator, _name, _counted(_name))


def apply_F(spec, x):
    """F(X) as a point, or one per point of a stack; a power reads X's
    spectrum (a matrix X costs one eigensolve, a ``PDPoint`` none), and a
    constant is repeated along X's leading axes."""
    if spec.kind == "power":
        return hpd_core.pd_point(x).powered(spec.exponent)
    return matrix_solver._repeated(spec.value, np.shape(x)[:-2])


def random_hermitian(rng, n, scale=3.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hpd_core.symmetrize(scale * z)


def random_pd_in_ball(n, radius, seed, shape=()):
    """Seeded random positive definite point within a log-eigenvalue bound.

    X = U diag(exp(t_1), ..., exp(t_n)) U* with each t_i uniform in
    [-radius, radius] and U a seeded Haar unitary, so every eigenvalue of
    X lies in [exp(-radius), exp(radius)] by construction; the point keeps
    that construction, sorted, as its decomposition: no eigensolve.  With
    a ``shape``, a stack of points of that shape, in C order.  ``seed`` is
    an int, a generator, or a ``(spectra, gauss)`` tuple of two
    generators; one generator is both.  A stack costs two generator calls:
    ``spectra.random`` gives the n unit doubles of each point, then
    ``gauss.standard_normal`` the real and imaginary parts of each point's
    Gaussian matrix.  This is the condition check's sampler as it drew X
    and Y before it drew pairs in X's eigenbasis (``sample_ball_pairs``),
    kept as the other side of the distribution tests and as the tests'
    source of random points.
    """
    spectra, gauss = seed if isinstance(seed, tuple) else (np.random.default_rng(seed),) * 2
    count = math.prod(shape)
    unit = spectra.random((count, n))
    z = gauss.standard_normal((count, 2, n, n))
    low, high = -radius, radius
    t = low + (high - low) * unit
    u = hpd_core._haar_unitaries(z)
    lam = np.exp(t)
    order = np.argsort(t, axis=-1)
    matrix = hpd_core.symmetrize((u * lam[:, None, :]) @ u.conj().swapaxes(-1, -2))
    lam, u = np.take_along_axis(lam, order, -1), np.take_along_axis(u, order[:, None, :], -1)
    shape = tuple(shape)
    return hpd_core.PDPoint(
        matrix.reshape(shape + (n, n)),
        hpd_core.EigenDecomposition(lam.reshape(shape + (n,)), u.reshape(shape + (n, n))),
    )


def random_pd(rng, n, radius=1.5):
    """A positive definite matrix (the array of a random ball point)."""
    return random_pd_in_ball(n, radius, rng).matrix


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


def _load_known_answer():
    path = Path(__file__).resolve().parents[1] / "bench" / "known_answer.py"
    spec = importlib.util.spec_from_file_location("known_answer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


known_answer = _load_known_answer()


def known_answer_files(tmp_path, n, count, seed):
    """``known_answer.problems(n, count, seed)`` written as problem files."""
    paths = []
    for i, (doc, _) in enumerate(known_answer.problems(n, count, seed)):
        path = tmp_path / f"known_{n}_{seed}_{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths

"""Seeded random matrix generators and the benchmark's known-answer
problems, shared by the test modules."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from tfp import hpd_core


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

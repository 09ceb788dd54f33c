"""Problem files shipped with the CLI.

* ``example_4_1.json``   3x3 type1 pair with a dense complex coefficient
  matrix and distinct constant terms.  Its two equations turn out to be
  mutually inconsistent, so the alternating iteration settles into a
  two-cycle instead of converging; the solver reports this honestly via
  exit code 4 and the partial trace.
* ``example_4_2.json``   3x3 type2 pair with an orthogonal coefficient
  matrix; the identity solves both equations exactly and the iteration
  converges to it quickly.
* ``check_pass_constant.json``   type1 problem with constant functions,
  built to pass every sufficiency condition.
* ``check_fail_power.json``   type1 problem whose contraction exponent is
  analytically too small, so condition (B) must fail with a witness.
* ``quadratic_pass.json``   type1 problem whose fixed point is the scalar
  matrix ((1 + sqrt(13)) / 2) I, passing all conditions without force.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped fixture file."""
    path = Path(str(resources.files(__package__).joinpath(name)))
    if not path.is_file():
        raise FileNotFoundError(f"no shipped fixture named {name!r}")
    return path


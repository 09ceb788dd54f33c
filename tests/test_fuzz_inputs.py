"""A standing input fuzzer: each shipped fixture with one to three fields
edited (a scalar from 0 to the float maximum, F or G made another power
or a scaled identity, a matrix scaled by 10**k) and at most 30 samples
and 50 iterations, run through ``tfp check`` and ``tfp solve --force``
in-process.  Whatever the input, each command ends in one of its
documented exit codes, a failure names itself on an ``error:`` line (or,
for a failed check, on a ``FAIL`` line), and no output file holds a NaN.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfp import cli
from tfp.fixtures import fixture_path

FIXTURES = ["check_fail_power", "check_pass_constant", "example_4_1", "example_4_2", "quadratic_pass"]
# exp(r*a) overflows beyond a radius of about 709.78, 2**s at s = 1024
SCALARS = st.one_of(st.sampled_from([0, 300, 355, 710, 1023, 1024, 1.7e308]), st.floats(0, 1.7e308))
POWERS = [1, -1, 0.5, -0.5, 0.25]
SCALES = st.integers(-200, 300).map(lambda k: 10.0**k)
# each command's flags after the problem, and the exit codes it may end in
COMMANDS = {"check": ([], {0, 2, 3}), "solve": (["--force"], {0, 2, 4, 5})}


def scaled(value, factor):
    """A matrix literal, or a list of them, with every number times ``factor``."""
    return [scaled(v, factor) for v in value] if isinstance(value, list) else value * factor


@st.composite
def cases(draw):
    """(fixture, its changed keys, samples, max_iter)."""
    name = draw(st.sampled_from(FIXTURES))
    doc = json.loads(fixture_path(f"{name}.json").read_text())
    changes = {}
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["scalar", "map", "scale"]))
        if edit == "scalar":
            changes[draw(st.sampled_from("alsr"))] = draw(SCALARS)
        elif edit == "map":
            identity = [[float(i == j) for j in range(doc["n"])] for i in range(doc["n"])]
            power = {"kind": "power", "exponent": draw(st.sampled_from(POWERS))}
            constant = {"kind": "constant", "value": scaled(identity, draw(SCALES))}
            changes[draw(st.sampled_from("FG"))] = draw(st.sampled_from([power, constant]))
        else:
            key = draw(st.sampled_from([key for key in ("A", "Q1", "Q2", "x0") if isinstance(doc.get(key), list)]))
            changes[key] = scaled(doc[key], draw(SCALES))
    return name, changes, draw(st.integers(1, 30)), draw(st.integers(1, 50))


def run(argv):
    """``cli.main`` on ``argv``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(map(str, argv)))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(cases())
# the three inputs that once ended in a traceback: 2**s overflowing in
# type2's (B) bounds, exp(r*a) beyond the float range, and d(Q1, Q2)
# beyond the float range; and one that once wrote NaN residuals, a
# right-hand side that overflows at the last iterate
@example(("example_4_2", {"s": 1024}, 30, 50))
@example(("example_4_2", {"r": 355}, 30, 50))
@example(("check_pass_constant", {"Q1": [[1e150, 0], [0, 1e150]], "Q2": [[1e-200, 0], [0, 1e-200]]}, 30, 50))
@example(("quadratic_pass", {"A": [[[1e150, 0], [0, 1e150]]]}, 30, 1))
def test_every_input_ends_in_a_named_outcome(case):
    name, changes, samples, max_iter = case
    doc = json.loads(fixture_path(f"{name}.json").read_text())
    doc.update(changes)
    doc["options"] = {**doc["options"], "samples": samples, "max_iter": max_iter}
    # a directory per example: hypothesis refuses the function-scoped tmp_path
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        problem = work / "problem.json"
        problem.write_text(json.dumps(doc))
        for command, (flags, codes) in COMMANDS.items():
            code, out, err = run([command, problem, "--out", work / f"{command}.out", *flags])
            assert code in codes, (command, code, err)
            named = any(line.startswith("error:") for line in err.splitlines())
            if code == 3:
                assert named or " FAIL " in out, (command, out, err)
            elif code != 0:
                assert named, (command, code, err)
        for path in work.iterdir():
            if path != problem:
                assert not re.search(r"(?i)\bnan\b", path.read_text()), path.name

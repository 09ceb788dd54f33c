"""Outputs of small problems do not depend on the BLAS thread count.

The trace CSV, the solution JSON and the SVG are byte-deterministic for
one BLAS build and thread count: each setting repeats its own bytes from
one interpreter to the next.  Up to n = 64 they are also the same
under one OpenBLAS thread and under two; at n = 128 they are not (see the
README).  The package never sets the thread count: that is process-wide
state its callers own, so each setting runs in its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tfp
from helpers import known_answer_files
from tfp.fixtures import fixture_path

FIXTURES = ["check_fail_power", "check_pass_constant", "example_4_1", "example_4_2", "quadratic_pass"]
SERIES = ["--series", "gap", "--series", "bound", "--series", "residual"]

# Runs each command line through tfp.cli.main in the working directory and
# prints the exit codes.
RUN = "import json, sys\nfrom tfp.cli import main\nprint([main(argv) for argv in json.loads(sys.argv[1])])"


def outputs(commands, work: Path, threads: int) -> tuple:
    """stdout, stderr and each output file's bytes of ``commands`` run in
    ``work`` with ``threads`` OpenBLAS threads."""
    work.mkdir()
    pythonpath = os.pathsep.join([str(Path(tfp.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=pythonpath)
    result = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(commands)], cwd=work, capture_output=True, text=True, env=env, check=True
    )
    return result.stdout, result.stderr, {path.name: path.read_bytes() for path in sorted(work.iterdir())}


def test_one_and_two_threads_write_the_same_bytes(tmp_path):
    problems = [fixture_path(f"{name}.json") for name in FIXTURES]
    problems += known_answer_files(tmp_path, 16, 1, 7)
    commands = []
    for i, problem in enumerate(problems):
        commands.append(["solve", str(problem), "--force", "--out", f"{i}.csv"])
        commands.append(["plot", f"{i}.csv", *SERIES, "--out", f"{i}.svg"])
    one, two = ([outputs(commands, tmp_path / f"{threads}-{run}", threads) for run in (1, 2)] for threads in (1, 2))
    assert len(one[0][2]) == 3 * len(problems)
    assert one[0] == one[1] and two[0] == two[1]  # each setting repeats its own bytes
    assert one[0] == two[0]

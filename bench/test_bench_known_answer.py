"""The generated problems have the common solutions they claim."""

import json

import numpy as np
import pytest

import known_answer
from tfp import cli, matrix_solver, thompson


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_answer_solves_both_equations_and_the_solver_recovers_it(tmp_path, n, seed):
    for i, (doc, answer) in enumerate(known_answer.problems(n, 2, seed)):
        path = tmp_path / f"problem{i}.json"
        path.write_text(json.dumps(doc))
        problem, x0, options = cli.load_problem(path)
        assert problem.kind == ("type1" if i % 2 == 0 else "type2")
        assert max(matrix_solver.residuals(problem, answer)) <= 1e-12
        result = matrix_solver.solve(problem, x0=x0, options=options)
        assert thompson.distance(result.solution, answer) <= 1e-10


def test_same_seed_same_problems():
    first = known_answer.problems(4, 2, 9)
    second = known_answer.problems(4, 2, 9)
    assert [doc for doc, _ in first] == [doc for doc, _ in second]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(first, second))
    assert [doc for doc, _ in known_answer.problems(4, 2, 10)] != [doc for doc, _ in first]

"""The README's code runs against the package as it is: its timing
snippet is taken from the README and run once, small."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_timeit_snippet_runs():
    # python -m timeit -s "<setup>" \ "<statement>", run at n = 3 for 20
    # of its 200 iterations
    snippet = re.search(r'python -m timeit -s "(.*?)" \\\n\s*"(.*?)"\n', README.read_text(), re.S)
    assert snippet, "README.md has no timeit snippet"
    setup, statement = snippet.group(1).replace("$n", "3"), snippet.group(2)
    assert "max_iter=200" in statement
    namespace = {}
    exec(setup, namespace)
    trace = eval(statement.replace("max_iter=200", "max_iter=20"), namespace)
    assert (trace.iterations, trace.stop_reason) == (20, "max_iter")

"""The README's code runs against the package as it is: its timing
snippet is taken from the README and run once, small, and its CLI
quickstart is run command by command."""

import re
import shlex
from pathlib import Path

from tfp import cli

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


def test_cli_quickstart_runs(monkeypatch, tmp_path, capsys):
    # the sh block of shipped fixtures: FX from its python -c line, then
    # each tfp line through cli.main, in an empty working directory
    block = re.search(r"The shipped fixtures live inside the package:\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert block, "README.md has no quickstart block"
    setup, *commands = block.group(1).splitlines()
    code = re.fullmatch(r'FX=\$\(python -c "(.*)"\)', setup).group(1)
    exec(code, {})
    fixture = capsys.readouterr().out.strip()
    monkeypatch.chdir(tmp_path)
    codes = {"check": {0, 3}, "solve": {0}, "plot": {0}}
    for line in commands:
        tfp, command, *args = shlex.split(line.split("#")[0].replace("$FX", fixture))
        assert tfp == "tfp"
        assert cli.main([command, *args]) in codes[command], line
    assert all(Path(name).is_file() for name in ("e42.csv", "e42.json", "e42.svg"))

"""Design rules of ``src/tfp``, read from each module's syntax tree.

One eigensolver path: every eigensolve goes through
``hpd_core.eig_hermitian``, so no other module names a ``numpy.linalg``
``eig*`` function, whatever alias it imports numpy, ``numpy.linalg`` or
the function under.
"""

import ast
from pathlib import Path

import pytest

from tfp import hpd_core

PACKAGE = Path(hpd_core.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _aliases(tree) -> dict:
    """The dotted name each imported name stands for in a module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:  # ``import numpy.linalg`` binds ``numpy``
                    top = alias.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node, names):
    """The dotted name an expression of names and attributes resolves to,
    or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, names)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _is_eig(dotted) -> bool:
    parts = (dotted or "").split(".")
    return parts[0] == "numpy" and "linalg" in parts[1:-1] and parts[-1].startswith("eig")


def eig_uses(source: str) -> list:
    """(line, name) of each ``numpy.linalg.eig*`` a module's source names:
    in an import, a call or any other reference."""
    tree = ast.parse(source)
    names = _aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported = (f"{node.module}.{alias.name}" for alias in node.names)
            found += [(node.lineno, dotted) for dotted in imported if _is_eig(dotted)]
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            dotted = _dotted(node, names)
            if _is_eig(dotted):
                found.append((node.lineno, dotted))
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_eigensolves_only_in_hpd_core(path):
    uses = eig_uses(path.read_text())
    if path.name == "hpd_core.py":
        assert {name for _, name in uses} == {"numpy.linalg.eigh", "numpy.linalg.eigvalsh"}
    else:
        assert uses == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import numpy as np\nnp.linalg.eigh(m)", "numpy.linalg.eigh"),
        ("import numpy.linalg as la\nla.eigh(m)", "numpy.linalg.eigh"),
        ("import numpy.linalg\nnumpy.linalg.eigvals(m)", "numpy.linalg.eigvals"),
        ("from numpy import linalg as L\nL.eig(m)", "numpy.linalg.eig"),
        ("from numpy.linalg import eigvalsh as spectrum\nspectrum(m)", "numpy.linalg.eigvalsh"),
        ("import numpy as np\nsolver = np.linalg.eigh", "numpy.linalg.eigh"),
    ],
)
def test_the_rule_sees_every_alias(source, name):
    assert name in {dotted for _, dotted in eig_uses(source)}


def test_the_rule_leaves_other_calls_alone():
    source = "import numpy as np\nfrom . import hpd_core\nnp.linalg.norm(m)\nhpd_core.eig_hermitian(m)\neigh = 1\neigh"
    assert eig_uses(source) == []

"""Design rules of ``src/tfp``, read from the syntax tree of every module
under it, ``fixtures/__init__.py`` included.  These tests are each rule's
one check: no CI step greps the source for them.

- One eigensolver path: every eigensolve goes through
  ``hpd_core.eig_hermitian``, so no other module names a ``numpy.linalg``
  ``eig*`` function, whatever alias it imports numpy, ``numpy.linalg`` or
  the function under.
- One unitary path: every Haar unitary is ``hpd_core._haar_unitaries``'s,
  one stacked QR, so no other module names ``numpy.linalg.qr``, whatever
  alias it imports numpy, ``numpy.linalg`` or the function under.
- One norm path: every Frobenius norm is ``hpd_core.frobenius_norm``'s,
  so no module names ``numpy.linalg.norm``, whatever alias it imports
  numpy, ``numpy.linalg`` or the function under.
- No object ufuncs: the Thompson ratios' logs and powers are numpy's own,
  one C loop per array, so no module names ``numpy.frompyfunc``, whatever
  alias it imports numpy or the function under.
- One output writer: every output goes through ``cli._write_output``, so
  no module names a ``write_text`` or ``write_bytes`` attribute.
- One JSON writer: every report and solution goes through
  ``cli._json_text``, so no module names ``json.dump`` or ``json.dumps``,
  whatever alias it imports them under.
- One sampler path: every sampled pair is drawn by
  ``hpd_core.sample_ball_pairs``, so no other module names a draw method
  of a random generator, whatever name it holds the generator or the
  method under.
- One home for the rules of a value from outside: the field rules
  (``as_finite``, ``as_tolerance``, ``as_count``, ``as_seed``,
  ``as_bool``) are defined in ``hpd_core`` alone, next to the shape rule,
  so the engine, the sampler, the solver and the CLI all import them.
- One home per message: "has shape" (``hpd_core.as_square_matrix``'s shape
  rule), "condition check broke down:" (``check_conditions``'s
  breakdown), "must be a finite number" and "must be true or false"
  (``hpd_core``'s field rules) and "Thompson ratio pencil"
  (``thompson._frame_ratios``, the one pencil rule) each occur in one
  string constant of ``src/tfp``, counting an f-string's literal parts,
  however the source spells them.
"""

import ast
from pathlib import Path

import pytest

from helpers import DRAWS
from tfp import hpd_core

PACKAGE = Path(hpd_core.__file__).resolve().parent
# every module of the package, subpackages included, each named by its path
# in the package: two of them are ``__init__.py``
MODULES = sorted(PACKAGE.rglob("*.py"))
MODULE_IDS = [path.relative_to(PACKAGE).as_posix() for path in MODULES]


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
        elif isinstance(node, ast.ImportFrom):
            # ``from . import x`` binds ``.x``, a module of the package
            prefix = "." * node.level + (f"{node.module}." if node.module else "")
            for alias in node.names:
                names[alias.asname or alias.name] = prefix + alias.name
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


def references(source: str, matches) -> list:
    """(line, name) of each dotted name a module's source names, in an
    import, a call or any other reference, for which ``matches`` holds."""
    tree = ast.parse(source)
    names = _aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported = (f"{node.module}.{alias.name}" for alias in node.names)
            found += [(node.lineno, dotted) for dotted in imported if matches(dotted)]
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            dotted = _dotted(node, names)
            if matches(dotted):
                found.append((node.lineno, dotted))
    return sorted(set(found))


def eig_uses(source: str) -> list:
    return references(source, _is_eig)


def qr_uses(source: str) -> list:
    return references(source, {"numpy.linalg.qr"}.__contains__)


def norm_uses(source: str) -> list:
    return references(source, {"numpy.linalg.norm"}.__contains__)


def object_ufuncs(source: str) -> list:
    return references(source, {"numpy.frompyfunc"}.__contains__)


def json_writes(source: str) -> list:
    return references(source, {"json.dump", "json.dumps"}.__contains__)


GLOBAL_GENERATORS = ("numpy.random", "random")


def generator_draws(source: str) -> list:
    """(line, method) of each draw a module's source names: a draw method
    of an object it does not import (``rng.standard_normal``, referenced
    or called), or of numpy's or the standard library's global generator
    (``np.random.normal``, ``from random import random``).  A module's
    attribute of a draw method's name (``np.random``,
    ``matrix_solver.power``) is no draw."""
    tree = ast.parse(source)
    names = _aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DRAWS:
            base = _dotted(node.value, names)
            if base is None or base in GLOBAL_GENERATORS:
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module in GLOBAL_GENERATORS and not node.level:
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in DRAWS]
    return sorted(set(found))


def file_writes(source: str) -> list:
    """(line, attribute) of each ``write_text`` or ``write_bytes``
    attribute a module's source names, on whatever object."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
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


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_unitaries_only_in_hpd_core(path):
    uses = qr_uses(path.read_text())
    if path.name == "hpd_core.py":
        assert {name for _, name in uses} == {"numpy.linalg.qr"}
    else:
        assert uses == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.qr(m)",
        "import numpy\nnumpy.linalg.qr(m)",
        "from numpy.linalg import qr as factor\nfactor(m)",
        "import numpy.linalg as la\nla.qr(m)",
        "from numpy import linalg as L\nL.qr(m)",
        "import numpy as np\ndecompose = np.linalg.qr",
    ],
)
def test_the_unitary_rule_sees_every_alias(source):
    assert {dotted for _, dotted in qr_uses(source)} == {"numpy.linalg.qr"}


def test_the_unitary_rule_leaves_other_calls_alone():
    source = "import numpy as np\nfrom . import hpd_core\nhpd_core._haar_unitaries(z)\nnp.linalg.eigh(m)\nqr = 1\nqr"
    assert qr_uses(source) == []


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_norms_only_through_frobenius_norm(path):
    assert norm_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.norm(m)",
        "import numpy\nnumpy.linalg.norm(m)",
        "from numpy.linalg import norm as nrm\nnrm(m)",
        "import numpy.linalg as la\nla.norm(m)",
        "from numpy import linalg\nsize = linalg.norm",
    ],
)
def test_the_norm_rule_sees_every_alias(source):
    assert {dotted for _, dotted in norm_uses(source)} == {"numpy.linalg.norm"}


def test_the_norm_rule_leaves_other_calls_alone():
    source = "import numpy as np\nfrom . import hpd_core\nhpd_core.frobenius_norm(m)\nnp.vecdot(a, a)\nnorm = 1\nnorm"
    assert norm_uses(source) == []


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_no_object_ufuncs(path):
    assert object_ufuncs(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\n_LOG = np.frompyfunc(math.log, 1, 1)",
        "import numpy\nnumpy.frompyfunc(f, 2, 1)(a, b)",
        "from numpy import frompyfunc as ufunc\nufunc(f, 1, 1)",
        "from numpy import frompyfunc\nmake = frompyfunc",
    ],
)
def test_the_object_ufunc_rule_sees_every_alias(source):
    assert {dotted for _, dotted in object_ufuncs(source)} == {"numpy.frompyfunc"}


def test_the_object_ufunc_rule_leaves_numpys_own_ufuncs_alone():
    source = "import numpy as np\nnp.log(w)\nnp.power(w, l)\nnp.maximum(a, b)\nfrompyfunc = 1\nfrompyfunc"
    assert object_ufuncs(source) == []


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_outputs_only_through_write_output(path):
    assert file_writes(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_json_only_through_json_text(path):
    assert json_writes(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "out.write_text(text)",
        "Path(name).write_bytes(data)",
        "save = out.write_text\nsave(text)",
        "from pathlib import Path\nPath.write_text(out, text)",
    ],
)
def test_the_output_rule_sees_every_form(source):
    assert file_writes(source)


@pytest.mark.parametrize(
    "source, name",
    [
        ("import json\njson.dumps(doc)", "json.dumps"),
        ("import json as j\nj.dump(doc, out)", "json.dump"),
        ("from json import dumps as d\nd(doc)", "json.dumps"),
        ("from json import dump\ndump(doc, out)", "json.dump"),
        ("import json\nencode = json.dumps", "json.dumps"),
    ],
)
def test_the_json_rule_sees_every_alias(source, name):
    assert name in {dotted for _, dotted in json_writes(source)}


def test_the_output_and_json_rules_leave_other_calls_alone():
    source = (
        '"""Bytes of `json.dumps(doc)`, written as `Path.write_text` would."""\n'
        "import json\nfrom json.encoder import encode_basestring_ascii\n"
        "json.loads(text)\npath.read_text()\nwrite_text = 1\n_write_output(path, text)\n"
    )
    assert json_writes(source) == [] and file_writes(source) == []


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_generator_draws_only_in_hpd_core(path):
    draws = generator_draws(path.read_text())
    if path.name == "hpd_core.py":
        assert {name for _, name in draws} == {"random", "standard_normal"}
    else:
        assert draws == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("rng.standard_normal(size=3)", "standard_normal"),
        ("draw = rng.standard_normal\ndraw(out=z)", "standard_normal"),
        ("self.rng.integers(5)", "integers"),
        ("np.random.default_rng(seed).uniform(0, 1)", "uniform"),
        ("import numpy as np\nnp.random.normal()", "normal"),
        ("from numpy import random as r\nr.random(3)", "random"),
        ("from numpy.random import standard_normal as z\nz(3)", "standard_normal"),
        ("import random\nrandom.random()", "random"),
    ],
)
def test_the_draw_rule_sees_every_form(source, name):
    assert name in {method for _, method in generator_draws(source)}


def test_the_draw_rule_leaves_other_calls_alone():
    source = (
        "import numpy as np\nfrom . import matrix_solver\nimport numpy.random\n"
        "rng = np.random.default_rng(seed)\nnp.random.Generator(np.random.PCG64(1))\n"
        "matrix_solver.power(0.5)\nnumpy.random.default_rng(0)\nrandom = 1\n"
    )
    assert generator_draws(source) == []


FIELD_RULES = {"as_finite", "as_tolerance", "as_count", "as_seed", "as_bool"}


def function_defs(source: str) -> set:
    """The name of each function a module's source defines, at any depth."""
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_field_rules_defined_only_in_hpd_core(path):
    defined = function_defs(path.read_text()) & FIELD_RULES
    assert defined == (FIELD_RULES if path.name == "hpd_core.py" else set())


# Messages that name a rule with one home, counted in the strings Python
# reads, so a spelling such as "has\x20shape" hides no copy.
SINGLE_HOME = (
    "has shape",
    "condition check broke down:",
    "must be a finite number",
    "must be true or false",
    "Thompson ratio pencil",
)


def string_constants(source: str) -> list:
    """Each str constant of a module's source, as Python reads it; an
    f-string's literal parts are constants of their own."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


@pytest.mark.parametrize("message", SINGLE_HOME)
def test_single_home_messages_occur_once(message):
    found = [
        (name, text)
        for name, path in zip(MODULE_IDS, MODULES)
        for text in string_constants(path.read_text())
        for _ in range(text.count(message))
    ]
    assert len(found) == 1, found


@pytest.mark.parametrize(
    "source",
    [
        'raise ShapeError(f"{name} has shape {arr.shape}")',
        '"has\\x20shape"',
        '"has " "shape"',
        '"""A matrix that has shape (n, n)."""',
        'message = f"{name}: {\'has shape\'}"',
    ],
)
def test_the_message_rule_sees_every_spelling(source):
    assert sum(text.count("has shape") for text in string_constants(source)) == 1

"""No module of windcast imports a name at module level that it never uses.

A stand-in for pyflakes' F401 check, built on ``ast``: a name bound by a
module-level import must be read somewhere in its module. An import line
marked ``# noqa: F401`` is a deliberate re-export and is exempt.
"""

import ast
import pathlib

import pytest

import windcast

SRC = pathlib.Path(windcast.__file__).parent


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import binding in ``source`` that no
    other node of the module reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a import b, c  # noqa: F401\n"
              "from .x import (\n    y,\n    z,\n)\nprint(np.pi, z)\n")
    assert unused_imports(source) == [(1, "os"), (4, "y")]

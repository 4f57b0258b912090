"""No module of windcast imports a name at module level that it never uses,
and no module defines a name that nothing reads.

A stand-in for pyflakes' F401 check, built on ``ast``: a name bound by a
module-level import must be read somewhere in its module. An import line
marked ``# noqa: F401`` is a deliberate re-export and is exempt. A
module-level function, class or constant must be read, as a name or an
attribute, somewhere in the package outside its own definition: code that
only the tests read lives in the tests.
"""

import ast
import pathlib

import pytest

import windcast

SRC = pathlib.Path(windcast.__file__).parent
TESTS = pathlib.Path(__file__).parent


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


def _reads(node) -> set:
    """The names that ``node`` reads, as a name or as an attribute."""
    nodes = list(ast.walk(node))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unused_definitions(modules: dict, readers=()) -> list:
    """(module, line, name) of each module-level function, class or constant
    of the ``modules`` sources ({module: source}) that no other statement of
    them or of the ``readers`` sources reads."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    statements = [node for tree in trees.values() for node in tree.body]
    statements += [node for source in readers for node in ast.parse(source).body]
    reads = [_reads(node) for node in statements]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not any(name in read for other, read in zip(statements, reads)
                           if other is not node):
                    unused.append((module, node.lineno, name))
    return unused


def test_no_unused_definitions():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert unused_definitions(modules, readers) == []


def test_no_definitions_only_tests_read():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_definitions(modules) == []


def test_check_finds_an_unused_definition():
    module = ("LIMIT = 3\nPAIR, SPARE = 1, 2\nclass Spec:\n    pass\n\n"
              "def loop(n):\n    return loop(n - 1) if n else LIMIT\n\n"
              "def used():\n    return PAIR\n")
    reader = "import m\nprint(m.used(), Spec)\n"
    assert unused_definitions({"m.py": module}, [reader]) == [
        ("m.py", 2, "SPARE"), ("m.py", 6, "loop")]
    assert unused_definitions({"m.py": module}) == [
        ("m.py", 2, "SPARE"), ("m.py", 3, "Spec"), ("m.py", 6, "loop"), ("m.py", 9, "used")]

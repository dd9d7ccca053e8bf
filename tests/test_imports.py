"""Every import is read: a stdlib-``ast`` check over the package, the tests
and the demos.  The package's ``__init__`` re-exports its names, so it is
exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "demos")
EXEMPT = {Path("src/netmimo/__init__.py")}


def unused_imports(source: str) -> list:
    """(line, name) of each name a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nprint(np.pi, loads)\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


def test_every_import_is_read():
    found = []
    for folder in CHECKED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            relative = path.relative_to(ROOT)
            if relative not in EXEMPT:
                found += [f"{relative}:{line} {name}" for line, name in unused_imports(path.read_text())]
    assert not found, found

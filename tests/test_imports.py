"""Every import is read, every private helper and every constant is used,
and only ``linalg`` knows the constraint-weight format and calls
numpy.linalg: stdlib-``ast`` checks.  The import check covers the package,
the tests and the demos; the package's ``__init__`` re-exports its names,
so it is exempt.  The helper and constant checks cover the module-level
private functions and UPPER_CASE names of the package, which the package
itself must read.  Importing the package leaves numpy.linalg as it is."""

import ast
import os
import subprocess
import sys
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


def private_functions(source: str) -> list:
    """(line, name) of each module-level function whose name starts with _."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]


def read_names(source: str) -> set:
    """Every name a module reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_the_check_sees_an_orphaned_helper():
    source = "def _used():\n    return 1\n\n\ndef _orphan():\n    return _used()\n"
    assert private_functions(source) == [(1, "_used"), (5, "_orphan")]
    assert {name for _, name in private_functions(source)} - read_names(source) == {"_orphan"}


def unread_in_package(definitions) -> list:
    """"path:line name" of each name ``definitions`` finds in a package
    module that no package module reads."""
    sources = {path.relative_to(ROOT): path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    read = set().union(*map(read_names, sources.values()))
    return [f"{relative}:{line} {name}" for relative, source in sources.items()
            for line, name in definitions(source) if name not in read]


def test_every_private_helper_is_read():
    found = unread_in_package(private_functions)
    assert not found, found


def module_constants(source: str) -> list:
    """(line, name) of each UPPER_CASE name a module assigns at module level."""
    found = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return found


def test_the_check_sees_an_unread_constant():
    source = "LIMIT = 3\nSTEP: float = 0.1\nname = 'x'\n\n\ndef f():\n    return LIMIT, name\n"
    assert module_constants(source) == [(1, "LIMIT"), (2, "STEP")]
    assert {name for _, name in module_constants(source)} - read_names(source) == {"STEP"}


def test_every_module_constant_is_read():
    found = unread_in_package(module_constants)
    assert not found, found


def format_branches(source: str) -> list:
    """(line, name) of each comparison of a name or attribute ending in
    ``supports`` with None: a choice by constraint-weight format."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                names = [o.id if isinstance(o, ast.Name) else o.attr if isinstance(o, ast.Attribute) else ""
                         for o in operands]
                found += [(node.lineno, name) for name in names if name.endswith("supports")]
    return sorted(found)


def test_the_check_sees_a_format_branch():
    source = ("a = 1 if supports is None else 2\nif sets.supports is not None:\n    pass\n"
              "b = supports == 0\nc = weights is None\n")
    assert format_branches(source) == [(1, "supports"), (2, "supports")]


def test_only_linalg_branches_on_the_constraint_format():
    found = [f"{path.relative_to(ROOT)}:{line} {name}" for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "linalg.py" for line, name in format_branches(path.read_text())]
    assert not found, found


def numpy_linalg_uses(source: str) -> list:
    """(line, name) of each use of numpy.linalg other than ``norm``: an
    attribute ``np.linalg.X`` or ``numpy.linalg.X``, or an import of or from
    ``numpy.linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr != "norm" and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name) \
                and node.value.value.id in ("np", "numpy"):
            found.append((node.lineno, f"{node.value.value.id}.linalg.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("numpy.linalg")]
    return sorted(found)


def test_the_check_sees_a_numpy_linalg_call():
    source = ("import numpy as np\nimport numpy.linalg\nfrom numpy.linalg import solve\n"
              "x = np.linalg.solve(a, b)\ny = np.linalg.norm(x)\nerror = numpy.linalg.LinAlgError\n"
              "z = linalg.inv(a)\n")
    assert numpy_linalg_uses(source) == [(2, "numpy.linalg"), (3, "numpy.linalg"), (4, "np.linalg.solve"),
                                         (6, "numpy.linalg.LinAlgError")]


def test_only_linalg_calls_numpy_linalg():
    # every factorization goes through the one LAPACK layer in linalg.py
    found = [f"{path.relative_to(ROOT)}:{line} {name}" for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "linalg.py" for line, name in numpy_linalg_uses(path.read_text())]
    assert not found, found


def test_importing_netmimo_leaves_numpy_linalg_as_it_is():
    # the layer calls numpy's gufuncs itself; it patches nothing in numpy.linalg
    check = ("import numpy.linalg as la\nbefore = dict(vars(la))\nimport netmimo\nafter = vars(la)\n"
             "assert after.keys() == before.keys(), after.keys() ^ before.keys()\n"
             "assert all(after[name] is value for name, value in before.items())\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr

"""Every name a module under src/ or tests/ imports is used in that module,
and every private module-level name defined under src/ is read there.
Importing the package leaves mpmath unloaded.  Public names have their
own check, in test_public_surface.py.

Package __init__ modules re-export on purpose and are left out, as are
names listed in a module's __all__ and __future__ imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, in source order."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations ("CosSum") name their types in a string
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    skip = used | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in skip)


def test_checker_flags_only_unread_names():
    src = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from math import gcd, pi\n"
        "import json\n"
        "__all__ = ['pi']\n"
        "def f(x: 'Fraction') -> int:\n"
        "    return gcd(x, os.sep)\n"
        "from fractions import Fraction\n"
    )
    assert unused_imports(src) == [(2, "osp"), (4, "json")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _module_level_names(tree: ast.Module):
    """(line, name) of each function, class and assigned name at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield node.lineno, n.id


def _read_names(trees) -> set:
    """Names loaded, loaded as an attribute (``_kernels._TOL_VALUE``) or
    imported by name in any of the trees."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level _name that no module reads.

    A name counts as read when it is loaded, loaded as an attribute or
    imported by name, in any of the sources.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = _read_names(trees.values())
    return sorted(
        (mod, line, name)
        for mod, tree in trees.items()
        for line, name in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_private_name_checker_flags_only_unread_names():
    sources = {
        "a": (
            "_local = 1\n"
            "_attr, _unread = 2, 3\n"
            "_imported: int = 4\n"
            "__dunder__ = 5\n"
            "public = _local\n"
            "def _dead():\n"
            "    _inner = 6\n"
            "class _Gone:\n"
            "    pass\n"
        ),
        "b": (
            "from a import _imported\n"
            "import a\n"
            "a._attr\n"
            "_dead = 7\n"
        ),
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_unread"), ("a", 6, "_dead"), ("a", 8, "_Gone"), ("b", 4, "_dead"),
    ]


def test_no_unread_private_names():
    sources = {
        str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))
    }
    assert unread_private_names(sources) == []


def _run_src(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_package_import_leaves_mpmath_unloaded():
    # mpmath takes about 3.7 MB of memory; only the high-precision paths
    # (CosSum.mp_value, compare on a nonzero difference whose floats are not
    # separated) import it
    code = ("import sys; import fricke_orbits.cli, fricke_orbits.orbit_search; "
            "sys.exit('mpmath' in sys.modules)")
    assert _run_src(code).returncode == 0


def test_search_verify_and_graph_leave_mpmath_unloaded():
    # every equality they decide is separated on floats or exact, and
    # angle labels find their angle through == alone
    code = (
        "import sys\n"
        "from fricke_orbits.cli import main\n"
        "for argv in (['search', '--threads', '1'], ['verify', '--threads', '1'],\n"
        "             ['graph', '45']):\n"
        "    assert main(argv) == 0, argv\n"
        "    print('loaded after', argv[0], 'mpmath' in sys.modules, file=sys.stderr)\n"
    )
    run = _run_src(code)
    assert run.returncode == 0, run.stderr
    assert [line for line in run.stderr.splitlines() if line.startswith("loaded")] == [
        "loaded after search False", "loaded after verify False", "loaded after graph False"]

"""The package reads one environment variable, FRICKE_THREADS, in one
place: orbit_search._threads_from_env.  A read of os.environ or os.getenv
anywhere else under src/ would be a second knob.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = {"environ", "getenv", "getenvb", "environb"}
ALLOWED = ("orbit_search.py", "_threads_from_env")


def environment_reads(source: str) -> list:
    """(enclosing function, line) of every os.environ or os.getenv read,
    written as an attribute of os or imported from os by name."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr in READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os") or (
                isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in READERS for a in node.names)):
            out.append((scope[-1] if scope else "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_checker_flags_environment_reads():
    src = (
        "import os\n"
        "from os import getenv as g, path\n"
        "def backend_name():\n"
        "    return os.environ.get('FRICKE_ORBITS_BACKEND', '')\n"
        "class A:\n"
        "    def f(self):\n"
        "        return os.getenv('X'), os.cpu_count(), os.path.join('a'), environ\n"
        "HOME = os.environ['HOME']\n"
    )
    assert environment_reads(src) == [
        ("<module>", 2), ("backend_name", 4), ("f", 7), ("<module>", 8),
    ]


def test_only_threads_from_env_reads_the_environment():
    found = [
        (p.name, func, line)
        for p in sorted((ROOT / "src").rglob("*.py"))
        for func, line in environment_reads(p.read_text())
    ]
    assert [f for f in found if f[:2] != ALLOWED] == []
    assert [f[:2] for f in found] == [ALLOWED]

"""Every public name under src/ has a reader under src/, or a stated reason.

A public top-level function, class or upper-case constant defined in a
module under src/ (package __init__ modules left out) must be read by some
module under src/: loaded, loaded as an attribute or imported by name.
Names read only from outside src/ are listed in ALLOWED with what reads
them.  Helpers that only a test reads live in that test, not in the
package.  An ALLOWED entry that src/ now reads, or whose name is no longer
defined, is stale and fails too.
"""

import ast
from pathlib import Path

from test_imports import _module_level_names, _read_names

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "act": "criteria 06b and 06d act on matrix triples",
    "backend_name": "perfbench/worker.py records the backend",
    "class_counter": "criterion 03's frozen counters (test_orbit_search) and perfbench/inputs.py",
    "classify_special": "the exact oracle of the float-size family tally (test_orbit_search)",
    "close_float": "perfbench workloads.py and freeze.py re-close seeds; test_orbit_search runs its worked example",
    "closed_form": "criterion 06c checks the suborbit closed forms",
    "golden_match": "perfbench workloads.py, freeze.py, spans.py and run.py match the 45 rows",
    "make_point": "criteria 04 and 08 build their points",
    "random_triple": "criteria 06b and 06d draw matrix triples",
    "reconstruct": "criterion 06d reconstructs triples from traces",
    "suborbit": "criterion 06c walks the two-color suborbits",
    "suborbit_parity_checks": "criterion 06c checks the parity identities",
    "xi_root_check": "criterion 07 checks the cubic's roots",
    "xi_roots": "criterion 07 evaluates the cubic's roots from theta",
}


def unread_public_names(sources: dict) -> list:
    """(module, line, name) of each public top-level function, class and
    upper-case constant that no module in sources reads; definitions in
    __init__.py modules are left out, but they count as readers."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = _read_names(trees.values())
    out = []
    for mod, tree in trees.items():
        if Path(mod).name == "__init__.py":
            continue
        defs = {n.name for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        out += [(mod, line, name) for line, name in _module_level_names(tree)
                if not name.startswith("_") and (name in defs or name.isupper())
                and name not in read]
    return sorted(out)


def surface_violations(sources: dict, allowed: dict):
    """(unread names missing from allowed, stale entries of allowed)."""
    unread = unread_public_names(sources)
    names = {name for _, _, name in unread}
    return [u for u in unread if u[2] not in allowed], sorted(set(allowed) - names)


def _src_sources() -> dict:
    return {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}


def test_checker_flags_only_unread_public_names():
    sources = {
        "a.py": (
            "def called():\n"
            "    return LIMIT\n"
            "def unread():\n"
            "    INNER = 1\n"
            "class Unread:\n"
            "    pass\n"
            "class _Private:\n"
            "    pass\n"
            "LIMIT, CAP = 1, 2\n"
            "alias = int\n"
            "KEPT = 3\n"
            "GONE = 4\n"
            "TYPED: int = 5\n"
            "Mixed = 6\n"
            "called()\n"
        ),
        "b.py": "import a\na.KEPT\nfrom a import Unread as U\n",
        "pkg/__init__.py": "def exported():\n    pass\n",
    }
    assert unread_public_names(sources) == [
        ("a.py", 3, "unread"), ("a.py", 9, "CAP"), ("a.py", 12, "GONE"), ("a.py", 13, "TYPED"),
    ]
    allowed = {"unread": "r", "KEPT": "r", "missing": "r"}
    assert surface_violations(sources, allowed) == (
        [("a.py", 9, "CAP"), ("a.py", 12, "GONE"), ("a.py", 13, "TYPED")], ["KEPT", "missing"],
    )


def test_every_public_name_has_a_src_reader_or_a_reason():
    unlisted, _ = surface_violations(_src_sources(), ALLOWED)
    assert unlisted == []
    assert all(ALLOWED.values())


def test_allowlist_has_no_stale_entry():
    _, stale = surface_violations(_src_sources(), ALLOWED)
    assert stale == []

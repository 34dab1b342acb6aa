"""Static hygiene of the package sources: every import is used, every
private helper, every public module-level function and class and every
dataclass field is read somewhere in the package, and importing the package
loads no scipy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bwcr"


def _unused_imports(source: str) -> list:
    """Names bound by an import statement (anywhere in the module, local
    imports included) that no expression of the module reads.  A name counts
    as read when it appears as a bare name or as the root of an attribute
    chain; the package declares no ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_detector_flags_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Callable, Optional\n"
                           "x: Optional[int] = os.sep\n") == ["Callable (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _orphaned_defs(sources: dict) -> list:
    """Private functions, methods and classes (a ``_`` prefix, dunders
    excepted) and public module-level functions and classes defined in
    ``sources`` (file name -> text) that no expression in any of them reads,
    as a bare name or as an attribute.  A test oracle with no caller in the
    package belongs in the tests."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, read = [], set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        defined += [(node.name, fname, node.lineno) for node in tree.body
                    if isinstance(node, defs) and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, defs):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((node.name, fname, node.lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{name} ({fname}, line {line})" for name, fname, line in defined
                  if name not in read)


def test_detector_flags_an_unused_private_helper():
    sources = {"a.py": "def _used():\n    pass\ndef _orphan():\n    pass\n"
                       "class _Box:\n    def __init__(self):\n        pass\n"
                       "    def _peek(self):\n        pass\n"
                       "_orphan = _used()\n",
               "b.py": "def f(box):\n    return box._peek\nf(None)\n"}
    assert _orphaned_defs(sources) == ["_Box (a.py, line 5)", "_orphan (a.py, line 3)"]


def test_detector_flags_an_unused_public_def():
    # methods count only when private; module-level names count either way
    sources = {"a.py": "class Cell:\n    def peek(self):\n        pass\n"
                       "def oracle():\n    pass\n"
                       "def g():\n    return Cell()\n",
               "b.py": "from a import g\nx = g().peek\n"}
    assert _orphaned_defs(sources) == ["oracle (a.py, line 4)"]


def _package_orphans():
    return _orphaned_defs({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})


def test_no_orphaned_private_helpers():
    assert [o for o in _package_orphans() if o.startswith("_")] == []


def test_no_orphaned_public_defs():
    assert [o for o in _package_orphans() if not o.startswith("_")] == []


def _unread_fields(sources: dict) -> list:
    """Fields of the dataclasses defined in ``sources`` (file name -> text)
    that no expression in any of them reads as an attribute.  A field that
    is only written is dead state."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    fields, read = [], set()
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
                fields += [(node.name, stmt.target.id, fname, stmt.lineno) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{cls}.{name} ({fname}, line {line})" for cls, name, fname, line in fields
                  if name not in read)


def test_detector_flags_an_unread_dataclass_field():
    # written by the constructor and by assignment, never read: flagged;
    # plain classes and fields read anywhere in the package are not
    sources = {"a.py": "from dataclasses import dataclass\n"
                       "@dataclass(frozen=True)\nclass Result:\n    value: float\n"
                       "    duals: list = None\n"
                       "@dataclass\nclass State:\n    t: int\n"
                       "class Plain:\n    extra: int\n",
               "b.py": "import a\nr = a.Result(1.0, [])\nst = a.State(0)\nst.t = r.value\n"}
    assert _unread_fields(sources) == ["Result.duals (a.py, line 5)", "State.t (a.py, line 8)"]


def test_no_unread_dataclass_fields():
    assert _unread_fields({path.name: path.read_text()
                           for path in sorted(SRC.glob("*.py"))}) == []


def test_package_import_loads_no_scipy():
    # scipy belongs to the test and bench extras; the package must not load it
    code = ("import sys, bwcr.harness, bwcr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"

"""Static hygiene of the package sources: every import is used."""
import ast
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

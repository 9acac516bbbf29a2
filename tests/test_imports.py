"""Every name a module of the package imports is used in that module.

A deletion can leave an import behind that nothing reads any more. Each
module is parsed with ``ast``; a name it imports must appear elsewhere in it:
in code, in ``__all__``, or in the source text of a generated function (a
string constant that is not a docstring).
"""
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rotwave"


def docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of the module, its classes and its functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported, read, text = [], set(), []
    skip = docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            text.append(node.value)
    words = set(re.findall(r"[A-Za-z_]\w*", "\n".join(text)))
    return [name for name in imported if name not in read and name not in words]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_import_read_only_in_a_docstring_is_unused():
    source = '''"""Uses ``Callable``."""
import math
from collections.abc import Callable, Sequence
from .errors import DomainError

__all__ = ["Sequence"]
SOURCE = "raise DomainError"


def f():
    """``math``"""
'''
    assert unused_imports(source) == ["math", "Callable"]

"""Source checks on src/pncomp and tests: no module imports a name it
never uses.

No linter is part of the toolchain, so this is a small `ast` check.  Every
name an `import` or `from ... import` binds must be read somewhere in the
module: as a name, the root of an attribute chain, or an entry of
`__all__`.  `from __future__ import ...` binds nothing and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "pncomp").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # __all__ = [...] re-exports its names
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read]


def test_checker_finds_leftovers():
    source = ("from __future__ import annotations\n"
              "from dataclasses import dataclass, field\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .numerics import CVec, fft\n"
              "__all__ = ['fft']\n"
              "x: CVec = np.zeros(3)\n"
              "y = field\n")
    assert unused_imports(source) == ["dataclass", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

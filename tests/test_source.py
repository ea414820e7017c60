"""Source checks on src/pncomp, tests and the README: no module imports
a name it never uses, and every pncomp name the README cites exists.

No linter is part of the toolchain, so the first is a small `ast` check.
Every name an `import` or `from ... import` binds must be read somewhere
in the module: as a name, the root of an attribute chain, or an entry of
`__all__`.  `from __future__ import ...` binds nothing and is skipped.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pncomp"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


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


def readme_references(text: str) -> list[str]:
    """Each inline code span of Markdown text that starts with
    `module.name`, module one of pncomp's, as "module.name", in order.
    Fenced blocks are skipped; a span may wrap across lines."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    refs = [re.match(r"(\w+)\.(\w+)", span) for span in spans]
    return [ref[0] for ref in refs if ref and ref[1] in modules]


def unresolved(refs: list[str]) -> list[str]:
    """The "module.name" references that name nothing in pncomp."""
    return [ref for ref in refs if not hasattr(
        importlib.import_module("pncomp." + ref.split(".")[0]),
        ref.split(".")[1])]


def test_reference_checker_finds_stale_names():
    text = ("`mimo.MuSystem` and `mimo.zf_beamformer(lam)` of\n"
            "`np.sum` and `pncomp.mimo`; `harness._channel_symbols` wraps\n"
            "`ofdm.evm_db(est,\nref)`\n```sh\nx = `channel.Gone`\n```\n")
    refs = readme_references(text)
    assert refs == ["mimo.MuSystem", "mimo.zf_beamformer",
                    "harness._channel_symbols", "ofdm.evm_db"]
    assert unresolved(refs) == ["mimo.MuSystem"]


def test_readme_references_resolve():
    refs = readme_references((ROOT / "README.md").read_text())
    assert refs, "no module.name reference found"
    assert unresolved(refs) == []

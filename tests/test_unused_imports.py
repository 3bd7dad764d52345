"""Every name a library module imports is used somewhere in that module.

``__init__.py`` is skipped: it imports names to re-export them.  Names
read inside quoted annotations count as used.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ultraconv"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def unused_imports(source: str):
    """Imported names the module never reads, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as js\n"
              "from typing import List, Optional, Sequence\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["js", "Sequence"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []

"""Every name a package module imports is read in that module."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coopbc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# bench/tracing.py wraps `campaign` at each module that holds it, and lists
# coopbc.metrics and coopbc.mc among those sites, although neither calls it;
# the benchmark cannot run without them
ALLOWED = {("metrics", "campaign"), ("mc", "campaign")}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_scan_finds_an_unused_import():
    assert unused_imports("from dataclasses import dataclass, replace\n@dataclass\nclass A: pass\n"
                          ) == {"replace"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    unused = {name for name in unused_imports(module.read_text())
              if (module.stem, name) not in ALLOWED}
    assert not unused, f"{module.name} imports {sorted(unused)} without reading them"

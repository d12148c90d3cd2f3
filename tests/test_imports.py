"""Every name a package module imports is read in that module, and a
module imports another's private names only where it is allowed to."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coopbc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# bench/tracing.py wraps `campaign` at each module that holds it, and lists
# coopbc.metrics and coopbc.mc among those sites, although neither calls it;
# the benchmark cannot run without them
ALLOWED = {("metrics", "campaign"), ("mc", "campaign")}

# The `_`-prefixed names one package module may import from another, as
# (importer, source, name). A private name is its module's own rule; a second
# module that needs it is listed here on purpose
PRIVATE_ALLOWED = {("mc", "af", "_finals"), ("mc", "df", "_slice_axis"), ("mc", "df", "_unit_bits")}

# The modules outside the package that `import coopbc.cli` may load once numpy
# is loaded. Every module imported at start-up is compiled and run by every
# CLI call and every benchmark set-up, so a new one must be added here on
# purpose.
STARTUP_MODULES = {"__future__", "argparse", "configparser", "copy", "dataclasses", "gettext"}


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


def private_imports(importer: str, source: str) -> set[tuple[str, str, str]]:
    """(importer, source module, name) of every private name, `_`-prefixed
    but not a dunder, that the importer's source imports from a sibling
    module of the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("coopbc.")):
            origin = (node.module or "").rpartition(".")[2]
            found.update((importer, origin, a.name) for a in node.names
                         if a.name.startswith("_") and not a.name.endswith("__"))
    return found


def test_scan_finds_an_unused_import():
    assert unused_imports("from dataclasses import dataclass, replace\n@dataclass\nclass A: pass\n"
                          ) == {"replace"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    unused = {name for name in unused_imports(module.read_text())
              if (module.stem, name) not in ALLOWED}
    assert not unused, f"{module.name} imports {sorted(unused)} without reading them"


def test_scan_finds_a_private_import():
    source = ("from . import __version__\nfrom .df import _label_bits, qam\n"
              "from coopbc.af import _finals\nfrom numpy import _core\n")
    assert private_imports("mc", source) == {("mc", "df", "_label_bits"), ("mc", "af", "_finals")}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_private_imports_are_allowed(module):
    extra = private_imports(module.stem, module.read_text()) - PRIVATE_ALLOWED
    assert not extra, f"{module.name} imports private names {sorted(extra)}"


def test_every_allowed_private_import_is_made():
    made = set().union(*(private_imports(m.stem, m.read_text()) for m in MODULES))
    assert PRIVATE_ALLOWED <= made, f"allowed but not imported: {sorted(PRIVATE_ALLOWED - made)}"


def test_cli_import_loads_only_the_known_modules():
    script = ("import json, sys, numpy; before = set(sys.modules); import coopbc.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert res.returncode == 0, res.stderr
    loaded = set(json.loads(res.stdout))
    assert "coopbc.cli" in loaded
    extra = {m for m in loaded if m != "coopbc" and not m.startswith("coopbc.")} - STARTUP_MODULES
    assert not extra, f"import coopbc.cli loads {sorted(extra)}"

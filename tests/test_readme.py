"""The README's library quick start runs unchanged against the package."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert all(float(v) > 0.0 for v in line.split())

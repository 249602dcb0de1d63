"""The README's library quick tour runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "the quick tour has no python block"
    exec(compile(block.group(1), "README.md quick tour", "exec"), {})

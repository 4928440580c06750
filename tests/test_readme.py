"""The README's library example runs as written against the public API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_in_one_minute_runs():
    section = README.read_text(encoding="utf-8").split("## Library in one minute", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})

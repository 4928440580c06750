"""The README's library example runs as written against the public API, and
its list of caps states the constants the checkers use."""

from __future__ import annotations

import re
from pathlib import Path

from cetcs import axioms

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_in_one_minute_runs():
    section = README.read_text(encoding="utf-8").split("## Library in one minute", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def test_cap_bullets_state_the_constants():
    text = README.read_text(encoding="utf-8")
    caps = text.split("Five caps check less than the", 1)[1].split("One floor", 1)[0]
    # each bullet gives a cap as "at most N (`NAME`)" or "N steps (`NAME`)"
    stated = {name: int(n) for n, name in re.findall(r"(\d+)(?: steps)?\s+\(`(\w+)`\)", caps)}
    assert stated == {name: getattr(axioms, name) for name in (
        "SUM_DIAGRAM_CAP", "SMALL_SQUARE_CAP",
        "COMPETITOR_PAIR_CAP", "COMPETITOR_APEX_CAP", "UNROLLED_STEPS")}

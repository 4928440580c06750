"""Check outcomes and their deterministic rendering.

A Report records one checked item: its verdict, how many instances were
enumerated, an optional structured witness (present on failure, or carrying
a reason on skip) and the wall-clock time spent.  Timing is measured but
excluded from rendered output unless explicitly requested, so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import ReportError

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
VERDICTS = (PASS, FAIL, SKIP)


class _Label:
    """The ``item`` field: text, or a zero-argument function rendering it.

    A function is called when the field is first read, and its text
    replaces it, so a label nobody reads is never rendered.  Every read,
    equality and rendering included, sees the text.
    """

    def __get__(self, obj, objtype=None) -> str:
        if obj is None:
            # class access: the field has no default
            raise AttributeError("item")
        value = obj.__dict__["_item"]
        if callable(value):
            value = obj.__dict__["_item"] = value()
        return value


@dataclass(frozen=True, init=False)
class Report:
    item: str = _Label()
    verdict: str
    witness: Mapping | None
    instances_checked: int
    elapsed: float | None = None

    def __init__(self, item: str | Callable[[], str], verdict: str, witness: Mapping | None,
                 instances_checked: int, elapsed: float | None = None) -> None:
        # One update, not a frozen dataclass's object.__setattr__ per field:
        # the checkers build a Report per instance on some paths.
        self.__dict__.update(_item=item, verdict=verdict, witness=witness,
                             instances_checked=instances_checked, elapsed=elapsed)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "item": self.item,
            "verdict": self.verdict,
            "witness": dict(self.witness) if self.witness is not None else None,
            "instances_checked": self.instances_checked,
            "elapsed": self.elapsed if include_timing else None,
        }

    def text_line(self, include_timing: bool = False) -> str:
        line = f"{self.verdict.upper():<4} {self.item} instances={self.instances_checked}"
        if self.witness is not None:
            line += " witness=" + json.dumps(
                dict(self.witness), sort_keys=True, separators=(",", ":"),
                ensure_ascii=False,
            )
        if include_timing and self.elapsed is not None:
            line += f" elapsed={self.elapsed:.3f}s"
        return line


def from_dict(data: Mapping) -> Report:
    """Rebuild a report saved by ``to_dict``; raises ReportError on bad data."""
    if not isinstance(data, Mapping):
        raise ReportError(f"a saved report must be an object, got {data!r}")
    for key in ("item", "verdict"):
        if key not in data:
            raise ReportError(f"saved report lacks the key {key!r}")
    item, verdict = data["item"], data["verdict"]
    witness = data.get("witness")
    instances = data.get("instances_checked", 0)
    elapsed = data.get("elapsed")
    if not isinstance(item, str):
        raise ReportError(f"item must be a string, got {item!r}")
    if verdict not in VERDICTS:
        raise ReportError(
            f"unknown verdict {verdict!r} for {item!r} "
            f"(known: {', '.join(VERDICTS)})"
        )
    if witness is not None and not isinstance(witness, Mapping):
        raise ReportError(f"witness of {item!r} must be an object or null")
    try:
        # Python's json reads NaN and 1e400 (inf); written back they are not JSON
        json.dumps(witness, allow_nan=False)
    except ValueError:
        raise ReportError(f"witness of {item!r} must hold only finite numbers") from None
    if isinstance(instances, bool) or not isinstance(instances, int) or instances < 0:
        raise ReportError(
            f"instances_checked of {item!r} must be a count, got {instances!r}"
        )
    if elapsed is not None and (
        isinstance(elapsed, bool) or not isinstance(elapsed, (int, float))
        or not 0 <= elapsed < math.inf
    ):
        raise ReportError(
            f"elapsed of {item!r} must be a number of seconds, finite and not "
            f"negative, or null; got {elapsed!r}"
        )
    return Report(item, verdict, witness, instances, elapsed)


def render_text(reports: Iterable[Report], include_timing: bool = False) -> str:
    return "\n".join(r.text_line(include_timing) for r in reports) + "\n"


def render_json(reports: Iterable[Report], include_timing: bool = False) -> str:
    payload = [r.to_dict(include_timing) for r in reports]
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def exit_code(reports: Iterable[Report]) -> int:
    return 1 if any(r.failed for r in reports) else 0

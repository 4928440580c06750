"""Line-oriented declaration files for carriers, maps and relations.

The syntax is hand-writable and diff-friendly::

    # comment
    object X = {a, b}
    object Y = {u}
    morphism f : X -> Y { a |-> u, b |-> u }
    relation r <| (X, Y) = { (a, u) }

Blank lines and ``#`` comments are ignored.  Labels are bare words; a
balanced parenthesized group such as ``(a,u)`` also counts as a single
label, so constructed carriers (products, sums) round-trip.  No label may
contain ``|->``, which a morphism's table puts between a label and its
image: a rendered map from such a carrier could not be read back.
Diagnostics carry the one-based line number of the offending declaration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ModelFileError
from .finset import FinMor, FinObj
from .logic import Env
from .relcalc import Relation, relation_from_tuples

_OBJECT = re.compile(r"object\s+(\w+)\s*=\s*\{(.*)\}\s*$")
_MORPHISM = re.compile(r"morphism\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*=?\s*\{(.*)\}\s*$")
_RELATION = re.compile(r"relation\s+(\w+)\s*<\|\s*\((.*?)\)\s*=\s*\{(.*)\}\s*$")


@dataclass(frozen=True)
class ModelFile:
    """Validated declarations, in file order within each kind."""

    objects: dict[str, FinObj] = field(default_factory=dict)
    morphisms: dict[str, FinMor] = field(default_factory=dict)
    relations: dict[str, Relation] = field(default_factory=dict)

    def env(self) -> Env:
        return Env(objects=self.objects, relations=self.relations, morphisms=self.morphisms)


def _split_top(text: str, line: int) -> list[str]:
    """Split on commas outside any (), {} nesting; strip the pieces."""
    pieces: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise ModelFileError("unbalanced brackets", line)
        if ch == "," and depth == 0:
            pieces.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ModelFileError("unbalanced brackets", line)
    tail = "".join(current).strip()
    if tail:
        pieces.append(tail)
    if any(not p for p in pieces):
        raise ModelFileError("empty item in list", line)
    return pieces


def _parse_row(item: str, arity: int, line: int) -> tuple[str, ...]:
    """Read one row; the declared arity disambiguates parenthesized labels."""
    if arity == 1:
        return (item,)
    if item.startswith("(") and item.endswith(")"):
        return tuple(_split_top(item[1:-1], line))
    raise ModelFileError(f"expected a parenthesized row, got {item!r}", line)


def parse_model(text: str) -> ModelFile:
    objects: dict[str, FinObj] = {}
    morphisms: dict[str, FinMor] = {}
    relations: dict[str, Relation] = {}

    def lookup(name: str, line: int) -> FinObj:
        if name not in objects:
            raise ModelFileError(f"reference to undeclared object {name!r}", line)
        return objects[name]

    def fresh(name: str, line: int) -> None:
        if name in objects or name in morphisms or name in relations:
            raise ModelFileError(f"duplicate declaration of {name!r}", line)

    for line, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if m := _OBJECT.match(stripped):
            name, body = m.groups()
            fresh(name, line)
            labels = tuple(_split_top(body, line))
            if len(set(labels)) != len(labels):
                raise ModelFileError(f"object {name!r} repeats a label", line)
            for lbl in labels:
                if "|->" in lbl:
                    raise ModelFileError(f"label {lbl!r} contains '|->'", line)
            objects[name] = FinObj(labels)
        elif m := _MORPHISM.match(stripped):
            name, dom_name, cod_name, body = m.groups()
            fresh(name, line)
            dom = lookup(dom_name, line)
            cod = lookup(cod_name, line)
            mapping: dict[str, str] = {}
            for item in _split_top(body, line):
                parts = item.split("|->")
                if len(parts) != 2:
                    raise ModelFileError(f"expected 'label |-> label', got {item!r}", line)
                src, dst = parts[0].strip(), parts[1].strip()
                if src not in dom:
                    raise ModelFileError(f"{src!r} is not in {dom_name}", line)
                if dst not in cod:
                    raise ModelFileError(f"{dst!r} is not in {cod_name}", line)
                if src in mapping:
                    raise ModelFileError(f"{src!r} is mapped twice", line)
                mapping[src] = dst
            missing = [x for x in dom.labels if x not in mapping]
            if missing:
                raise ModelFileError(
                    f"morphism {name!r} is not total: missing {missing[0]!r}", line
                )
            morphisms[name] = FinMor(dom, cod, tuple(mapping[x] for x in dom.labels))
        elif m := _RELATION.match(stripped):
            name, sorts_body, body = m.groups()
            fresh(name, line)
            sort_names = _split_top(sorts_body, line)
            cods = tuple(lookup(s, line) for s in sort_names)
            rows: list[tuple[str, ...]] = []
            seen: set[tuple[str, ...]] = set()
            for item in _split_top(body, line):
                row = _parse_row(item, len(cods), line)
                if len(row) != len(cods):
                    raise ModelFileError(
                        f"row {item!r} has arity {len(row)}, expected {len(cods)}", line
                    )
                for entry, sort_name, cod in zip(row, sort_names, cods):
                    if entry not in cod:
                        raise ModelFileError(
                            f"{entry!r} is not in {sort_name}", line
                        )
                if row in seen:
                    raise ModelFileError(
                        f"relation {name!r} is not jointly monic: "
                        f"row {item!r} appears twice", line
                    )
                seen.add(row)
                rows.append(row)
            relations[name] = relation_from_tuples(rows, cods)
        else:
            raise ModelFileError(
                "expected an object, morphism or relation declaration", line
            )
    return ModelFile(objects=objects, morphisms=morphisms, relations=relations)


def load(path: str) -> ModelFile:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ModelFileError(
                f"not UTF-8 text: {exc.reason} {exc.object[exc.start]:#04x}", line
            ) from None
    return parse_model(text)


# ---------------------------------------------------------------------------
# rendering (the inverse direction, used by the construct command)


def render_object(name: str, obj: FinObj) -> str:
    return f"object {name} = {{{', '.join(obj.labels)}}}"


def render_morphism(name: str, f: FinMor, dom: str, cod: str) -> str:
    entries = ", ".join(f"{x} |-> {y}" for x, y in zip(f.dom.labels, f.table))
    return f"morphism {name} : {dom} -> {cod} {{{entries}}}"


def render_relation(name: str, r: Relation, sorts: tuple[str, ...]) -> str:
    rows = ", ".join(
        row[0] if len(row) == 1 else "(" + ", ".join(row) + ")" for row in r.tuples
    )
    return f"relation {name} <| ({', '.join(sorts)}) = {{{rows}}}"

"""Signature-level categorical operations, independent of any one model.

Everything here is phrased against a minimal category handle: an object with
``compose``, ``terminal``, ``hom(a, b)`` and ``objects(bound)``.  The
finite-set model supplies ``cetcs.finset.FINSET``.  Two operations remain,
because the checkers use exactly these two: ``elements`` (the points of an
object, as maps from the terminal one) and ``is_mono`` (left cancellation).
Keeping the handle explicit means monicity is decided by honest
quantification over test objects and hom-sets, not by peeking at mapping
tables.  Table-level shortcuts live in ``finset`` and the agreement of the
two routes is itself one of the checked statements.

Quantification over "all" objects is necessarily bounded; ``bound`` caps the
size of test carriers.  In the finite-set model a bound of 1 already decides
monicity (points separate maps), so the small defaults are not a soundness
hole there, but the functions never assume it.
"""

from __future__ import annotations

from typing import Protocol


class Category(Protocol):
    def compose(self, g, f): ...

    def terminal(self): ...

    def hom(self, a, b): ...

    def objects(self, bound: int): ...


def elements(cat: Category, a) -> list:
    """The points of a: all morphisms from the terminal object."""
    return list(cat.hom(cat.terminal(), a))


def is_mono(cat: Category, f, bound: int = 2) -> bool:
    """Left-cancellability against all test objects of size <= bound.

    Parallel pairs into dom(f) are grouped by their composite with f; a
    group with two members is a cancellation failure.
    """
    for u in cat.objects(bound):
        seen: dict = {}
        for h in cat.hom(u, f.dom):
            key = cat.compose(f, h)
            if key in seen and seen[key] != h:
                return False
            seen[key] = h
    return True

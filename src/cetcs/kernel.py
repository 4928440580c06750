"""Points and monicity, decided by quantifying over hom-sets.

The checker instantiates one model, finite sets, so the two operations here
enumerate its hom-sets with ``all_maps`` and compose with ``compose``
directly: ``elements`` (the points of an object, as maps from the terminal
one) and ``is_mono`` (left cancellation).  Monicity is thereby decided by
honest quantification over test objects and hom-sets, never by peeking at
a mapping table: the table-level shortcut, ``FinMor.is_injective``, lives in
``finset``, and the agreement of the two routes is itself one of the
checked statements.

Quantification over "all" objects is necessarily bounded; ``bound`` caps the
size of test carriers.  In finite sets a bound of 1 already decides
monicity (points separate maps), so the small defaults are not a soundness
hole, but the functions never assume it.
"""

from __future__ import annotations

from .finset import FinMor, FinObj, all_maps, carrier_of_size, compose, terminal


def elements(a: FinObj) -> list[FinMor]:
    """The points of a: all morphisms from the terminal object."""
    return list(all_maps(terminal(), a))


def is_mono(f: FinMor, bound: int = 2) -> bool:
    """Left-cancellability against all test objects of size <= bound.

    Parallel pairs into dom(f) are grouped by their composite with f; a
    group with two members is a cancellation failure.
    """
    for u in [carrier_of_size(n) for n in range(bound + 1)]:
        seen: dict = {}
        for h in all_maps(u, f.dom):
            key = compose(f, h)
            if key in seen and seen[key] != h:
                return False
            seen[key] = h
    return True

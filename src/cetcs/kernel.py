"""Points and monicity, decided by quantifying over hom-sets.

The checker instantiates one model, finite sets, so the two operations here
enumerate its hom-sets with ``all_maps`` and compose with ``compose``
directly: ``elements`` (the points of an object, as maps from the terminal
one) and ``is_mono`` (left cancellation).  Monicity is thereby decided by
honest quantification over test objects and hom-sets, never by peeking at
a mapping table: f is mono when, for each test object u, the maps h from u
into dom f have pairwise distinct composites f∘h.  The table-level
shortcut, ``FinMor.is_injective``, lives in ``finset``, and the agreement
of the two routes is itself one of the checked statements.  Up to
isomorphism a mono is fixed by its image, and a map f factors through a
mono exactly when f's image lies in the mono's image: that lemma lets the
checker try each subobject of a carrier once, as a subcarrier
(``axioms._is_cover``).

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

    The maps h from each test object u into dom(f) must have pairwise
    distinct composites f∘h, |dom f|^|u| of them: two maps with one
    composite are a cancellation failure.
    """
    return all(len({compose(f, h).table for h in all_maps(u, f.dom)}) == len(f.dom) ** len(u)
               for u in map(carrier_of_size, range(bound + 1)))

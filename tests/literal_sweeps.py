"""The literal mediator sweeps: every map, every cone, one at a time.

``limit_sweep`` and ``colimit_sweep`` take the arguments of
``axioms._limit_sweep`` and ``axioms._colimit_sweep`` and return what they
return, but enumerate every map between each test object and the apex and
every literal cone, in ``all_maps`` order, instead of orbits of relabelling
the test object, and ignore the ``decided`` dict, so every call sweeps.
Monkeypatched in, they are the differential oracle of the orbit-counted,
keyed sweeps.  Each cone visited counts 1, so a FAIL's count may differ
from the orbit sweep's, and its cone is the first failing one.

``set_partitions`` is the literal enumerator of partitions, by where the
first item goes, that checks ``axioms._equivalences`` from outside.
"""

from __future__ import annotations

import itertools
from collections import Counter

from cetcs.errors import CompositionError
from cetcs.finset import FinMor, all_maps, compose


def limit_sweep(tests, apex, legs, points, decided):
    """Every map h: t -> apex, counted under its rows (leg(h(x)) for leg in
    legs), against every map from t to the points."""
    if any(leg.dom != apex for leg in legs):
        raise CompositionError(f"a leg does not start at the apex {apex}")
    rows = {p: tuple(leg(p) for leg in legs) for p in apex.labels}
    visited = 0
    for t in tests:
        counts = Counter(tuple(rows[p] for p in h.table) for h in all_maps(t, apex))
        for cone in itertools.product(points, repeat=len(t)):
            visited += 1
            if counts[cone] != 1:
                return visited, t, tuple(
                    FinMor(t, leg.cod, tuple(row[j] for row in cone))
                    for j, leg in enumerate(legs)), counts[cone]
    return visited, None, None, 1


def colimit_sweep(tests, apex, legs, merged, decided):
    """Every map h: apex -> t, counted under its composites h∘leg, against
    every tuple of maps from the feet to t that sends both points of each
    merged pair, numbered foot after foot, to one point."""
    if any(leg.cod != apex for leg in legs):
        raise CompositionError(f"a leg does not end at the apex {apex}")
    merged = list(merged)
    visited = 0
    for t in tests:
        counts = Counter(tuple(compose(h, leg).table for leg in legs)
                         for h in all_maps(apex, t))
        for cone in itertools.product(*[all_maps(leg.dom, t) for leg in legs]):
            images = [y for m in cone for y in m.table]
            if any(images[a] != images[b] for a, b in merged):
                continue
            visited += 1
            n = counts[tuple(m.table for m in cone)]
            if n != 1:
                return visited, t, cone, n
    return visited, None, None, 1


def cones(f, g, t):
    """Every commuting cone (q1, q2) from t over the cospan (f, g).

    The q2 legs are grouped once by the table of g∘q2, and each q1 visits
    only the group under the table of f∘q1.  That yields exactly the pairs a
    filter over all of them would keep, in the same q1-major order, and
    reads nothing but the two cospan legs.
    """
    if f.cod != g.cod:
        return
    over: dict[tuple[str, ...], list[FinMor]] = {}
    for q2 in all_maps(t, g.dom):
        over.setdefault(compose(g, q2).table, []).append(q2)
    for q1 in all_maps(t, f.dom):
        for q2 in over.get(compose(f, q1).table, ()):
            yield q1, q2


def set_partitions(items):
    """All partitions of the items, as lists of blocks: those of the rest
    with the first item joined to each block in turn, then alone."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part

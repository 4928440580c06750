"""Closed-form instance counts of the universal-property items.

An exhaustive check at bound n walks carriers of every size 0..n, so the
number of instances a passing item decides is a sum over those sizes.  The
formulas here count the cones a correct construction must have, from the
sizes alone; they share no code with ``cetcs``, so agreeing with the
checker's own count is evidence that the checker swept every cone once.

    python tests/counts.py 4

prints one line per item, in the form ``cetcs check`` prints a PASS.
"""

from __future__ import annotations

import sys
from math import comb, factorial, prod


def c1(n: int) -> int:
    """One empty cone per test object: the maps into the terminal object."""
    return n + 1


d1 = c1


def c2(n: int) -> int:
    """The pairs (f, g) of maps from t into a and b, over a, b and t."""
    sizes = range(n + 1)
    return sum((a * b) ** t for a in sizes for b in sizes for t in sizes)


def d2(n: int) -> int:
    """The pairs (f, g) of maps out of a and b into t, over a, b and t."""
    sizes = range(n + 1)
    return sum(t ** (a + b) for a in sizes for b in sizes for t in sizes)


def c3(n: int) -> int:
    """Each pair f, g: a -> b that agrees on k points counts itself, then
    the maps from each t into those k points."""
    sizes = range(n + 1)
    return sum(
        comb(a, k) * b ** k * (b * b - b) ** (a - k) * (1 + sum(k ** t for t in sizes))
        for a in sizes for b in sizes for k in range(a + 1)
    )


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` sizes summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _multinomial(sizes: tuple[int, ...]) -> int:
    """The maps whose fibers over the points of the codomain have these sizes."""
    return factorial(sum(sizes)) // prod(factorial(k) for k in sizes)


def _cospans(n: int):
    """(multiplicity, |P|) for the cospans f: a -> c <- b :g over sizes up to
    n, grouped by their fiber sizes; |P| = sum over c of k_i * l_i."""
    sizes = range(n + 1)
    for c in sizes:
        for a in sizes:
            for ks in _compositions(a, c):
                for b in sizes:
                    for ls in _compositions(b, c):
                        yield (_multinomial(ks) * _multinomial(ls),
                               sum(k * l for k, l in zip(ks, ls)))


def pullback_elements(n: int) -> int:
    """Each cospan counts itself and the cones from each t, the maps t -> P;
    then, over sizes up to min(n, 2), the commuting cones from each p."""
    sizes, small = range(n + 1), range(min(n, 2) + 1)
    return (sum(m * (1 + sum(p ** t for t in sizes)) for m, p in _cospans(n))
            + sum(m * sum(p ** s for s in small) for m, p in _cospans(min(n, 2))))


COUNTS = {
    "C1": c1, "C2": c2, "C3": c3, "D1": d1, "D2": d2,
    "pullback-elements": pullback_elements,
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: python tests/counts.py BOUND", file=sys.stderr)
        return 2
    for item, count in COUNTS.items():
        print(f"PASS {item} instances={count(int(argv[0]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

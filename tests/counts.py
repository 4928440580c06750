"""Closed-form instance counts of the check items.

An exhaustive check at bound n walks carriers of every size 0..n, so the
number of instances a passing item decides is a sum over those sizes.  The
formulas here count those instances, among them the cones a correct
construction must have, from the sizes alone; they share no code with
``cetcs``, so agreeing with the checker's own count is evidence that the
checker decided every instance, and swept every cone, once.

    python tests/counts.py 4

prints one line per item, in the form ``cetcs check`` prints a PASS.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import product
from math import comb, factorial, perm, prod


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


@cache
def _pair_graphs(a: int, b: int, k: int) -> int:
    """The a-tuples of ordered pairs in a b-set whose graph on the b points
    has k components.  A connected one is any of the b^(2a) tuples less the
    rest; otherwise the first point's component has some s < b points and j
    of the pairs, and the other points the other pairs in k - 1 components."""
    if b == 0 or k == 0:
        return int(a == b == k == 0)
    if k == 1:
        return b ** (2 * a) - sum(_pair_graphs(a, b, j) for j in range(2, b + 1))
    return sum(comb(b - 1, s - 1) * comb(a, j) * _pair_graphs(j, s, 1)
               * _pair_graphs(a - j, b - s, k - 1)
               for s in range(1, b) for j in range(a + 1))


def d3(n: int) -> int:
    """Each pair f, g: a -> b whose pairs (f(x), g(x)) join the points of b
    into k classes counts itself, then the maps from b into each t that are
    constant on those classes: t^k."""
    sizes = range(n + 1)
    return sum(_pair_graphs(a, b, k) * (1 + sum(t ** k for t in sizes))
               for a in sizes for b in sizes for k in range(b + 1))


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


def _stirling(n: int, k: int) -> int:
    """The partitions of an n-set into k blocks (second kind)."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * _stirling(n - 1, k) + _stirling(n - 1, k - 1)


def _onto(b: int, a: int) -> int:
    """The maps from a b-set onto an a-set."""
    return factorial(a) * _stirling(b, a)


def pa(n: int) -> int:
    """Each object a counts itself, then the maps from each b onto its
    projective cover, which has a's size."""
    sizes = range(n + 1)
    return sum(1 + sum(_onto(b, a) for b in sizes) for a in sizes)


def fct(n: int) -> int:
    """One instance per map a -> b."""
    sizes = range(n + 1)
    return sum(b ** a for a in sizes for b in sizes)


def classifier(n: int) -> int:
    """One instance per subset of each x."""
    return 2 ** (n + 1) - 1


epi_onto = covers_onto = fct


def onto_pullback(n: int) -> int:
    """Each cospan f: a -> c <- b :g counts once if f is onto and once if g
    is."""
    sizes = range(n + 1)
    return sum(_onto(a, c) * c ** b + c ** a * _onto(b, c)
               for c in sizes for a in sizes for b in sizes)


def dp(n: int) -> int:
    """Each point of each canonical sum a + b; then, over sizes up to
    min(n, 2), each point of s under each pair i: a -> s <- b :j that is a
    sum diagram, the (a + b)! pairs that are jointly bijective."""
    return (sum(a + b for a in range(n + 1) for b in range(n + 1))
            + sum(factorial(a + b) * (a + b)
                  for a in range(min(n, 2) + 1) for b in range(min(n, 2) + 1)))


def pretopos(n: int) -> int:
    """Its six parts in turn, each counting what it counts alone, whether it
    runs inside pretopos or is credited from an earlier run of the part."""
    return classifier(n) + fct(n) + onto_pullback(n) + epi_onto(n) + eff(n) + dp(n)


def eff(n: int) -> int:
    """Each equivalence on x, one per partition into k blocks, counts the
    x^2 pairs it is compared on."""
    sizes = range(n + 1)
    return sum(_stirling(x, k) * x * x for x in sizes for k in range(x + 1))


def quotients(n: int) -> int:
    """Each equivalence on x with k classes counts its x^2 pairs, then the
    coforks from x into each t, the maps constant on classes: t^k."""
    sizes = range(n + 1)
    return sum(_stirling(x, k) * (x * x + sum(t ** k for t in sizes))
               for x in sizes for k in range(x + 1))


def image_factorization(n: int) -> int:
    """Each map a -> b with an r-point image, C(b, r) * onto(a, r) of them,
    counts itself, then the injective tables into b from each k >= r that
    contain the image: C(b - r, k - r) point sets, k! orders each."""
    sizes = range(n + 1)
    return sum(
        comb(b, r) * _onto(a, r)
        * (1 + sum(comb(b - r, k - r) * factorial(k) for k in range(r, b + 1)))
        for a in sizes for b in sizes for r in range(b + 1)
    )


def choice(n: int) -> int:
    """Each map from b onto a, split; then each map a -> b with a not empty."""
    sizes = range(n + 1)
    return (sum(_onto(b, a) for a in sizes for b in sizes)
            + sum(b ** a for a in sizes if a for b in sizes))


def dependent_choice(n: int) -> int:
    """Each total relation on x, one nonempty set of successors per point,
    counts one chain from each of its x starts."""
    return sum(x * (2 ** x - 1) ** x for x in range(n + 1))


g = fct


def element_equality(n: int) -> int:
    """Each map a -> b is tested for mono, then each pair of them compared
    pointwise: b^a + (b^a)^2."""
    sizes = range(n + 1)
    return sum(b ** a + b ** (2 * a) for a in sizes for b in sizes)


def inclusion_orders(n: int) -> int:
    """Each pair of subobjects of x, one per injective table from each
    k <= |x| into x: (sum over k of x!/(x - k)!)^2 pairs."""
    return sum(sum(factorial(x) // factorial(x - k) for k in range(x + 1)) ** 2
               for x in range(n + 1))


def function_graphs(n: int) -> int:
    """One instance per relation R in x * y, a subset of its x*y cells."""
    sizes = range(n + 1)
    return sum(2 ** (x * y) for x in sizes for y in sizes)


def induction(n: int) -> int:
    """Each subset of the 9-point prefix {0..8}, then each endomap h of a
    with each point of a as the base: a^a * a."""
    return 2 ** 9 + sum(a ** (a + 1) for a in range(n + 1))


def exponentials(n: int) -> int:
    """Each pair x, y counts its function space, then each map x -> y."""
    sizes = range(n + 1)
    return sum(1 + y ** x for x in sizes for y in sizes)


def regularity(n: int) -> int:
    """Each cospan f: a -> c <- b :g with f onto, then each nonempty a, whose
    map to the terminal object is onto."""
    sizes = range(n + 1)
    return sum(_onto(a, c) * c ** b for a in sizes for b in sizes for c in sizes) + n


def initial(n: int) -> int:
    """I: the initial carrier, once."""
    return 1


def nt(n: int) -> int:
    """1+1 itself, then each of the two sum diagrams 1 -> s <- 1 with s of
    size 2, which exist once the bound reaches 2."""
    return 3 if n >= 2 else 1


def internal_logic(n: int) -> int:
    """The 16 fixed formulas over a context of one 3-point carrier, one row
    per point."""
    return 16 * 3


def pi_competitors(n: int) -> int:
    """The competitors pi-universality sweeps after its Pi pass: over each
    composable pair y -g-> x -f-> i with carriers of size up to min(n, 2),
    one per map from each apex of size up to min(n, 3) into the product F,
    where |F| sums over i the product of g's fiber sizes over f's fiber.
    ``pi_universality`` adds it to Pi's count and the section counts."""
    sizes = range(min(n, 2) + 1)
    total = 0
    for y in sizes:
        for x in sizes:
            for i in sizes:
                for g in product(range(x), repeat=y):
                    for f in product(range(i), repeat=x):
                        F = sum(prod(g.count(p) for p in range(x) if f[p] == c)
                                for c in range(i))
                        total += sum(F ** k for k in range(min(n, 3) + 1))
    return total


def composable_pairs(n: int) -> int:
    """The pairs y -g-> x -f-> i over sizes up to n: x^y * i^x maps."""
    sizes = range(n + 1)
    return sum(x ** y * i ** x for y in sizes for x in sizes for i in sizes)


def pi(n: int) -> int:
    """Each composable pair y -g-> x -f-> i counts its six faces, then
    |P| + |F|: over each point c of i, 1 + s times the sections of g over
    f's fiber over c, of s points.  By symmetry every c counts alike: the
    maps f with a given s-point fiber over c number (i - 1)^(x - s), and
    summed over g the sections pick s distinct points of y, one over each
    point of the fiber, with g free on the other y - s points."""
    sizes = range(n + 1)
    return 6 * composable_pairs(n) + sum(
        i * comb(x, s) * (i - 1) ** (x - s) * (1 + s) * perm(y, s) * x ** (y - s)
        for y in sizes for x in sizes for i in sizes for s in range(min(x, y) + 1))


def pi_universality(n: int) -> int:
    """Pi's count, then one section count per composable pair, then the
    competitors."""
    return pi(n) + composable_pairs(n) + pi_competitors(n)


COUNTS = {
    "C1": c1, "C2": c2, "C3": c3, "D1": d1, "D2": d2, "D3": d3, "PA": pa, "Fct": fct,
    "Eff": eff, "pullback-elements": pullback_elements, "quotients": quotients,
    "image-factorization": image_factorization, "choice": choice,
    "dependent-choice": dependent_choice, "DP": dp, "onto-pullback": onto_pullback,
    "covers-onto": covers_onto, "epi-onto": epi_onto, "classifier": classifier,
    "pretopos": pretopos, "G": g, "I": initial, "NT": nt,
    "element-equality": element_equality, "inclusion-orders": inclusion_orders,
    "function-graphs": function_graphs, "induction": induction,
    "exponentials": exponentials, "regularity": regularity,
    "internal-logic": internal_logic, "Pi": pi, "pi-universality": pi_universality,
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

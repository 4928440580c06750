"""Exhaustive checkers for the axioms and the derived statements.

Each check enumerates every instance over canonical carriers of size up to a
bound (plus instances contributed by a loaded model) and verifies the
statement literally.  Universal properties quantify over all candidate
mediating maps, and one helper, ``_sweep``, decides every "exactly one
mediator per cone" statement over a list of test objects: for each test
object t the site counts how many candidates through t induce each cone,
and lists the cones over t; the sweep visits them in order, t by t, and
stops at the first cone whose count is not 1.  Existence and uniqueness are
read off those counts, never assumed from the construction that produced
the diagram.  Epimorphisms are decided by right cancellation against test
objects rather than by ontoness, so the statements that relate the two
notions stay non-circular.

Counts are keyed by the tables of a cone's legs: all cones of one sweep
share their feet, so tables tell them apart exactly as the morphisms
would.  A table carries no feet, so before a sweep the legs of the
construction are compared with the feet the statement names (for
equalizers and coequalizers the fork check's composites already do this).
Cones over a cospan are grouped by the checker-side composite (the table
of g∘q2), so each first leg visits only the second legs it commutes with;
the grouping reads the cospan alone, never the construction under test.
Equalizer and coequalizer counts read only the construction's table (and a
coequalizer's codomain) and the test object, so each is made once per key.

Statements about maps range over the instances of a shape: parallel pairs
(C3, D3), cospans (``pullback-elements``, ``onto-pullback``, ``regularity``)
or composable pairs (Pi, ``pi-universality``).  A shape constant names its
carrier pools in loop order and its legs, and ``_instances`` is the one
enumerator: the legs over each tuple of carriers in ``all_maps`` order,
first leg outermost and streamed.

Equalizers, coequalizers and the pullbacks of ``pullback-elements`` share
one skeleton, ``_orbit_sweep``, which sweeps once per relabelling orbit
(symmetry reduction as in Ip & Dill, "Better verification through symmetry",
1996).  Each item hands it only its shape, its construction, its feet and
its own face (the fork, or the point count), an equivariance test, and its
sweep's mediators and cones; how an instance is credited is decided there
alone.  ``_orbits`` walks the instances over one tuple of carriers in
``_instances`` order, each hom-set listed whole; at the first instance of an
orbit, its rep, it applies every tuple gamma of label permutations once, so
each later instance arrives with a gamma that moves the rep onto it.  The
rep's construction is swept as above.  Every other instance is still
constructed and its faces checked; then the skeleton tests gamma·rep against
the instance from the definition, and the item tests the construction
against the rep's relabelled: the same apex rows for equalizers and
pullbacks, a well-defined bijection of classes for coequalizers.  That is an
isomorphism of apexes commuting with the legs, and relabelling carries the
cones over the rep one-to-one onto the cones over the instance, so the
instance is credited with the rep's visit count: a PASS counts exactly the
instances a sweep of every instance would.  A mismatch fails with face
``equivariance``.  Pi stays on ``_instances``: its check of one pair costs
less than the relabellings of a rep's orbit.

Sampling mode (past the exhaustive threshold) draws each leg from a seeded
reservoir of its hom-set (``_maps``), and the subsets of cells and pairs of
subobjects by seeded index (``_draw``), so those cost the draw, not 2^n.
Items about uniqueness of mediating candidates are skipped with a reason
instead of pretending a sampled uniqueness sweep is exhaustive.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import kernel
from .errors import EquivalenceError
from .finset import (
    FinMor,
    FinObj,
    PiDiagram,
    all_maps,
    bool_object,
    carrier,
    carrier_of_size,
    characteristic,
    compose,
    coproduct,
    coequalizer,
    equalizer,
    exponential,
    identity,
    image_factorization,
    initial,
    nno_prefix,
    pi_diagram,
    product,
    projective_cover,
    pullback,
    quotient,
    terminal,
    unique_to_terminal,
)
from .logic import Env, parse, parse_context, verify
from .relcalc import (
    Relation,
    is_partial_function,
    is_total_function,
    leq,
    relation_from_tuples,
    sub_relation,
    subseteq,
    unique_choice,
)
from .report import FAIL, PASS, SKIP, Report

EXHAUSTIVE_THRESHOLD = 4


@dataclass(frozen=True)
class CheckSpec:
    """One requested check: the item id, the size bound and extra instances."""

    item: str
    bound: int = 3
    objects: tuple[FinObj, ...] = ()
    morphisms: tuple[FinMor, ...] = ()
    relations: tuple[Relation, ...] = ()
    sample: int | None = None
    seed: int = 0

    def __post_init__(self):
        # Below 1 the pools or the draws are empty and every item would pass
        # having checked nothing.
        if self.bound < 1:
            raise ValueError(f"bound must be at least 1, got {self.bound}")
        if self.sample is not None and self.sample < 1:
            raise ValueError(f"sample must be at least 1, got {self.sample}")

    @property
    def sampled(self) -> bool:
        return self.sample is not None


# ---------------------------------------------------------------------------
# instance pools


def _reservoir(items: Iterable, k: int, rng: random.Random) -> list:
    chosen: list = []
    for n, item in enumerate(items):
        if n < k:
            chosen.append(item)
        else:
            j = rng.randrange(n + 1)
            if j < k:
                chosen[j] = item
    return chosen


def _objs(spec: CheckSpec, prefix: str) -> list[FinObj]:
    pool = [carrier_of_size(n, prefix) for n in range(spec.bound + 1)]
    for obj in spec.objects:
        if len(obj) <= spec.bound and obj not in pool:
            pool.append(obj)
    return pool


def _maps(spec: CheckSpec, a: FinObj, b: FinObj) -> Iterator[FinMor] | list[FinMor]:
    if not spec.sampled:
        return all_maps(a, b)
    rng = random.Random(f"{spec.seed}|{a.labels}|{b.labels}")
    return _reservoir(all_maps(a, b), spec.sample, rng)


def _draw(spec: CheckSpec, key: object, n: int) -> Sequence[int]:
    """The indices of n items, or under sampling ``spec.sample`` distinct
    ones drawn with a seed of the key, so the cost does not grow with n."""
    if not spec.sampled:
        return range(n)
    return random.Random(f"{spec.seed}|{key}").sample(range(n), min(spec.sample, n))


def _subsets(spec: CheckSpec, cells: list) -> Iterator[list]:
    """The drawn subsets of the cells: every one unless sampling."""
    for mask in _draw(spec, cells, 1 << len(cells)):
        yield [cell for i, cell in enumerate(cells) if mask >> i & 1]


def _morphism_pool(spec: CheckSpec) -> Iterator[FinMor]:
    for a, b in _carriers(spec, "ab"):
        yield from _maps(spec, a, b)
    yield from spec.morphisms


# A shape names the pool of each carrier by its prefix, in loop order
# (outermost first), and each leg by the (domain, codomain) positions of its
# carriers: f, g: a -> b; f: a -> c <- b :g; and y -g-> x -f-> i.
_PAIR = ("ab", ((0, 1), (0, 1)))
_COSPAN = ("cab", ((1, 0), (2, 0)))
_COMPOSABLE = ("yxi", ((0, 1), (1, 2)))


def _carriers(spec: CheckSpec, prefixes: str) -> Iterator[tuple[FinObj, ...]]:
    return itertools.product(*[_objs(spec, prefix) for prefix in prefixes])


def _instances(spec: CheckSpec, shape: tuple) -> Iterator[tuple[FinMor, ...]]:
    """Every instance of the shape over the pools: its legs, first leg
    outermost.  Only the inner legs are listed, so a first leg, and what a
    construction keeps on it (``pi_diagram``'s blocks), is freed once passed."""
    for objs in _carriers(spec, shape[0]):
        first, *inner = [_maps(spec, objs[i], objs[j]) for i, j in shape[1]]
        inner = [list(maps) for maps in inner]
        for leg in first:
            for rest in itertools.product(*inner):
                yield leg, *rest


def _mono_tables_into(x: FinObj, dom_prefix: str) -> Iterator[FinMor]:
    """All injective maps from canonical carriers into x, small domains first."""
    for n in range(len(x) + 1):
        dom = carrier_of_size(n, dom_prefix)
        for table in itertools.permutations(x.labels, n):
            yield FinMor(dom, x, table)


def set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All partitions of the items, deterministically ordered."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1 :]
        yield [[first]] + part


def _equivalences(spec: CheckSpec, x: FinObj) -> Iterator[Relation]:
    for part in set_partitions(x.labels):
        rows = [
            (a, b) for block in part for a in block for b in block
        ]
        yield relation_from_tuples(rows, (x, x))


# Items whose content is uniqueness of mediating maps; under sampling they
# report a skip before running anything (pretopos and pi-universality
# include such checks).
_EXHAUSTIVE_ONLY = frozenset({
    "C2", "C3", "D2", "D3", "Pi", "DP", "NT", "pullback-elements", "quotients",
    "exponentials", "epi-onto", "pretopos", "pi-universality",
})

_SAMPLED_SKIP = (
    "uniqueness of mediating maps needs exhaustive candidate enumeration; "
    "rerun without sampling at a bound <= "
    f"{EXHAUSTIVE_THRESHOLD}"
)


def _sweep(tests: Iterable[FinObj], mediators: Callable, cones: Callable,
           key: Callable) -> tuple[int, FinObj | None, object, int]:
    """Visit each test object's cones until one has other than exactly one mediator.

    ``mediators(t)`` counts how many candidates through the test object t
    induce each cone key, ``cones(t)`` yields the cones over t, and ``key``
    maps a cone to its key.  Returns the number of cones visited over all
    test objects, then the test object, the cone and the count of the first
    cone without a unique mediator, or ``None``, ``None`` and 1 when every
    cone has exactly one.
    """
    visited = 0
    for t in tests:
        counts = mediators(t)
        for cone in cones(t):
            visited += 1
            n = counts[key(cone)]
            if n != 1:
                return visited, t, cone, n
    return visited, None, None, 1


_table = operator.attrgetter("table")


def _tables(cone: tuple[FinMor, FinMor]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    first, second = cone
    return first.table, second.table


# ---------------------------------------------------------------------------
# relabelling orbits: one mediator sweep per orbit, an isomorphism per instance

def _orbits(objs: tuple[FinObj, ...], shape: tuple) -> Iterator:
    """Every instance of the shape over the carriers, each with its orbit.

    The instances are the tuples of legs in ``_instances`` order, each
    hom-set listed whole.  A relabelling gamma is a tuple of label
    permutations, one per carrier, and moves a leg m: X -> Y to
    gamma_Y ∘ m ∘ gamma_X⁻¹.
    Yields (legs, gamma, rep): the first instance of an orbit is its own
    rep, with gamma None; every later one comes with a gamma such that
    gamma·rep is the instance.  A new rep's orbit is made by applying every
    gamma to it once, so no instance needs a canonical form.
    """
    perms = [list(itertools.permutations(x.labels)) for x in objs]
    # A perm p of x sends x.labels[k] to p[k].  The moved table lists, for
    # each label of the domain in order, the image of its preimage, which
    # sits at position p.index(label).
    back = [[tuple(map(p.index, x.labels)) for p in ps] for x, ps in zip(objs, perms)]
    image = [[dict(zip(x.labels, p)) for p in ps] for x, ps in zip(objs, perms)]
    ends, seen = shape[1], {}
    for legs in itertools.product(*[list(all_maps(objs[i], objs[j])) for i, j in ends]):
        key = tuple([m.table for m in legs])
        hit = seen.pop(key, None)
        if hit is not None:
            rep, idx = hit
            yield legs, tuple(image[i][k] for i, k in enumerate(idx)), rep
            continue
        # each leg's image depends only on the perms of its own two carriers
        moved = [
            {(s, d): tuple([image[j][d][table[k]] for k in back[i][s]])
             for s in range(len(perms[i])) for d in range(len(perms[j]))}
            for table, (i, j) in zip(key, ends)
        ]
        for idx in itertools.product(*[range(len(ps)) for ps in perms]):
            moved_key = tuple([m[idx[i], idx[j]] for m, (i, j) in zip(moved, ends)])
            if moved_key not in seen:
                seen[moved_key] = (legs, idx)
        del seen[key]
        yield legs, None, legs


def _in_orbit(gamma: tuple, shape: tuple, rep: tuple, legs: tuple) -> bool:
    """Whether gamma·rep is the instance, read off the definition: each leg
    m: X -> Y of the rep and its leg m' satisfy m'(gamma_X(x)) = gamma_Y(m(x))."""
    return all(
        moved(gamma[i][x]) == gamma[j][y]
        for (i, j), m, moved in zip(shape[1], rep, legs)
        for x, y in zip(m.dom.labels, m.table)
    )


def _orbit_sweep(spec: CheckSpec, shape: tuple, *, build: Callable, feet: Callable,
                 face: tuple[Callable, dict], same: Callable, mediators: Callable,
                 cones: Callable, key: Callable, name: Callable):
    """Check a construction on every instance (f, g) of the shape over the
    pools, sweeping its cones once per orbit.

    ``c = build(f, g)`` fails with face ``feet`` unless ``feet(c, f, g)``;
    the instance then counts once and, for ``face = (holds, fault)``, fails
    with ``fault`` unless ``holds(c, f, g)``.  A rep's c is swept over the
    test objects with ``mediators(c, t)``, ``cones(f, g, t)`` and ``key``,
    and a failing cone is named by ``name(cone, count)``.  Any other
    instance must pass ``same(c0, c, gamma)`` against its rep's c0, and is
    credited with the rep's visits.
    """
    checked = 0
    tests = _objs(spec, "t")
    holds, fault = face
    for objs in _carriers(spec, shape[0]):
        swept: dict = {}
        for (f, g), gamma, rep in _orbits(objs, shape):
            c = build(f, g)
            if not feet(c, f, g):
                return FAIL, {"f": str(f), "g": str(g), "face": "feet"}, checked
            checked += 1
            if not holds(c, f, g):
                return FAIL, {"f": str(f), "g": str(g), **fault}, checked
            if gamma is not None:
                c0, visits = swept[rep]
                if not (_in_orbit(gamma, shape, rep, (f, g)) and same(c0, c, gamma)):
                    return FAIL, {"f": str(f), "g": str(g), "face": "equivariance"}, checked
                checked += visits
                continue
            visits, _, cone, n = _sweep(tests, lambda t: mediators(c, t),
                                        lambda t: cones(f, g, t), key)
            if cone is not None:
                return FAIL, {"f": str(f), "g": str(g), **name(cone, n)}, checked + visits
            swept[rep] = c, visits
            checked += visits
    return PASS, None, checked


# ---------------------------------------------------------------------------
# dependent-product checking (shared by the axiom and the CLI `pi` command)


def _report(item: str, t0: float, verdict: str, witness: dict | None, checked: int) -> Report:
    """The report of a check begun at ``t0``."""
    return Report(item=item, verdict=verdict, witness=witness,
                  instances_checked=checked, elapsed=time.perf_counter() - t0)


def check_pi_universal(d: PiDiagram, g: FinMor, f: FinMor) -> Report:
    """Decide whether d is a universal dependent product of g along f.

    Shape first: the feet, the evaluation triangle, the commuting square,
    and the square being a pullback at the level of points: each v of F and
    each x of the f-fiber of phi(v) must be hit by exactly one point of P.
    Then the element-wise criterion: for every point i of the index and
    every section psi of g over the f-fiber of i there must be exactly one
    point of F over i whose rows in (pi1, pi2, ev) are exactly psi.  Every
    failure carries the instance it happened on.

    The checker reads the tables of d, g and f in zipped passes and indexes
    them itself: f by value, g by fiber size, and P by its (pi1, pi2) rows,
    each mapped to its ev value.  Every face counts one instance per
    statement it decides, in the order above; the pullback face is decided
    by counting too, and walks its (v, x) pairs only to name the first that
    fails.

    The element-wise criterion is decided by counting.  Once the earlier
    faces pass, the rows of each v over i are a section of g over the
    f-fiber of i: one row per x of the fiber by the pullback face, with
    g(y) = x by the triangle.  So over each i the points of F map into the
    n_i sections, where n_i is the product of the g-fiber sizes over the
    f-fiber of i, and "exactly one point per section" says this map is a
    bijection: the points over i carry pairwise distinct sections, and
    there are n_i of them.  Summed over i, and since no i has more distinct
    sections than points or than n_i, that is: the distinct (i, section)
    pairs number |F| and sum n_i.  The sections are enumerated, one lookup
    each, only when this fails, to name the first psi with no point or
    with two; each psi counts one instance either way.
    """
    t0, item = time.perf_counter(), "pi-universal"
    y_obj, x_obj, i_obj, P, F = g.dom, g.cod, f.cod, d.P, d.F
    pi1, pi2, phi, ev = d.pi1, d.pi2, d.phi, d.ev
    # Identity first: constructions share their carriers, and FinObj's
    # generated __eq__ builds two tuples.
    if not (pi1.dom is P and pi1.cod is F and pi2.dom is P and pi2.cod is x_obj
            and phi.dom is F and phi.cod is i_obj and ev.dom is P and ev.cod is y_obj):
        feet = ((pi1, P, F, "pi1 feet"), (pi2, P, x_obj, "pi2 feet"),
                (phi, F, i_obj, "phi feet"), (ev, P, y_obj, "ev feet"))
        for checked, (leg, dom, cod, face) in enumerate(feet, 1):
            if leg.dom != dom or leg.cod != cod:
                return _report(item, t0, FAIL, {"face": face}, checked)
    # With the feet in place both faces are equalities of tables.
    checked = 5  # the four feet, then this face
    g_at, g_table = y_obj.index, g.table
    if tuple([g_table[g_at[y]] for y in ev.table]) != pi2.table:
        return _report(item, t0, FAIL, {"face": "evaluation triangle g∘ev = pi2"}, checked)
    checked = 6
    phi_at, phi_table, f_at, f_table = F.index, phi.table, f.dom.index, f.table
    if ([phi_table[phi_at[v]] for v in pi1.table]
            != [f_table[f_at[x]] for x in pi2.table]):
        return _report(item, t0, FAIL, {"face": "square phi∘pi1 = f∘pi2"}, checked)

    # The square is a pullback.  It commutes, so every point of P lies over
    # one of the compatible (v, x), and "exactly one point each" says that
    # the points have distinct (v, x) and number as many as those pairs.
    fiber_f: dict[str, list[str]] = {i: [] for i in i_obj.labels}
    for x, i in zip(f.dom.labels, f_table):
        fiber_f[i].append(x)
    compatible = 0
    for i in phi_table:
        compatible += len(fiber_f[i])
    at = dict(zip(zip(pi1.table, pi2.table), ev.table))
    if len(at) == len(P.labels) == compatible:
        checked += compatible
    else:
        hits = Counter(zip(pi1.table, pi2.table))
        for v, i in zip(F.labels, phi_table):
            for x in fiber_f[i]:
                checked += 1
                if hits[v, x] != 1:
                    return _report(item, t0, FAIL, {"face": "square pullback", "v": v,
                                                    "x": x, "points": hits[v, x]}, checked)

    # Each v's rows are now a section over its fiber, its ev values in fiber
    # order: count (see above), and enumerate the sections only to name the
    # first that fails.
    g_sizes = dict.fromkeys(x_obj.labels, 0)
    for x in g_table:
        g_sizes[x] += 1
    sections = 0
    for xs in fiber_f.values():
        n = 1
        for x in xs:
            n *= g_sizes[x]
        sections += n
    distinct = {(i, *[at[v, x] for x in fiber_f[i]]) for v, i in zip(F.labels, phi_table)}
    if len(distinct) == len(F.labels) == sections:
        return _report(item, t0, PASS, None, checked + sections)
    points_over: dict[str, dict[frozenset, list[str]]] = {i: {} for i in i_obj.labels}
    for v, i in zip(F.labels, phi_table):
        psi = frozenset([(x, at[v, x]) for x in fiber_f[i]])
        points_over[i].setdefault(psi, []).append(v)
    fiber_g: dict[str, list[str]] = {x: [] for x in x_obj.labels}
    for y, x in zip(y_obj.labels, g_table):
        fiber_g[x].append(y)
    for i in i_obj.labels:
        xs, index = fiber_f[i], points_over[i]
        for choice in itertools.product(*[fiber_g[x] for x in xs]):
            checked += 1
            psi = frozenset(zip(xs, choice))
            matching = index.get(psi, [])
            if len(matching) != 1:
                return _report(item, t0, FAIL, {"i": i, "psi": sorted(map(list, psi)),
                                                "matching": matching}, checked)
    return _report(item, t0, PASS, None, checked)


def pi_morphism_check(source: PiDiagram, target: PiDiagram, t: FinMor) -> Report:
    """Is t: F(source) -> F(target) a morphism of dependent-product diagrams?

    Requires phi∘t = phi', and that the induced map on the pullback apexes
    commutes with evaluation.
    """
    t0, item = time.perf_counter(), "pi-morphism"
    checked = 1
    if t.dom != source.F or t.cod != target.F:
        return _report(item, t0, FAIL, {"face": "t feet"}, checked)
    checked += 1
    if compose(target.phi, t) != source.phi:
        return _report(item, t0, FAIL, {"face": "phi∘t = phi-source"}, checked)
    locate: dict[tuple[str, str], str] = {
        (target.pi1(p), target.pi2(p)): p for p in target.P.labels
    }
    table = []
    for p in source.P.labels:
        key = (t(source.pi1(p)), source.pi2(p))
        if key not in locate:
            return _report(item, t0, FAIL, {"face": "induced map on apexes", "point": p}, checked)
        table.append(locate[key])
    induced = FinMor(source.P, target.P, tuple(table))
    for p in source.P.labels:
        checked += 1
        if target.ev(induced(p)) != source.ev(p):
            return _report(item, t0, FAIL, {"face": "evaluation", "point": p}, checked)
    return _report(item, t0, PASS, None, checked)


def _section_count(g: FinMor, f: FinMor) -> int:
    """Independent size oracle: sum over i of the product of g-fiber sizes."""
    fiber_g = Counter(g.table)
    sections = dict.fromkeys(f.cod.labels, 1)
    for x, i in zip(f.dom.labels, f.table):
        sections[i] *= fiber_g[x]
    return sum(sections.values())


def _competitors(g: FinMor, f: FinMor, size_cap: int) -> Iterator[PiDiagram]:
    """All dependent-product shaped diagrams over (g, f) with small apex."""
    for n in range(size_cap + 1):
        apex = carrier_of_size(n, "w")
        for phi2 in all_maps(apex, f.cod):
            square = pullback(phi2, f)
            fibers = [
                [y for y in g.dom.labels if g(y) == square.p2(p)]
                for p in square.apex.labels
            ]
            for choice in itertools.product(*fibers):
                ev2 = FinMor(square.apex, g.dom, tuple(choice))
                yield PiDiagram(
                    P=square.apex, F=apex, pi1=square.p1, pi2=square.p2,
                    phi=phi2, ev=ev2,
                )


# ---------------------------------------------------------------------------
# axiom checks


def _unique_maps(spec: CheckSpec, hom: Callable[[FinObj], Iterable[FinMor]]):
    """Every carrier a of the pool has exactly one map in ``hom(a)``."""
    checked = 0
    for a in _objs(spec, "a"):
        checked += 1
        maps = list(hom(a))
        if len(maps) != 1:
            return FAIL, {"object": str(a), "maps": len(maps)}, checked
    return PASS, None, checked


def _ax_products(spec: CheckSpec):
    checked = 0
    for a, b in _carriers(spec, "ab"):
        d = product(a, b)
        p, q = d.projections
        if p.cod != a or q.cod != b:
            return FAIL, {"A": str(a), "B": str(b), "face": "feet"}, checked
        visited, t, cone, n = _sweep(_objs(spec, "t"), lambda t: Counter(
            (compose(p, h).table, compose(q, h).table) for h in all_maps(t, d.apex)
        ), lambda t: itertools.product(all_maps(t, a), all_maps(t, b)), _tables)
        checked += visited
        if cone is not None:
            f, g = cone
            return FAIL, {
                "A": str(a), "B": str(b), "T": str(t),
                "f": str(f), "g": str(g), "mediators": n,
            }, checked
    return PASS, None, checked


def _ax_equalizers(spec: CheckSpec):
    # the count reads only e's table, so pairs sharing one reuse it
    made: dict = {}

    def mediators(e: FinMor, t: FinObj) -> Counter:
        key = e.table, t
        if key not in made:
            made[key] = Counter(compose(e, k).table for k in all_maps(t, e.dom))
        return made[key]

    return _orbit_sweep(
        spec, _PAIR, build=equalizer,
        feet=lambda e, f, g: e.cod == f.dom,
        face=(lambda e, f, g: compose(f, e) == compose(g, e), {"face": "fork"}),
        # e must be alpha∘e0 up to a bijection of apexes: the same rows,
        # counted with multiplicity
        same=lambda e0, e, gamma: sorted(e.table) == sorted([gamma[0][x] for x in e0.table]),
        mediators=mediators,
        cones=lambda f, g, t: (h for h in all_maps(t, f.dom)
                               if compose(f, h).table == compose(g, h).table),
        key=_table,
        name=lambda h, n: {"h": str(h), "mediators": n},
    )


def _ax_sums(spec: CheckSpec):
    checked = 0
    for a, b in _carriers(spec, "ab"):
        d = coproduct(a, b)
        inl, inr = d.injections
        if inl.dom != a or inr.dom != b:
            return FAIL, {"A": str(a), "B": str(b), "face": "feet"}, checked
        visited, t, cone, n = _copairings(_objs(spec, "t"), d.apex, inl, inr)
        checked += visited
        if cone is not None:
            f, g = cone
            return FAIL, {
                "A": str(a), "B": str(b), "T": str(t),
                "f": str(f), "g": str(g), "mediators": n,
            }, checked
    return PASS, None, checked


def _copairings(tests: list[FinObj], s: FinObj, i: FinMor, j: FinMor):
    """``_sweep`` of the cones (f, g) out of the feet of i and j into each
    test object against the copairs (h∘i, h∘j) of the maps h out of s."""
    return _sweep(tests, lambda t: Counter(
        (compose(h, i).table, compose(h, j).table) for h in all_maps(s, t)
    ), lambda t: itertools.product(all_maps(i.dom, t), all_maps(j.dom, t)), _tables)


def _ax_coequalizers(spec: CheckSpec):
    # unreached classes change the count, so the codomain stays in the key
    made: dict = {}

    def mediators(q: FinMor, t: FinObj) -> Counter:
        key = q.cod, q.table, t
        if key not in made:
            made[key] = Counter(compose(k, q).table for k in all_maps(q.cod, t))
        return made[key]

    return _orbit_sweep(
        spec, _PAIR, build=coequalizer,
        feet=lambda q, f, g: q.dom == f.cod,
        face=(lambda q, f, g: compose(q, f) == compose(q, g), {"face": "fork"}),
        same=lambda q0, q, gamma: _classes_match(q0, q, gamma[1]),
        mediators=mediators,
        cones=lambda f, g, t: (h for h in all_maps(f.cod, t)
                               if compose(h, f).table == compose(h, g).table),
        key=_table,
        name=lambda h, n: {"h": str(h), "mediators": n},
    )


def _classes_match(q0: FinMor, q: FinMor, kappa: dict[str, str]) -> bool:
    """Whether q0(b) -> q(kappa(b)) is a well-defined bijection of apexes.

    Then q∘kappa = psi∘q0 for that bijection psi, so q is q0 relabelled.
    Points missed by both sides pair up when the apexes have one size.
    """
    psi: dict[str, str] = {}
    for b, c in zip(q0.dom.labels, q0.table):
        if psi.setdefault(c, q(kappa[b])) != q(kappa[b]):
            return False
    return len(set(psi.values())) == len(psi) and len(q0.cod) == len(q.cod)


def _ax_pi(spec: CheckSpec, count_sections: bool = False):
    # pi-universality also checks each F against the section-count oracle
    # in this pass, so that no dependent product is built twice.
    checked = 0
    for g, f in _instances(spec, _COMPOSABLE):
        d = pi_diagram(g, f)
        rep = check_pi_universal(d, g, f)
        checked += rep.instances_checked
        if not rep.passed:
            witness = dict(rep.witness or {})
            witness.update({"g": str(g), "f": str(f)})
            return FAIL, witness, checked
        if count_sections:
            checked += 1
            if len(d.F) != _section_count(g, f):
                return FAIL, {"g": str(g), "f": str(f),
                              "statement": "section count"}, checked
    return PASS, None, checked


def _first_preimages(f: FinMor, fallback: str | None = None) -> FinMor:
    """The map cod(f) -> dom(f) sending each point to its first preimage
    under f, or to ``fallback`` when it has none, through the validating
    ``FinMor``."""
    return FinMor(f.cod, f.dom, tuple(
        f.dom.labels[f.table.index(y)] if y in f.table else fallback for y in f.cod.labels
    ))


def _ax_onto_mono_iso(spec: CheckSpec):
    checked = 0
    for f in _morphism_pool(spec):
        onto = f.is_surjective()
        mono = kernel.is_mono(f, bound=min(spec.bound, 2))
        checked += 1
        if not (onto and mono):
            continue
        if not f.is_bijective():
            return FAIL, {"f": str(f), "reason": "not bijective"}, checked
        inverse = _first_preimages(f)
        if compose(inverse, f) != identity(f.dom) or compose(f, inverse) != identity(f.cod):
            return FAIL, {"f": str(f), "reason": "inverse fails"}, checked
    return PASS, None, checked


def _ax_choice_covers(spec: CheckSpec):
    checked = 0
    for a in _objs(spec, "a"):
        cover = projective_cover(a)
        checked += 1
        if not cover.is_surjective():
            return FAIL, {"object": str(a), "reason": "cover not onto"}, checked
        p = cover.dom
        for b in _objs(spec, "b"):
            for h in _maps(spec, b, p):
                if not h.is_surjective():
                    continue
                checked += 1
                if compose(h, _first_preimages(h)) != identity(p):
                    return FAIL, {"object": str(a), "h": str(h)}, checked
    return PASS, None, checked


def _ax_no_initial_elements(spec: CheckSpec):
    points = kernel.elements(initial())
    if points:
        return FAIL, {"elements": len(points)}, 1
    return PASS, None, 1


def _separating_pool(spec: CheckSpec) -> CheckSpec:
    """Recognition sweeps need a two-point separator among the test objects.

    The two-point carrier is 1+1, which the category contains no matter how
    small the enumeration bound is; without it every parallel pair into a
    singleton agrees and sum/epi recognition would accept junk.
    """
    if spec.bound >= 2:
        return spec
    return CheckSpec(item=spec.item, bound=2)


def _is_sum_diagram(spec: CheckSpec, s: FinObj, i: FinMor, j: FinMor) -> bool:
    _, _, cone, _ = _copairings(_objs(_separating_pool(spec), "t"), s, i, j)
    return cone is None


def _ax_sum_disjunction(spec: CheckSpec):
    checked = 0
    for a, b in _carriers(spec, "ab"):
        d = coproduct(a, b)
        left = set(d.injections[0].table)
        right = set(d.injections[1].table)
        for z in d.apex.labels:
            checked += 1
            if z not in left and z not in right:
                return FAIL, {"A": str(a), "B": str(b), "z": z}, checked
    cap = min(spec.bound, 2)
    small = CheckSpec(item=spec.item, bound=cap)
    for a, b in _carriers(small, "ab"):
        s = carrier_of_size(len(a) + len(b), "s")
        for i in all_maps(a, s):
            for j in all_maps(b, s):
                if not _is_sum_diagram(small, s, i, j):
                    continue
                left = set(i.table)
                right = set(j.table)
                for z in s.labels:
                    checked += 1
                    if z not in left and z not in right:
                        return FAIL, {"i": str(i), "j": str(j), "z": z}, checked
    return PASS, None, checked


def _ax_nontrivial(spec: CheckSpec):
    checked = 0
    two = bool_object()
    checked += 1
    if two.injections[0].table[0] == two.injections[1].table[0]:
        return FAIL, {"diagram": "canonical 1+1"}, checked
    one = terminal()
    for s in _objs(spec, "s"):
        for x in s.labels:
            for y in s.labels:
                i = FinMor(one, s, (x,))
                j = FinMor(one, s, (y,))
                if not _is_sum_diagram(spec, s, i, j):
                    continue
                checked += 1
                if x == y:
                    return FAIL, {"S": str(s), "x": x, "y": y}, checked
    return PASS, None, checked


def _ax_factorization(spec: CheckSpec):
    checked = 0
    for f in _morphism_pool(spec):
        e, i = image_factorization(f)
        checked += 1
        if compose(i, e) != f:
            return FAIL, {"f": str(f), "reason": "does not compose to f"}, checked
        if not i.is_injective():
            return FAIL, {"f": str(f), "reason": "mono part not injective"}, checked
        if not e.is_surjective():
            return FAIL, {"f": str(f), "reason": "onto part not surjective"}, checked
    return PASS, None, checked


def _ax_effective(spec: CheckSpec):
    checked = 0
    pools = list(_objs(spec, "x"))
    for x in pools:
        for rel in _equivalences(spec, x):
            q = quotient(rel)
            for a in x.labels:
                for b in x.labels:
                    checked += 1
                    if rel.member((a, b)) != (q(a) == q(b)):
                        return FAIL, {
                            "X": str(x), "a": a, "b": b,
                            "related": rel.member((a, b)),
                        }, checked
    for rel in spec.relations:
        if rel.arity != 2 or rel.cods[0] != rel.cods[1]:
            continue
        try:
            q = quotient(rel)
        except EquivalenceError:
            continue
        for a in rel.cods[0].labels:
            for b in rel.cods[0].labels:
                checked += 1
                if rel.member((a, b)) != (q(a) == q(b)):
                    return FAIL, {"relation": str(rel), "a": a, "b": b}, checked
    return PASS, None, checked


AXIOMS: dict[str, tuple[str, Callable]] = {
    "C1": ("terminal object with unique maps into it",
           lambda spec: _unique_maps(spec, lambda a: all_maps(a, terminal()))),
    "C2": ("binary products with unique pairing", _ax_products),
    "C3": ("equalizers with unique factorization", _ax_equalizers),
    "D1": ("initial object with unique maps out of it",
           lambda spec: _unique_maps(spec, lambda a: all_maps(initial(), a))),
    "D2": ("binary sums with unique copairing", _ax_sums),
    "D3": ("coequalizers with unique factorization", _ax_coequalizers),
    "Pi": ("dependent products along every composable pair", _ax_pi),
    "G": ("onto and mono implies isomorphism", _ax_onto_mono_iso),
    "PA": ("every carrier is covered by a choice object", _ax_choice_covers),
    "I": ("the initial carrier has no elements", _ax_no_initial_elements),
    "DP": ("every sum element comes from one of the injections", _ax_sum_disjunction),
    "NT": ("the two points of 1+1 differ in any sum diagram", _ax_nontrivial),
    "Fct": ("every map factors as onto followed by mono", _ax_factorization),
    "Eff": ("equivalence relations are kernel pairs of their quotients", _ax_effective),
}


# ---------------------------------------------------------------------------
# derived statements


def _thm_element_equality(spec: CheckSpec):
    checked = 0
    small = min(spec.bound, 2)
    for a, b in _carriers(spec, "ab"):
        maps = list(_maps(spec, a, b))
        for f in maps:
            checked += 1
            if kernel.is_mono(f, bound=small) != f.is_injective():
                return FAIL, {"f": str(f), "statement": "mono vs injective"}, checked
        for f in maps:
            for g in maps:
                agree = all(f(x) == g(x) for x in a.labels)
                checked += 1
                if agree != (f == g):
                    return FAIL, {
                        "f": str(f), "g": str(g), "statement": "pointwise equality",
                    }, checked
    return PASS, None, checked


def _thm_inclusion_orders(spec: CheckSpec):
    checked = 0
    for x in _objs(spec, "x"):
        monos = [sub_relation(m) for m in _mono_tables_into(x, "m")]
        # the pairs grow as (sum of |x|!/k!)^2, so they are drawn by index
        k = len(monos)
        for d in _draw(spec, x.labels, k * k):
            m, n = monos[d // k], monos[d % k]
            checked += 1
            row_incl = subseteq(m, n)
            factored, wit = leq(m, n)
            if row_incl != factored:
                return FAIL, {
                    "m": str(m), "n": str(n),
                    "subseteq": row_incl, "leq": factored,
                }, checked
            if factored and compose(n.legs[0], wit) != m.legs[0]:
                return FAIL, {"m": str(m), "n": str(n), "reason": "bad witness"}, checked
    return PASS, None, checked


def _thm_function_graphs(spec: CheckSpec):
    checked = 0
    for x, y in _carriers(spec, "xy"):
        cells = list(itertools.product(x.labels, y.labels))
        for rows in _subsets(spec, cells):
            rel = relation_from_tuples(rows, (x, y))
            row_set = set(rows)
            at_most = all(
                len([y2 for (x2, y2) in row_set if x2 == xl]) <= 1
                for xl in x.labels
            )
            exactly = all(
                len([y2 for (x2, y2) in row_set if x2 == xl]) == 1
                for xl in x.labels
            )
            checked += 1
            if is_partial_function(rel) != at_most:
                return FAIL, {"rows": sorted(map(list, row_set)),
                              "statement": "partial"}, checked
            if is_total_function(rel) != exactly:
                return FAIL, {"rows": sorted(map(list, row_set)),
                              "statement": "total"}, checked
            if exactly:
                fn = unique_choice(rel)
                if {(xl, fn(xl)) for xl in x.labels} != row_set:
                    return FAIL, {"rows": sorted(map(list, row_set)),
                                  "statement": "unique choice"}, checked
    return PASS, None, checked


def _eq10_counts(p1: FinMor, p2: FinMor, f: FinMor, g: FinMor) -> bool:
    """Whether (p1, p2) pairs the points of P one-to-one with the pairs (x, y)
    of f's and g's domains with f(x) = g(y).

    It does when its rows (p1(p), p2(p)) are distinct, each is such a pair,
    and they are as many as those pairs: the sum, over f's table, of the
    number of points g sends to each value.
    """
    rows = set(zip(p1.table, p2.table))
    if len(rows) != len(p1.table):
        return False
    at_f = dict(zip(f.dom.labels, f.table))
    at_g = dict(zip(g.dom.labels, g.table))
    if not all(x in at_f and y in at_g and at_f[x] == at_g[y] for x, y in rows):
        return False
    over = Counter(g.table)
    return len(rows) == sum(over[c] for c in f.table)


def _pullback_feet(square, f: FinMor, g: FinMor) -> bool:
    """Whether the legs of the square land on the feet of the cospan.

    The mediator buckets are keyed by tables, which carry no feet, so the
    feet are compared here once per square.
    """
    return square.p1.cod == f.dom and square.p2.cod == g.dom


def _cones(f: FinMor, g: FinMor, t: FinObj) -> Iterator[tuple[FinMor, FinMor]]:
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


def _thm_pullback_elements(spec: CheckSpec):
    verdict, witness, checked = _orbit_sweep(
        spec, _COSPAN, build=pullback, feet=_pullback_feet,
        face=(lambda s, f, g: _eq10_counts(s.p1, s.p2, f, g), {"reason": "constructed"}),
        # the square must be the rep's relabelled up to a bijection of
        # apexes: the same rows (p1, p2), counted with multiplicity
        same=lambda s0, s, gamma: sorted(zip(s.p1.table, s.p2.table)) == sorted(
            [(gamma[1][x], gamma[2][y]) for x, y in zip(s0.p1.table, s0.p2.table)]
        ),
        mediators=lambda s, t: Counter(
            (compose(s.p1, h).table, compose(s.p2, h).table) for h in all_maps(t, s.apex)
        ),
        cones=_cones,
        key=_tables,
        name=lambda cone, n: {"q1": str(cone[0]), "q2": str(cone[1])},
    )
    if verdict != PASS:
        return verdict, witness, checked
    cap = min(spec.bound, 2)
    small = CheckSpec(item=spec.item, bound=cap)
    for f, g in _instances(small, _COSPAN):
        square = pullback(f, g)
        if not _pullback_feet(square, f, g):
            return FAIL, {"f": str(f), "g": str(g), "face": "feet"}, checked
        for p_obj in _objs(small, "p"):
            for p1, p2 in _cones(f, g, p_obj):
                checked += 1
                criterion = _eq10_counts(p1, p2, f, g)
                mediator = square.mediate(p1, p2)
                is_pb = mediator.is_bijective()
                if criterion != is_pb:
                    return FAIL, {
                        "f": str(f), "g": str(g), "p1": str(p1), "p2": str(p2),
                        "criterion": criterion, "pullback": is_pb,
                    }, checked
    return PASS, None, checked


def _thm_quotients(spec: CheckSpec):
    checked = 0
    for x in _objs(spec, "x"):
        for rel in _equivalences(spec, x):
            q = quotient(rel)
            if q.dom != x:
                return FAIL, {"X": str(x), "face": "feet"}, checked
            rows = set(rel.tuples)
            for a in x.labels:
                for b in x.labels:
                    checked += 1
                    if ((a, b) in rows) != (q(a) == q(b)):
                        return FAIL, {"X": str(x), "a": a, "b": b}, checked
            visited, _, h, n = _sweep(_objs(spec, "t"), lambda t: Counter(
                compose(k, q).table for k in all_maps(q.cod, t)
            ), lambda t: (
                h for h in all_maps(x, t) if all(h(a) == h(b) for a, b in rows)
            ), _table)
            checked += visited
            if h is not None:
                return FAIL, {"X": str(x), "h": str(h), "mediators": n}, checked
    return PASS, None, checked


def _thm_induction(spec: CheckSpec):
    checked = 0
    prefix_len = 8
    universe = list(range(prefix_len + 1))
    for mask in range(1 << len(universe)):
        members = {n for n in universe if mask >> n & 1}
        base = 0 in members
        step = all(n + 1 in members for n in universe[:-1] if n in members)
        checked += 1
        if base and step and members != set(universe):
            return FAIL, {"subset": sorted(members)}, checked
    for a in _objs(spec, "a"):
        for h in _maps(spec, a, a):
            for lbl, b in zip(a.labels, kernel.elements(a)):
                seq = nno_prefix(prefix_len, b, h)
                checked += 1
                if seq[0] != b:
                    return FAIL, {"h": str(h), "base": lbl, "reason": "base"}, checked
                for n in range(prefix_len):
                    if seq[n + 1] != compose(h, seq[n]):
                        return FAIL, {"h": str(h), "base": lbl, "step": n}, checked
    return PASS, None, checked


def _thm_exponentials(spec: CheckSpec):
    checked = 0
    for x, y in _carriers(spec, "xy"):
        e_obj, ev_rel = exponential(x, y)
        checked += 1
        if len(e_obj) != len(y) ** len(x):
            return FAIL, {"X": str(x), "Y": str(y), "size": len(e_obj)}, checked
        d = pi_diagram(product(x, y).projections[0], unique_to_terminal(x))
        if len(d.F) != len(e_obj):
            return FAIL, {"X": str(x), "Y": str(y), "reason": "pi route disagrees"}, checked
        graphs: dict[str, set[tuple[str, str]]] = {s: set() for s in e_obj.labels}
        for s, xl, yl in ev_rel.tuples:
            graphs[s].add((xl, yl))
        for f in all_maps(x, y):
            wanted = {(xl, f(xl)) for xl in x.labels}
            matching = [s for s in e_obj.labels if graphs[s] == wanted]
            checked += 1
            if len(matching) != 1:
                return FAIL, {"f": str(f), "matching": matching}, checked
    return PASS, None, checked


def _thm_dependent_choice(spec: CheckSpec):
    checked = 0
    for x in _objs(spec, "x"):
        cells = list(itertools.product(x.labels, x.labels))
        for rows in map(set, _subsets(spec, cells)):
            if not all(any((a, b) in rows for b in x.labels) for a in x.labels):
                continue
            for start in x.labels:
                chain = [start]
                for _ in range(8):
                    cur = chain[-1]
                    nxt = next(b for b in x.labels if (cur, b) in rows)
                    chain.append(nxt)
                checked += 1
                for a, b in zip(chain, chain[1:]):
                    if (a, b) not in rows:
                        return FAIL, {"X": str(x), "start": start,
                                      "chain": chain}, checked
    return PASS, None, checked


def _thm_onto_pullback(spec: CheckSpec):
    checked = 0
    for f, g in _instances(spec, _COSPAN):
        square = pullback(f, g)
        if f.is_surjective():
            checked += 1
            if not square.p2.is_surjective():
                return FAIL, {"f": str(f), "g": str(g), "side": "p2"}, checked
        if g.is_surjective():
            checked += 1
            if not square.p1.is_surjective():
                return FAIL, {"f": str(f), "g": str(g), "side": "p1"}, checked
    return PASS, None, checked


def _is_cover(spec: CheckSpec, f: FinMor) -> bool:
    """No proper subcarrier of the codomain lets f factor through it."""
    image = set(f.table)
    for m in _mono_tables_into(f.cod, "j"):
        if image <= set(m.table) and not m.is_surjective():
            return False
    return True


def _thm_image_least(spec: CheckSpec):
    checked = 0
    for f in _morphism_pool(spec):
        e, i = image_factorization(f)
        checked += 1
        if compose(i, e) != f or not i.is_injective() or not e.is_surjective():
            return FAIL, {"f": str(f), "reason": "not a factorization"}, checked
        if not _is_cover(spec, e):
            return FAIL, {"f": str(f), "reason": "onto part not a cover"}, checked
        image_rel = sub_relation(i)
        for m in _mono_tables_into(f.cod, "j"):
            if not set(f.table) <= set(m.table):
                continue
            checked += 1
            other = sub_relation(m)
            row_incl = subseteq(image_rel, other)
            factored, wit = leq(image_rel, other)
            if not (row_incl and factored):
                return FAIL, {"f": str(f), "m": str(m)}, checked
            if compose(m, wit) != i:
                return FAIL, {"f": str(f), "m": str(m), "reason": "bad witness"}, checked
    return PASS, None, checked


def _thm_covers_onto(spec: CheckSpec):
    checked = 0
    for f in _morphism_pool(spec):
        checked += 1
        if _is_cover(spec, f) != f.is_surjective():
            return FAIL, {"f": str(f)}, checked
    return PASS, None, checked


def _thm_regularity(spec: CheckSpec):
    checked = 0
    for f, g in _instances(spec, _COSPAN):
        if not f.is_surjective():
            continue
        square = pullback(f, g)
        checked += 1
        if not _is_cover(spec, square.p2):
            return FAIL, {"f": str(f), "g": str(g),
                          "statement": "cover stability"}, checked
    for a in _objs(spec, "a"):
        h = unique_to_terminal(a)
        if not h.is_surjective():
            continue
        checked += 1
        sections = [s for s in all_maps(terminal(), a) if compose(h, s) == identity(terminal())]
        if not sections:
            return FAIL, {"object": str(a), "statement": "terminal projective"}, checked
    return PASS, None, checked


def _is_epi(spec: CheckSpec, f: FinMor) -> bool:
    """Right cancellation: each composite h∘f has h as its only mediator."""
    composites = functools.cache(lambda t: [compose(h, f) for h in all_maps(f.cod, t)])
    _, _, cone, _ = _sweep(_objs(_separating_pool(spec), "t"),
                           lambda t: Counter(map(_table, composites(t))), composites, _table)
    return cone is None


def _thm_epi_onto(spec: CheckSpec):
    checked = 0
    for f in _morphism_pool(spec):
        epi = _is_epi(spec, f)
        checked += 1
        if epi != f.is_surjective():
            return FAIL, {"f": str(f), "epi": epi}, checked
        if epi and kernel.is_mono(f, bound=min(spec.bound, 2)):
            if not f.is_bijective():
                return FAIL, {"f": str(f), "statement": "balance"}, checked
    return PASS, None, checked


def _thm_classifier(spec: CheckSpec):
    checked = 0
    two = bool_object()
    true_lbl = two.injections[1].table[0]
    for x in _objs(spec, "x"):
        for mask in range(1 << len(x)):
            rows = [(lbl,) for i, lbl in enumerate(x.labels) if mask >> i & 1]
            rel = relation_from_tuples(rows, (x,))
            chi = characteristic(rel)
            members = {r[0] for r in rows}
            checked += 1
            for lbl in x.labels:
                if (lbl in members) != (chi(lbl) == true_lbl):
                    return FAIL, {"X": str(x), "subset": sorted(members),
                                  "at": lbl}, checked
            good = [
                h for h in all_maps(x, two.apex)
                if all((lbl in members) == (h(lbl) == true_lbl) for lbl in x.labels)
            ]
            if len(good) != 1:
                return FAIL, {"X": str(x), "subset": sorted(members),
                              "classifiers": len(good)}, checked
    return PASS, None, checked


def _thm_pretopos(spec: CheckSpec):
    total = 0
    for part in (_thm_classifier, _ax_factorization, _thm_onto_pullback,
                 _thm_epi_onto, _ax_effective, _ax_sum_disjunction):
        verdict, witness, checked = part(spec)
        total += checked
        if verdict != PASS:
            return verdict, witness, total
    return PASS, None, total


def _thm_choice(spec: CheckSpec):
    checked = 0
    for a, b in _carriers(spec, "ab"):
        for h in _maps(spec, b, a):
            if not h.is_surjective():
                continue
            checked += 1
            if compose(h, _first_preimages(h)) != identity(a):
                return FAIL, {"h": str(h), "statement": "split onto"}, checked
    for f in _morphism_pool(spec):
        if not len(f.dom):
            continue
        checked += 1
        g = _first_preimages(f, fallback=f.dom.labels[0])
        if compose(compose(f, g), f) != f:
            return FAIL, {"f": str(f), "statement": "f∘g∘f = f"}, checked
    return PASS, None, checked


def _thm_pi_universality(spec: CheckSpec):
    verdict, witness, checked = _ax_pi(spec, count_sections=True)
    if verdict != PASS:
        return verdict, witness, checked
    competitor_cap = min(spec.bound, 3)
    small = CheckSpec(item=spec.item, bound=min(spec.bound, 2))
    for g, f in _instances(small, _COMPOSABLE):
        d = pi_diagram(g, f)
        fiber_allowed = {
            il: [v for v in d.F.labels if d.phi(v) == il] for il in f.cod.labels
        }
        for comp in _competitors(g, f, competitor_cap):
            allowed = [fiber_allowed[comp.phi(v2)] for v2 in comp.F.labels]
            good = []
            for choice in itertools.product(*allowed):
                t = FinMor(comp.F, d.F, choice)
                if pi_morphism_check(comp, d, t).passed:
                    good.append(t)
            checked += 1
            if len(good) != 1:
                return FAIL, {
                    "g": str(g), "f": str(f),
                    "competitor": str(comp.phi),
                    "morphisms": len(good),
                }, checked
    return PASS, None, checked


def _thm_internal_logic(spec: CheckSpec):
    x = carrier("x0", "x1", "x2")
    y = carrier("y0", "y1")
    env = Env(
        objects={"X": x, "Y": y},
        relations={
            "r": relation_from_tuples([("x0",), ("x1",)], (x,)),
            "s": relation_from_tuples([("x1",), ("x2",)], (x,)),
            "m": relation_from_tuples(
                [("x0", "y0"), ("x0", "y1"), ("x2", "y0")], (x, y)
            ),
        },
        morphisms={"f": FinMor(x, y, ("y0", "y0", "y1"))},
    )
    ctx = parse_context("x:X", env.objects)
    formulas = [
        r"r(x) /\ s(x)",
        r"r(x) \/ s(x)",
        r"r(x) => s(x)",
        r"~r(x)",
        "x = x",
        "f(x) = f(x)",
        "m(x, f(x))",
        "forall y:Y. m(x,y)",
        "exists y:Y. m(x,y)",
        r"forall y:Y. (m(x,y) => r(x))",
        r"exists y:Y. (m(x,y) /\ s(x))",
        r"(r(x) => s(x)) => s(x)",
        r"forall y:Y. exists y':Y. (m(x,y) \/ m(x,y'))",
        "true",
        "false",
        r"true => false",
    ]
    checked = 0
    for text in formulas:
        rep = verify(ctx, parse(text), env)
        checked += rep.instances_checked
        if not rep.passed:
            return FAIL, dict(rep.witness or {}), checked
    return PASS, None, checked


THEOREMS: dict[str, tuple[str, Callable]] = {
    "element-equality": (
        "parallel maps agreeing on points are equal; mono equals injective",
        _thm_element_equality,
    ),
    "inclusion-orders": (
        "row inclusion of subobjects coincides with factoring inclusion",
        _thm_inclusion_orders,
    ),
    "function-graphs": (
        "partial/total function tests match their row characterizations",
        _thm_function_graphs,
    ),
    "pullback-elements": (
        "a square is a pullback exactly when points pair uniquely",
        _thm_pullback_elements,
    ),
    "quotients": (
        "quotients identify exactly the related points and are universal",
        _thm_quotients,
    ),
    "induction": (
        "prefix induction and the unrolled recursion equations",
        _thm_induction,
    ),
    "exponentials": (
        "function spaces classify maps uniquely and match the pi route",
        _thm_exponentials,
    ),
    "dependent-choice": (
        "total relations admit prefix chains from every start",
        _thm_dependent_choice,
    ),
    "onto-pullback": (
        "pullbacks of onto maps are onto",
        _thm_onto_pullback,
    ),
    "image-factorization": (
        "the image is the least subobject a map factors through",
        _thm_image_least,
    ),
    "covers-onto": (
        "covers and onto maps coincide",
        _thm_covers_onto,
    ),
    "regularity": (
        "covers are pullback stable and the terminal carrier is projective",
        _thm_regularity,
    ),
    "epi-onto": (
        "right-cancellable maps are exactly the onto ones; balance",
        _thm_epi_onto,
    ),
    "classifier": (
        "subcarriers are classified by unique maps into 1+1",
        _thm_classifier,
    ),
    "pretopos": (
        "classifier, factorization, stability, balance, effectivity, disjoint sums",
        _thm_pretopos,
    ),
    "choice": (
        "every onto splits, and f∘g∘f = f has a solution when the domain is inhabited",
        _thm_choice,
    ),
    "pi-universality": (
        "constructed dependent products are universal; competitors map in uniquely",
        _thm_pi_universality,
    ),
    "internal-logic": (
        "compiled connectives and quantifiers agree with truth-table evaluation",
        _thm_internal_logic,
    ),
}


# ---------------------------------------------------------------------------
# entry points


def _run(kind: str, table: dict[str, tuple[str, Callable]], spec: CheckSpec) -> Report:
    if spec.item not in table:
        raise ValueError(
            f"unknown {kind} {spec.item!r}; known: {', '.join(sorted(table))}"
        )
    t0 = time.perf_counter()
    if spec.sampled and spec.item in _EXHAUSTIVE_ONLY:
        return _report(spec.item, t0, SKIP, {"reason": _SAMPLED_SKIP}, 0)
    return _report(spec.item, t0, *table[spec.item][1](spec))


def check_axiom(spec: CheckSpec) -> Report:
    """Run one axiom of ``AXIOMS``; raises ValueError for an unknown id."""
    return _run("axiom", AXIOMS, spec)


def check_theorem(spec: CheckSpec) -> Report:
    """Run one derived statement of ``THEOREMS``; raises ValueError for an unknown id."""
    return _run("theorem", THEOREMS, spec)

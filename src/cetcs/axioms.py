"""Exhaustive checkers for the axioms and the derived statements.

Each check enumerates every instance over canonical carriers of size up to a
bound (plus instances contributed by a loaded model) and verifies the
statement literally.  Universal properties quantify over all candidate
mediating maps, and one helper, ``_sweep``, decides every "exactly one
mediator per cone" statement over a list of test objects: for each test
object t the site counts how many candidates through t induce a cone of each
class, and lists the classes of cones over t with their sizes; the sweep
visits them in order, t by t, and stops at the first class whose count is
not its size.  There are two sites, one per variance, and each decides the
statement on orbits of relabelling t, since in finite sets it is invariant
under Aut(t) = S_|t| (Kerber, *Applied Finite Group Actions*, 1999):

- ``_limit_sweep`` takes the cone points, tuples with one point per foot: a
  cone from t is a map from t to them, and a map h: t -> apex induces the
  cone of its rows (leg(h(x)) for leg in legs).  An orbit of maps out of t
  is a multiset of |t| points, of size |t|!/∏ mult!;
- ``_colimit_sweep`` takes pairs of points of the feet that every cone
  merges: a cone into t is a map from the feet to t, and h: apex -> t
  induces h∘leg on each foot.  An orbit of maps into t is a partition into
  at most |t| blocks, of size |t|!/(|t| - blocks)!.

h -> legs∘h (or h∘legs) commutes with relabelling t, so every cone has
exactly one mediator exactly when, for each orbit C of cones, the sizes of
the orbits of maps h whose cones lie in C sum to |C|.  An orbit of cones
counts |C| visits, so the counts are those of a sweep of every cone; a
failing one names its first member in label order, and its mediators per
cone, the sum over |C|.  The checker computes the cone points from the
statement alone: the product of the feet's labels (C1, C2), the points a
with f(a) = g(a) (C3), the pairs (a, b) with f(a) = g(b)
(``pullback-elements``); the coequalizer's cones (D3, ``quotients``) merge
f(a) with g(a), and the cones of sums (D1, D2, sum recognition in DP and NT)
merge nothing.  C1 and D1 are the empty diagram, one empty cone per t.
Existence and uniqueness are read off those counts, never assumed from the
construction that produced the diagram, whose own mediator is never called.
``pullback-elements`` decides its small cones the same way, by a limit
sweep.  ``pi-universality`` hands ``_sweep`` the competitors of a dependent
product over each small apex W, each its own class, and counts every map
h: W -> F under the competitor it induces: phi∘h, with ev read at (h(w), x)
for each point (w, x) over it.  Epimorphisms and covers are recognized by
their definitions, not by ontoness, so the statements relating the notions
stay non-circular: ``_is_epi`` counts the distinct composites h∘f in one
pass over each hom-set, and ``_is_cover`` tries each proper subobject once,
as a subcarrier, since f factors through a mono exactly when its image lies
in the mono's image.

Statements about maps range over the instances of a shape: parallel pairs
(C3, D3), cospans (``pullback-elements``, ``onto-pullback``, ``regularity``)
or composable pairs (Pi, ``pi-universality``).  A shape constant names its
carrier pools in loop order and its legs, and ``_instances`` is the one
enumerator: the legs over each tuple of carriers in ``all_maps`` order,
first leg outermost and streamed.

A sweep reads no label: a limit sweep only the number of cone points and
the positions of the apex rows among them, a colimit sweep only the apex's
size and the partitions of the feet that the legs and the merged pairs
make.  So each item body keeps one dict, ``decided``, for its test objects,
and a sweep runs only on a key not in it; a failing class, stored with its
test object, is named with the instance's own points and legs.  C3, D3 and
``pullback-elements`` loop over their instances: each builds the
construction, compares its legs with the feet the statement names (cone
points carry none), checks its own face (the fork, or the point count) and
sweeps the legs.

Every entry of ``AXIOMS`` and ``THEOREMS`` is ``(description, *parts)``,
each part a generator function of the spec with one protocol: ``yield n``
adds n decided instances, ``return witness`` fails with that witness (an
empty one too), and falling off the end passes.  ``_run`` alone composes
them: it runs the parts in order, sums each part's counts into its total
and stops at the first witness.  A derived statement lists the parts it
rests on (``pretopos`` those of six items, ``image-factorization`` Fct's,
``pi-universality`` Pi's, ``quotients`` Eff's kernel pairs) instead of
checking them again.  Two statements are still checked by two bodies: that
onto maps into pool carriers split (PA's inner loop and ``choice``'s
first), and that onto and mono implies bijective (G and ``epi-onto``'s
balance clause).  Inside a ``shared_parts`` block,
which one ``cetcs check`` opens around all its items, ``_run`` keeps each
part's total and witness under the part and the spec with its item
blanked, once the part has run to its end, and credits a part that
already ran with that total and witness instead of running it again.
Outside a block, as in a library call of ``check_axiom`` or
``check_theorem``, every part runs.

Sampling mode (past the exhaustive threshold) draws each sampled family by
seeded index through ``_draw``: the maps of each hom-set (``_maps`` reads
each index as a table), the subsets of cells and the pairs of subobjects,
so each costs the draw, not the family's size.  Eff's equivalences,
``classifier``'s subsets and ``image-factorization``'s subobjects are not
sampled.  Items about uniqueness of mediating candidates are skipped with a
reason instead of pretending a sampled uniqueness sweep is exhaustive.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from . import kernel
from .errors import CompositionError, EquivalenceError
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
    pi_object,
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

# The six caps: each checks less than the bound, whatever the bound is.
MONO_TEST_CAP = 2  # the test objects of ``kernel.is_mono`` (G, element-equality, epi-onto)
SUM_DIAGRAM_CAP = 2  # the carriers on which DP recognizes sum diagrams
SMALL_SQUARE_CAP = 2  # the cones on which ``_small_squares`` judges eq. (10)
COMPETITOR_PAIR_CAP = 2  # the carriers of the pairs ``_pi_competitors`` sweeps
COMPETITOR_APEX_CAP = 3  # the apexes ``_pi_competitors`` sweeps over
UNROLLED_STEPS = 8  # the steps induction and dependent-choice unroll


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


def _objs(spec: CheckSpec, prefix: str) -> list[FinObj]:
    pool = [carrier_of_size(n, prefix) for n in range(spec.bound + 1)]
    for obj in spec.objects:
        if len(obj) <= spec.bound and obj not in pool:
            pool.append(obj)
    return pool


def _maps(spec: CheckSpec, a: FinObj, b: FinObj) -> Iterator[FinMor] | list[FinMor]:
    """The maps a -> b in ``all_maps`` order, or under sampling the maps at
    the indices ``_draw`` gives, each index read as the table's base-|b|
    digits, first point most significant."""
    if not spec.sampled:
        return all_maps(a, b)
    m, n = len(b), len(a)
    return [FinMor(a, b, tuple([b.labels[d // m ** (n - 1 - k) % m] for k in range(n)]))
            for d in _draw(spec, (a.labels, b.labels), m ** n)]


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


def _sweep(tests: Iterable[FinObj], mediators: Callable,
           cones: Callable) -> tuple[int, FinObj | None, object, int]:
    """Visit each test object's cones until one has other than exactly one mediator.

    ``cones(t)`` yields the cones over the test object t in classes, each as
    a class, its key and the number of cones in it, and ``mediators(t)``
    maps each key to the number of candidates through t whose cone lies in
    that class.  A class is an orbit, on which the count per cone is
    constant, or a single cone, so every cone of a class has exactly one
    mediator when the two numbers agree.  Returns the number of cones visited over all
    test objects, a failing class's included, then the test object, the
    class and the mediators per cone of the first class that fails, or
    ``None``, ``None`` and 1 when every cone has exactly one.
    """
    visited = 0
    for t in tests:
        counts = mediators(t)
        for cone, key, size in cones(t):
            visited += size
            n = counts.get(key, 0)
            if n != size:
                return visited, t, cone, n // size
    return visited, None, None, 1


def _multisets(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The orbits of the maps from a k-point carrier to n points under
    relabelling the k points, in lexicographic order: each is a multiset of
    k of the n points, as the ascending tuple of their positions, with its
    size k!/∏ mult!."""
    whole = math.factorial(k)
    for ms in itertools.combinations_with_replacement(range(n), k):
        # dividing by 1, 2, ..., m along each run of m equal positions
        size, run = whole, 1
        for a, b in zip(ms, ms[1:]):
            run = run + 1 if a == b else 1
            size //= run
        yield ms, size


def _partitions(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The orbits of the maps from n points to a k-point carrier under
    relabelling the k points, in lexicographic order: each is a partition of
    the n points into at most k blocks, as its restricted growth string (the
    block of each point, blocks numbered by their first points), with its
    size k!/(k-blocks)!.  Generated one at a time."""
    def grow(prefix: tuple[int, ...], blocks: int):
        if len(prefix) == n:
            yield prefix, math.perm(k, blocks)
            return
        for b in range(min(blocks + 1, k)):
            yield from grow((*prefix, b), max(blocks, b + 1))
    return grow((), 0)


def _renumbered(blocks: Iterable[int]) -> tuple[int, ...]:
    """The restricted growth string of the partition the block numbers make."""
    first: dict[int, int] = {}
    return tuple([first.setdefault(b, len(first)) for b in blocks])


def _equivalences(x: FinObj) -> Iterator[Relation]:
    """The equivalence relations on x: the kernel of each restricted growth
    string of ``_partitions``."""
    for blocks, _ in _partitions(len(x), len(x)):
        rows = [(a, b) for a, i in zip(x.labels, blocks)
                for b, j in zip(x.labels, blocks) if i == j]
        yield relation_from_tuples(rows, (x, x))


def _limit_sweep(tests: Iterable[FinObj], apex: FinObj, legs: Sequence[FinMor],
                 points: Sequence[tuple[str, ...]],
                 decided: dict) -> tuple[int, FinObj | None, object, int]:
    """``_sweep`` of the cones from each test object t, the maps c from t to
    the ``points`` (legs x -> c(x)[i]), by ``_multisets`` of the points,
    against the maps h: t -> apex, by multisets of the apex points whose
    rows (leg(p) for leg in legs) are points, each counted under the
    multiset of its rows.  The sweep reads only the number of points and
    the rows' positions among them, so it runs once per such key and
    ``decided``, kept by the caller for one list of test objects, holds its
    result.  A failing class is named by its member that sends the labels
    of t, in order, to its points in order."""
    if any(leg.dom != apex for leg in legs):
        raise CompositionError(f"a leg does not start at the apex {apex}")
    at = {p: n for n, p in enumerate(points)}
    # the rows of the apex points that lie over some point, ascending, so a
    # multiset of them maps to an ascending tuple of positions
    rows = sorted([i for i in (at.get(tuple([leg.table[k] for leg in legs]))
                               for k in range(len(apex))) if i is not None])
    key = len(points), tuple(rows)
    if key not in decided:
        def mediators(t: FinObj) -> dict[tuple[int, ...], int]:
            counts: dict[tuple[int, ...], int] = {}
            for ms, size in _multisets(len(rows), len(t)):
                cone = tuple([rows[i] for i in ms])
                counts[cone] = counts.get(cone, 0) + size
            return counts

        decided[key] = _sweep(tests, mediators, lambda t: (
            (ms, ms, size) for ms, size in _multisets(len(points), len(t))))
    visited, t, cone, n = decided[key]
    if cone is None:
        return visited, None, None, 1
    return visited, t, tuple(FinMor(t, leg.cod, tuple([points[i][j] for i in cone]))
                             for j, leg in enumerate(legs)), n


def _colimit_sweep(tests: Iterable[FinObj], apex: FinObj, legs: Sequence[FinMor],
                   merged: Sequence[tuple[int, int]],
                   decided: dict) -> tuple[int, FinObj | None, object, int]:
    """``_sweep`` of the cones into each test object t, the maps from the
    points of the feet (numbered foot after foot in label order) to t that
    send both points of each ``merged`` pair to one point, by
    ``_partitions`` of the feet, against the maps h: apex -> t, by
    partitions of the apex, each counted under the partition of the feet it
    pulls back along the legs.  The sweep reads only the apex's size, the
    partition of the feet the legs make, and the one the ``merged`` pairs
    generate, so it runs once per such key and ``decided``, kept by the
    caller for one list of test objects, holds its result.  A failing class
    is named by its member that sends its blocks, in order, to the labels
    of t in order."""
    if any(leg.cod != apex for leg in legs):
        raise CompositionError(f"a leg does not end at the apex {apex}")
    places = [apex.index[y] for leg in legs for y in leg.table]
    # each point of the feet names a point of its merged class
    joined = list(range(len(places)))
    for a, b in merged:
        old, new = joined[a], joined[b]
        joined = [new if c == old else c for c in joined]
    key = len(apex), _renumbered(places), _renumbered(joined)
    if key not in decided:
        def mediators(t: FinObj) -> dict[tuple[int, ...], int]:
            counts: dict[tuple[int, ...], int] = {}
            for blocks, size in _partitions(len(apex), len(t)):
                cone = _renumbered([blocks[i] for i in places])
                counts[cone] = counts.get(cone, 0) + size
            return counts

        def cones(t: FinObj) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
            for blocks, size in _partitions(len(places), len(t)):
                if all(blocks[a] == blocks[b] for a, b in enumerate(joined)):
                    yield blocks, blocks, size

        decided[key] = _sweep(tests, mediators, cones)
    visited, t, cone, n = decided[key]
    if cone is None:
        return visited, None, None, 1
    images = iter([t.labels[b] for b in cone])
    return visited, t, tuple(FinMor(leg.dom, t, tuple(itertools.islice(images, len(leg.dom))))
                             for leg in legs), n


# ---------------------------------------------------------------------------
# dependent-product checking (shared by the axiom and the CLI `pi` command)


def _report(item: str, t0: float, verdict: str, witness: dict | None, checked: int) -> Report:
    """The report of a check begun at ``t0``."""
    # positional: Pi builds one per pair, and keywords double its cost
    return Report(item, verdict, witness, checked, time.perf_counter() - t0)


def _fibers(m: FinMor) -> dict[str, tuple[str, ...]]:
    """Each point of m's codomain, mapped to its preimage in domain order.

    m keeps the result as ``_check_fibers``, as a carrier keeps its index,
    so a leg met again (Pi reuses each f across every g of its carriers) is
    indexed once.  The fibers are tuples, so no caller can change what the
    next one reads, and they are read off the table, so equality and
    hashing, which look only at the fields, ignore them.  The name is the
    checker's own: the constructions never read it, nor it theirs.
    """
    kept = m.__dict__.get("_check_fibers")
    if kept is None:
        fibers: dict[str, list[str]] = {c: [] for c in m.cod.labels}
        for x, c in zip(m.dom.labels, m.table):
            fibers[c].append(x)
        kept = m.__dict__["_check_fibers"] = {c: tuple(xs) for c, xs in fibers.items()}
    return kept


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
    them itself: P by its (pi1, pi2) rows, each mapped to its ev value, and
    g and f by value through ``_fibers``, which keeps each leg's fibers on
    the leg as ``_check_fibers``, so an f met again is not indexed again.
    It never reads what ``pi_diagram`` keeps on the legs.  Every face counts
    one instance per statement it decides, in the order above; the
    pullback face is decided by counting too, and walks its (v, x) pairs
    only to name the first that fails.

    The element-wise criterion is decided by counting.  Once the earlier
    faces pass, the rows of each v over i are a section of g over the
    f-fiber of i: one row per x of the fiber by the pullback face, with
    g(y) = x by the triangle.  So over each i the points of F map into the
    n_i sections, where n_i is the product of the g-fiber sizes over the
    f-fiber of i, and "exactly one point per section" says this map is a
    bijection: the points over i carry pairwise distinct sections, and
    there are n_i of them.  Summed over i, and since no i has more distinct
    sections than points or than n_i, that is: the distinct (i, section)
    pairs number |F| and sum n_i, a sum ``_section_count`` takes.  The
    sections are enumerated, one lookup each, only when this fails, to name
    the first psi with no point or with two; each psi counts one instance
    either way.  When every psi has exactly one point, the sum was wrong,
    and the face ``section count`` names |F| and the sum.
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
    fiber_f = _fibers(f)
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
    sections = _section_count(g, f)
    distinct = {(i, *[at[v, x] for x in fiber_f[i]]) for v, i in zip(F.labels, phi_table)}
    if len(distinct) == len(F.labels) == sections:
        return _report(item, t0, PASS, None, checked + sections)
    points_over: dict[str, dict[frozenset, list[str]]] = {i: {} for i in i_obj.labels}
    for v, i in zip(F.labels, phi_table):
        psi = frozenset([(x, at[v, x]) for x in fiber_f[i]])
        points_over[i].setdefault(psi, []).append(v)
    fiber_g = _fibers(g)
    for i in i_obj.labels:
        xs, index = fiber_f[i], points_over[i]
        for choice in itertools.product(*[fiber_g[x] for x in xs]):
            checked += 1
            psi = frozenset(zip(xs, choice))
            matching = index.get(psi, [])
            if len(matching) != 1:
                return _report(item, t0, FAIL, {"i": i, "psi": sorted(map(list, psi)),
                                                "matching": matching}, checked)
    # every section has exactly one point, so the sum of sections was wrong
    return _report(item, t0, FAIL, {"face": "section count", "points": len(F.labels),
                                    "sections": sections}, checked)


def _section_count(g: FinMor, f: FinMor) -> int:
    """Independent size oracle: the sum over i of the product of the g-fiber
    sizes over the f-fiber of i, read off the fibers ``_fibers`` keeps on
    each leg as ``_check_fibers``, never off a construction's."""
    fiber_g = _fibers(g)
    total = 0
    for xs in _fibers(f).values():
        n = 1
        for x in xs:
            n *= len(fiber_g[x])
        total += n
    return total


# ---------------------------------------------------------------------------
# axiom checks


def _ax_universal(spec: CheckSpec, feet: str, build: Callable, limit: bool):
    """The item body of C1 and C2 (limits) and D1 and D2 (colimits): on each
    tuple of carriers from the pools ``feet`` names, ``build`` gives an apex
    and one leg between it and each carrier (else face ``feet``), and every
    cone of one map per foot from (into) each test object, one empty cone
    when there are no feet, has exactly one mediator.  Each tuple yields its
    visits before any witness."""
    tests, decided = _objs(spec, "t"), {}
    sweep = _limit_sweep if limit else _colimit_sweep
    for objs in _carriers(spec, feet):
        apex, legs = build(*objs)
        where = dict(zip(feet.upper(), map(str, objs)))
        # each leg's (apex end, foot end); list equality tries identity first
        ends = [(leg.dom, leg.cod) if limit else (leg.cod, leg.dom) for leg in legs]
        if ends != [(apex, x) for x in objs]:
            return {**where, "face": "feet"}
        # a limit cone may land on any point of the feet's product, and a
        # colimit cone need merge no two points
        visited, t, cone, n = sweep(tests, apex, legs, list(itertools.product(
            *[x.labels for x in objs])) if limit else (), decided)
        yield visited
        if cone is not None:
            return {**where, "T": str(t), **dict(zip("fg", map(str, cone))), "mediators": n}


def _merged(f: FinMor, g: FinMor) -> list[tuple[int, int]]:
    """The positions of f(a) and g(a) in their codomain, for each a: a
    coequalizer's cones merge each such pair."""
    at = f.cod.index
    return [(at[x], at[y]) for x, y in zip(f.table, g.table)]


def _ax_equalizers(spec: CheckSpec):
    tests, decided = _objs(spec, "t"), {}
    for f, g in _instances(spec, _PAIR):
        e = equalizer(f, g)
        if e.cod != f.dom:
            return {"f": str(f), "g": str(g), "face": "feet"}
        yield 1
        if compose(f, e) != compose(g, e):
            return {"f": str(f), "g": str(g), "face": "fork"}
        # the cones land on the points a with f(a) = g(a)
        visits, _, cone, n = _limit_sweep(tests, e.dom, (e,), [
            (a,) for a, x, y in zip(f.dom.labels, f.table, g.table) if x == y], decided)
        yield visits
        if cone is not None:
            return {"f": str(f), "g": str(g), "h": str(cone[0]), "mediators": n}


def _ax_coequalizers(spec: CheckSpec):
    tests, decided = _objs(spec, "t"), {}
    for f, g in _instances(spec, _PAIR):
        q = coequalizer(f, g)
        if q.dom != f.cod:
            return {"f": str(f), "g": str(g), "face": "feet"}
        yield 1
        if compose(q, f) != compose(q, g):
            return {"f": str(f), "g": str(g), "face": "fork"}
        visits, _, cone, n = _colimit_sweep(tests, q.cod, (q,), _merged(f, g), decided)
        yield visits
        if cone is not None:
            return {"f": str(f), "g": str(g), "h": str(cone[0]), "mediators": n}


def _ax_pi(spec: CheckSpec):
    for g, f in _instances(spec, _COMPOSABLE):
        rep = check_pi_universal(pi_diagram(g, f), g, f)
        yield rep.instances_checked
        if not rep.passed:
            return {**(rep.witness or {}), "g": str(g), "f": str(f)}


def _first_preimages(f: FinMor, fallback: str | None = None) -> FinMor:
    """The map cod(f) -> dom(f) sending each point to its first preimage
    under f, or to ``fallback`` when it has none, through the validating
    ``FinMor``."""
    return FinMor(f.cod, f.dom, tuple(
        f.dom.labels[f.table.index(y)] if y in f.table else fallback for y in f.cod.labels
    ))


def _ax_onto_mono_iso(spec: CheckSpec):
    for f in _morphism_pool(spec):
        onto = f.is_surjective()
        mono = kernel.is_mono(f, bound=min(spec.bound, MONO_TEST_CAP))
        yield 1
        if not (onto and mono):
            continue
        if not f.is_bijective():
            return {"f": str(f), "reason": "not bijective"}
        inverse = _first_preimages(f)
        if compose(inverse, f) != identity(f.dom) or compose(f, inverse) != identity(f.cod):
            return {"f": str(f), "reason": "inverse fails"}


def _ax_choice_covers(spec: CheckSpec):
    for a in _objs(spec, "a"):
        cover = projective_cover(a)
        yield 1
        if not cover.is_surjective():
            return {"object": str(a), "reason": "cover not onto"}
        p = cover.dom
        for b in _objs(spec, "b"):
            for h in _maps(spec, b, p):
                if not h.is_surjective():
                    continue
                yield 1
                if compose(h, _first_preimages(h)) != identity(p):
                    return {"object": str(a), "h": str(h)}


def _ax_no_initial_elements(spec: CheckSpec):
    yield 1
    points = kernel.elements(initial())
    if points:
        return {"elements": len(points)}


def _separating_pool(spec: CheckSpec) -> CheckSpec:
    """Recognition sweeps need a two-point separator among the test objects.

    The two-point carrier is 1+1, which the category contains no matter how
    small the enumeration bound is; without it every parallel pair into a
    singleton agrees and sum/epi recognition would accept junk.
    """
    if spec.bound >= 2:
        return spec
    return CheckSpec(item=spec.item, bound=2)


def _is_sum_diagram(tests: list[FinObj], decided: dict, i: FinMor, j: FinMor) -> bool:
    _, _, cone, _ = _colimit_sweep(tests, i.cod, (i, j), (), decided)
    return cone is None


def _ax_sum_disjunction(spec: CheckSpec):
    for a, b in _carriers(spec, "ab"):
        d = coproduct(a, b)
        left = set(d.injections[0].table)
        right = set(d.injections[1].table)
        for z in d.apex.labels:
            yield 1
            if z not in left and z not in right:
                return {"A": str(a), "B": str(b), "z": z}
    small = CheckSpec(item=spec.item, bound=min(spec.bound, SUM_DIAGRAM_CAP))
    tests, decided = _objs(_separating_pool(small), "t"), {}
    for a, b in _carriers(small, "ab"):
        s = carrier_of_size(len(a) + len(b), "s")
        for i in all_maps(a, s):
            for j in all_maps(b, s):
                if not _is_sum_diagram(tests, decided, i, j):
                    continue
                left = set(i.table)
                right = set(j.table)
                for z in s.labels:
                    yield 1
                    if z not in left and z not in right:
                        return {"i": str(i), "j": str(j), "z": z}


def _ax_nontrivial(spec: CheckSpec):
    two = bool_object()
    yield 1
    if two.injections[0].table[0] == two.injections[1].table[0]:
        return {"diagram": "canonical 1+1"}
    one, tests, decided = terminal(), _objs(_separating_pool(spec), "t"), {}
    for s in _objs(spec, "s"):
        for x in s.labels:
            for y in s.labels:
                i = FinMor(one, s, (x,))
                j = FinMor(one, s, (y,))
                if not _is_sum_diagram(tests, decided, i, j):
                    continue
                yield 1
                if x == y:
                    return {"S": str(s), "x": x, "y": y}


def _ax_factorization(spec: CheckSpec):
    for f in _morphism_pool(spec):
        e, i = image_factorization(f)
        if e.cod is not i.dom and e.cod != i.dom:
            return {"f": str(f), "face": "feet"}
        yield 1
        if compose(i, e) != f:
            return {"f": str(f), "reason": "does not compose to f"}
        if not i.is_injective():
            return {"f": str(f), "reason": "mono part not injective"}
        if not e.is_surjective():
            return {"f": str(f), "reason": "onto part not surjective"}


def _kernel_pair(rel: Relation, q: FinMor, where: dict):
    """The equivalence rel on x is the kernel pair of its quotient q: q
    starts at x (else face ``feet``), and each pair (a, b) of points of x
    yields 1 and has q(a) = q(b) exactly when rel relates it."""
    x = rel.cods[0]
    if q.dom != x:
        return {**where, "face": "feet"}
    for a in x.labels:
        for b in x.labels:
            yield 1
            related = rel.member((a, b))
            if related != (q(a) == q(b)):
                return {**where, "a": a, "b": b, "related": related}


def _kernel_pairs(spec: CheckSpec):
    for x in _objs(spec, "x"):
        for rel in _equivalences(x):
            witness = yield from _kernel_pair(rel, quotient(rel), {"X": str(x)})
            if witness is not None:
                return witness


def _model_kernel_pairs(spec: CheckSpec):
    pool = _objs(spec, "x")  # _kernel_pairs walks every equivalence on these
    for rel in spec.relations:
        if rel.arity != 2 or rel.cods[0] != rel.cods[1] or rel.cods[0] in pool:
            continue
        try:
            q = quotient(rel)
        except EquivalenceError:
            continue
        witness = yield from _kernel_pair(rel, q, {"relation": str(rel)})
        if witness is not None:
            return witness


AXIOMS: dict[str, tuple] = {
    "C1": ("terminal object with unique maps into it", lambda spec: _ax_universal(
        spec, "", lambda: (terminal(), ()), limit=True)),
    "C2": ("binary products with unique pairing", lambda spec: _ax_universal(
        spec, "ab", lambda a, b: operator.attrgetter("apex", "projections")(product(a, b)),
        limit=True)),
    "C3": ("equalizers with unique factorization", _ax_equalizers),
    "D1": ("initial object with unique maps out of it", lambda spec: _ax_universal(
        spec, "", lambda: (initial(), ()), limit=False)),
    "D2": ("binary sums with unique copairing", lambda spec: _ax_universal(
        spec, "ab", lambda a, b: operator.attrgetter("apex", "injections")(coproduct(a, b)),
        limit=False)),
    "D3": ("coequalizers with unique factorization", _ax_coequalizers),
    "Pi": ("dependent products along every composable pair", _ax_pi),
    "G": ("onto and mono implies isomorphism", _ax_onto_mono_iso),
    "PA": ("every carrier is covered by a choice object", _ax_choice_covers),
    "I": ("the initial carrier has no elements", _ax_no_initial_elements),
    "DP": ("every sum element comes from one of the injections", _ax_sum_disjunction),
    "NT": ("the two points of 1+1 differ in any sum diagram", _ax_nontrivial),
    "Fct": ("every map factors as onto followed by mono", _ax_factorization),
    "Eff": ("equivalence relations are kernel pairs of their quotients",
            _kernel_pairs, _model_kernel_pairs),
}


# ---------------------------------------------------------------------------
# derived statements


def _thm_element_equality(spec: CheckSpec):
    small = min(spec.bound, MONO_TEST_CAP)
    for a, b in _carriers(spec, "ab"):
        maps = list(_maps(spec, a, b))
        for f in maps:
            yield 1
            if kernel.is_mono(f, bound=small) != f.is_injective():
                return {"f": str(f), "statement": "mono vs injective"}
        for f in maps:
            for g in maps:
                agree = all(f(x) == g(x) for x in a.labels)
                yield 1
                if agree != (f == g):
                    return {
                        "f": str(f), "g": str(g), "statement": "pointwise equality",
                    }


def _thm_inclusion_orders(spec: CheckSpec):
    for x in _objs(spec, "x"):
        monos = [sub_relation(m) for m in _mono_tables_into(x, "m")]
        # the pairs grow as (sum of |x|!/k!)^2, so they are drawn by index
        k = len(monos)
        for d in _draw(spec, x.labels, k * k):
            m, n = monos[d // k], monos[d % k]
            yield 1
            row_incl = subseteq(m, n)
            factored, wit = leq(m, n)
            if row_incl != factored:
                return {
                    "m": str(m), "n": str(n),
                    "subseteq": row_incl, "leq": factored,
                }
            if factored and compose(n.legs[0], wit) != m.legs[0]:
                return {"m": str(m), "n": str(n), "reason": "bad witness"}


def _thm_function_graphs(spec: CheckSpec):
    for x, y in _carriers(spec, "xy"):
        cells = list(itertools.product(x.labels, y.labels))
        for rows in _subsets(spec, cells):
            rel = relation_from_tuples(rows, (x, y))
            row_set = set(rows)
            firsts = Counter([xl for xl, _ in row_set])
            at_most = all(n <= 1 for n in firsts.values())
            exactly = at_most and len(firsts) == len(x)
            yield 1
            if is_partial_function(rel) != at_most:
                return {"rows": sorted(map(list, row_set)), "statement": "partial"}
            if is_total_function(rel) != exactly:
                return {"rows": sorted(map(list, row_set)), "statement": "total"}
            if exactly:
                fn = unique_choice(rel)
                if {(xl, fn(xl)) for xl in x.labels} != row_set:
                    return {"rows": sorted(map(list, row_set)), "statement": "unique choice"}


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


def _commuting(f: FinMor, g: FinMor) -> list[tuple[str, str]]:
    """The pairs (a, b) with f(a) = g(b), a-major: a cone over the cospan
    (f, g) lands on them."""
    return [(a, b) for a, x in zip(f.dom.labels, f.table)
            for b, y in zip(g.dom.labels, g.table) if x == y]


def _pullback_sweeps(spec: CheckSpec):
    tests, decided = _objs(spec, "t"), {}
    for f, g in _instances(spec, _COSPAN):
        s = pullback(f, g)
        # the sweep reads tables, which carry no feet
        if (s.p1.dom, s.p2.dom, s.p1.cod, s.p2.cod) != (s.apex, s.apex, f.dom, g.dom):
            return {"f": str(f), "g": str(g), "face": "feet"}
        yield 1
        if not _eq10_counts(s.p1, s.p2, f, g):
            return {"f": str(f), "g": str(g), "reason": "constructed"}
        visits, _, cone, _ = _limit_sweep(tests, s.apex, (s.p1, s.p2), _commuting(f, g), decided)
        yield visits
        if cone is not None:
            return {"f": str(f), "g": str(g), "q1": str(cone[0]), "q2": str(cone[1])}


def _small_squares(spec: CheckSpec):
    """Eq. (10) against the definition, a limit sweep of each small cone;
    the small objects serve as both apexes and test objects."""
    small = CheckSpec(item=spec.item, bound=min(spec.bound, SMALL_SQUARE_CAP))
    objs, decided = _objs(small, "p"), {}
    for f, g in _instances(small, _COSPAN):
        points = _commuting(f, g)
        for p_obj in objs:
            for rows in itertools.product(points, repeat=len(p_obj)):
                p1 = FinMor(p_obj, f.dom, tuple([a for a, _ in rows]))
                p2 = FinMor(p_obj, g.dom, tuple([b for _, b in rows]))
                yield 1
                criterion = _eq10_counts(p1, p2, f, g)
                _, _, cone, _ = _limit_sweep(objs, p_obj, (p1, p2), points, decided)
                is_pb = cone is None
                if criterion != is_pb:
                    return {
                        "f": str(f), "g": str(g), "p1": str(p1), "p2": str(p2),
                        "criterion": criterion, "pullback": is_pb,
                    }


def _quotient_sweeps(spec: CheckSpec):
    """Each quotient is universal among the maps coequalizing its relation."""
    tests, decided = _objs(spec, "t"), {}
    for x in _objs(spec, "x"):
        for rel in _equivalences(x):
            q = quotient(rel)
            visited, _, cone, n = _colimit_sweep(tests, q.cod, (q,), _merged(*rel.legs),
                                                 decided)
            yield visited
            if cone is not None:
                return {"X": str(x), "h": str(cone[0]), "mediators": n}


def _thm_induction(spec: CheckSpec):
    universe = list(range(UNROLLED_STEPS + 1))
    for mask in range(1 << len(universe)):
        members = {n for n in universe if mask >> n & 1}
        base = 0 in members
        step = all(n + 1 in members for n in universe[:-1] if n in members)
        yield 1
        if base and step and members != set(universe):
            return {"subset": sorted(members)}
    for a in _objs(spec, "a"):
        for h in _maps(spec, a, a):
            for lbl, b in zip(a.labels, kernel.elements(a)):
                seq = nno_prefix(UNROLLED_STEPS, b, h)
                yield 1
                if seq[0] != b:
                    return {"h": str(h), "base": lbl, "reason": "base"}
                for n in range(UNROLLED_STEPS):
                    if seq[n + 1] != compose(h, seq[n]):
                        return {"h": str(h), "base": lbl, "step": n}


def _thm_exponentials(spec: CheckSpec):
    for x, y in _carriers(spec, "xy"):
        e_obj, ev_rel = exponential(x, y)
        yield 1
        if len(e_obj) != len(y) ** len(x):
            return {"X": str(x), "Y": str(y), "size": len(e_obj)}
        d = pi_diagram(product(x, y).projections[0], unique_to_terminal(x))
        if len(d.F) != len(e_obj):
            return {"X": str(x), "Y": str(y), "reason": "pi route disagrees"}
        graphs: dict[str, set[tuple[str, str]]] = {s: set() for s in e_obj.labels}
        for s, xl, yl in ev_rel.tuples:
            graphs[s].add((xl, yl))
        for f in all_maps(x, y):
            wanted = {(xl, f(xl)) for xl in x.labels}
            matching = [s for s in e_obj.labels if graphs[s] == wanted]
            yield 1
            if len(matching) != 1:
                return {"f": str(f), "matching": matching}


def _thm_dependent_choice(spec: CheckSpec):
    for x in _objs(spec, "x"):
        cells = list(itertools.product(x.labels, x.labels))
        points = list(zip(x.labels, kernel.elements(x)))
        for rows in map(set, _subsets(spec, cells)):
            firsts = [next((b for b in x.labels if (a, b) in rows), None) for a in x.labels]
            if None in firsts:
                continue
            # the chain from each start follows the first successor, unrolled
            # by the library's recursion
            h = FinMor(x, x, tuple(firsts))
            for start, b in points:
                chain = [p.table[0] for p in nno_prefix(UNROLLED_STEPS, b, h)]
                yield 1
                if (len(chain) != UNROLLED_STEPS + 1 or chain[0] != start
                        or not rows.issuperset(zip(chain, chain[1:]))):
                    return {"X": str(x), "start": start, "chain": chain}


def _thm_onto_pullback(spec: CheckSpec):
    for f, g in _instances(spec, _COSPAN):
        square = pullback(f, g)
        if f.is_surjective():
            yield 1
            if not square.p2.is_surjective():
                return {"f": str(f), "g": str(g), "side": "p2"}
        if g.is_surjective():
            yield 1
            if not square.p1.is_surjective():
                return {"f": str(f), "g": str(g), "side": "p1"}


def _is_cover(f: FinMor) -> bool:
    """f factors through no proper subobject of its codomain; it factors
    through a mono exactly when its image lies in the mono's image, so each
    proper subobject is tried once, as a subcarrier."""
    image = set(f.table)
    labels = f.cod.labels
    return not any(image.issubset(sub) for k in range(len(labels))
                   for sub in itertools.combinations(labels, k))


def _image_least(spec: CheckSpec):
    """After Fct, which counts each f: the onto part is a cover, and the
    image lies below every subobject f factors through."""
    for f in _morphism_pool(spec):
        e, i = image_factorization(f)
        if not _is_cover(e):
            return {"f": str(f), "reason": "onto part not a cover"}
        image_rel = sub_relation(i)
        for m in _mono_tables_into(f.cod, "j"):
            if not set(f.table) <= set(m.table):
                continue
            yield 1
            other = sub_relation(m)
            row_incl = subseteq(image_rel, other)
            factored, wit = leq(image_rel, other)
            if not (row_incl and factored):
                return {"f": str(f), "m": str(m)}
            if compose(m, wit) != i:
                return {"f": str(f), "m": str(m), "reason": "bad witness"}


def _thm_covers_onto(spec: CheckSpec):
    for f in _morphism_pool(spec):
        yield 1
        if _is_cover(f) != f.is_surjective():
            return {"f": str(f)}


def _thm_regularity(spec: CheckSpec):
    for f, g in _instances(spec, _COSPAN):
        if not f.is_surjective():
            continue
        square = pullback(f, g)
        yield 1
        if not _is_cover(square.p2):
            return {"f": str(f), "g": str(g), "statement": "cover stability"}
    for a in _objs(spec, "a"):
        h = unique_to_terminal(a)
        if not h.is_surjective():
            continue
        yield 1
        sections = [s for s in all_maps(terminal(), a) if compose(h, s) == identity(terminal())]
        if not sections:
            return {"object": str(a), "statement": "terminal projective"}


def _is_epi(spec: CheckSpec, f: FinMor) -> bool:
    """Right cancellation: the maps h out of cod f into each test object t
    have pairwise distinct composites h∘f, |t|^|cod f| of them."""
    return all(len({compose(h, f).table for h in all_maps(f.cod, t)}) == len(t) ** len(f.cod)
               for t in _objs(_separating_pool(spec), "t"))


def _thm_epi_onto(spec: CheckSpec):
    for f in _morphism_pool(spec):
        epi = _is_epi(spec, f)
        yield 1
        if epi != f.is_surjective():
            return {"f": str(f), "epi": epi}
        if epi and kernel.is_mono(f, bound=min(spec.bound, MONO_TEST_CAP)):
            if not f.is_bijective():
                return {"f": str(f), "statement": "balance"}


def _thm_classifier(spec: CheckSpec):
    two = bool_object()
    true_lbl = two.injections[1].table[0]
    for x in _objs(spec, "x"):
        for mask in range(1 << len(x)):
            rows = [(lbl,) for i, lbl in enumerate(x.labels) if mask >> i & 1]
            rel = relation_from_tuples(rows, (x,))
            chi = characteristic(rel)
            members = {r[0] for r in rows}
            yield 1
            for lbl in x.labels:
                if (lbl in members) != (chi(lbl) == true_lbl):
                    return {"X": str(x), "subset": sorted(members), "at": lbl}
            good = [
                h for h in all_maps(x, two.apex)
                if all((lbl in members) == (h(lbl) == true_lbl) for lbl in x.labels)
            ]
            if len(good) != 1:
                return {"X": str(x), "subset": sorted(members), "classifiers": len(good)}


def _thm_choice(spec: CheckSpec):
    for a, b in _carriers(spec, "ab"):
        for h in _maps(spec, b, a):
            if not h.is_surjective():
                continue
            yield 1
            if compose(h, _first_preimages(h)) != identity(a):
                return {"h": str(h), "statement": "split onto"}
    for f in _morphism_pool(spec):
        if not len(f.dom):
            continue
        yield 1
        g = _first_preimages(f, fallback=f.dom.labels[0])
        if compose(compose(f, g), f) != f:
            return {"f": str(f), "statement": "f∘g∘f = f"}


def _pi_sections(spec: CheckSpec):
    """After Pi: the product the internal logic reads has the oracle's size."""
    for g, f in _instances(spec, _COMPOSABLE):
        yield 1
        if len(pi_object(g, f).dom) != _section_count(g, f):
            return {"g": str(g), "f": str(f), "statement": "section count"}


def _pi_competitors(spec: CheckSpec):
    # A competitor (phi2, ev2) over W chooses a point of g's fiber over x for
    # each point (w, x) of the pullback of phi2 along f, in ``pullback``'s
    # order; a map into F whose (h(w), x) the product's P lacks reads None.
    # A competitor is counted, both as a cone and as the one a map into F
    # induces, under the tables of its two faces: (phi2, ev2).
    apexes = [carrier_of_size(n, "w")
              for n in range(min(spec.bound, COMPETITOR_APEX_CAP) + 1)]
    small = CheckSpec(item=spec.item, bound=min(spec.bound, COMPETITOR_PAIR_CAP))
    for g, f in _instances(small, _COMPOSABLE):
        d = pi_diagram(g, f)
        phi = dict(zip(d.F.labels, d.phi.table))
        at = dict(zip(zip(d.pi1.table, d.pi2.table), d.ev.table))
        fiber_f, fiber_g = _fibers(f), _fibers(g)

        def induced(h: FinMor) -> tuple:
            over = tuple([phi[v] for v in h.table])
            return over, tuple(
                [at.get((v, x)) for v, i in zip(h.table, over) for x in fiber_f[i]])

        def competitors(w: FinObj) -> Iterator[tuple[FinMor, tuple, int]]:
            for phi2 in all_maps(w, f.cod):
                for ev2 in itertools.product(
                        *[fiber_g[x] for i in phi2.table for x in fiber_f[i]]):
                    yield phi2, (phi2.table, ev2), 1

        visited, _, phi2, n = _sweep(
            apexes, lambda w: Counter(map(induced, all_maps(w, d.F))), competitors)
        yield visited
        if phi2 is not None:
            return {"g": str(g), "f": str(f), "competitor": str(phi2), "morphisms": n}


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
    for text in formulas:
        rep = verify(ctx, parse(text), env)
        yield rep.instances_checked
        if not rep.passed:
            return dict(rep.witness or {})


THEOREMS: dict[str, tuple] = {
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
        _pullback_sweeps, _small_squares,
    ),
    "quotients": (
        "quotients identify exactly the related points and are universal",
        _kernel_pairs, _quotient_sweeps,
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
        _ax_factorization, _image_least,
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
        _thm_classifier, _ax_factorization, _thm_onto_pullback, _thm_epi_onto,
        _kernel_pairs, _model_kernel_pairs, _ax_sum_disjunction,
    ),
    "choice": (
        "every onto splits, and f∘g∘f = f has a solution when the domain is inhabited",
        _thm_choice,
    ),
    "pi-universality": (
        "constructed dependent products are universal; competitors map in uniquely",
        _ax_pi, _pi_sections, _pi_competitors,
    ),
    "internal-logic": (
        "compiled connectives and quantifiers agree with truth-table evaluation",
        _thm_internal_logic,
    ),
}


# ---------------------------------------------------------------------------
# entry points


# The part results of the current ``shared_parts`` block, by (body, spec with
# its item blanked); None outside one, where each ``_run`` keeps its own.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("parts", default=None)


@contextlib.contextmanager
def shared_parts() -> Iterator[None]:
    """Within the block, a part that already ran on the same spec, its item
    aside, is credited with its result instead of run again.  Each block
    starts empty, so no result outlives it."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _run(kind: str, table: dict[str, tuple], spec: CheckSpec) -> Report:
    if spec.item not in table:
        raise ValueError(
            f"unknown {kind} {spec.item!r}; known: {', '.join(sorted(table))}"
        )
    t0, checked = time.perf_counter(), 0
    if spec.sampled and spec.item in _EXHAUSTIVE_ONLY:
        return _report(spec.item, t0, SKIP, {"reason": _SAMPLED_SKIP}, 0)
    memo = _MEMO.get({})
    for body in table[spec.item][1:]:
        key = body, replace(spec, item="")
        if key not in memo:
            total, steps = 0, body(spec)
            try:
                while True:
                    total += next(steps)
            except StopIteration as stop:
                memo[key] = total, stop.value
        total, witness = memo[key]
        checked += total
        if witness is not None:
            return _report(spec.item, t0, FAIL, witness, checked)
    return _report(spec.item, t0, PASS, None, checked)


def check_axiom(spec: CheckSpec) -> Report:
    """Run one axiom of ``AXIOMS``; raises ValueError for an unknown id."""
    return _run("axiom", AXIOMS, spec)


def check_theorem(spec: CheckSpec) -> Report:
    """Run one derived statement of ``THEOREMS``; raises ValueError for an unknown id."""
    return _run("theorem", THEOREMS, spec)

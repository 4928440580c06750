"""Exhaustive checkers for the axioms and the derived statements.

Each check enumerates every instance over canonical carriers of size up to a
bound (plus instances contributed by a loaded model) and verifies the
statement literally.  Universal properties quantify over all candidate
mediating maps, and one helper, ``_sweep``, decides every "exactly one
mediator per cone" statement: each site counts how many candidates induce
each cone, and the sweep visits the cones in order and stops at the first
whose count is not 1.  Existence and uniqueness are read off those counts,
never assumed from the construction that produced the diagram.
Epimorphisms are decided by right cancellation against test objects rather
than by ontoness, so the statements that relate the two notions stay
non-circular.

Counts are keyed by the tables of a cone's legs: all cones of one sweep
share their feet, so tables tell them apart exactly as the morphisms
would.  A table carries no feet, so before a sweep the legs of the
construction are compared with the feet the statement names (for
equalizers and coequalizers the fork check's composites already do this).
Cones over a cospan are grouped by the checker-side composite (the table
of g∘q2), so each first leg visits only the second legs it commutes with;
the grouping reads the cospan alone, never the construction under test.
Equalizer and coequalizer counts depend only on the construction and the
test object, so each is made once per distinct pair and reused.

Sampling mode (for bounds past the exhaustive threshold) draws a seeded
reservoir of instances; items whose content is a universal quantification
over mediating candidates are skipped with a reason instead of pretending a
sampled uniqueness sweep is exhaustive.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import kernel
from .errors import EquivalenceError
from .finset import (
    FINSET,
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


def _morphism_pool(spec: CheckSpec, dom_prefix: str = "a", cod_prefix: str = "b") -> Iterator[FinMor]:
    for a in _objs(spec, dom_prefix):
        for b in _objs(spec, cod_prefix):
            yield from _maps(spec, a, b)
    yield from spec.morphisms


def _cospans(spec: CheckSpec) -> Iterator[tuple[FinMor, FinMor]]:
    for c in _objs(spec, "c"):
        for a in _objs(spec, "a"):
            for b in _objs(spec, "b"):
                for f in _maps(spec, a, c):
                    for g in _maps(spec, b, c):
                        yield f, g


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


def _skip(item_reason: str) -> tuple[str, dict, int]:
    return SKIP, {"reason": item_reason}, 0


_SAMPLED_SKIP = (
    "uniqueness of mediating maps needs exhaustive candidate enumeration; "
    "rerun without sampling at a bound <= "
    f"{EXHAUSTIVE_THRESHOLD}"
)


def _sweep(mediators: Counter, cones: Iterable, key: Callable) -> tuple[int, object, int]:
    """Visit the cones in order until one has other than exactly one mediator.

    ``mediators`` counts how many candidates induce each cone key, and
    ``key`` maps a cone to its key.  Returns the number of cones visited, then
    the first cone without a unique mediator and its count, or ``None`` and 1
    when every cone has exactly one.
    """
    visited = 0
    for cone in cones:
        visited += 1
        n = mediators[key(cone)]
        if n != 1:
            return visited, cone, n
    return visited, None, 1


_table = operator.attrgetter("table")


def _tables(cone: tuple[FinMor, FinMor]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    first, second = cone
    return first.table, second.table


# ---------------------------------------------------------------------------
# dependent-product checking (shared by the axiom and the CLI `pi` command)


def check_pi_universal(d: PiDiagram, g: FinMor, f: FinMor) -> Report:
    """Decide whether d is a universal dependent product of g along f.

    Shape first: the evaluation triangle, the commuting square, and the
    square being a pullback at the level of points.  Then the element-wise
    criterion: for every point i of the index and every section of g over
    the f-fiber of i there must be exactly one point of F over i whose rows
    in (pi1, pi2, ev) are exactly that section.  Every failure carries the
    instance it happened on.
    """
    t0 = time.perf_counter()
    checked = 0

    def done(verdict: str, witness: dict | None) -> Report:
        return Report(
            item="pi-universal",
            verdict=verdict,
            witness=witness,
            instances_checked=checked,
            elapsed=time.perf_counter() - t0,
        )

    y_obj, x_obj, i_obj = g.dom, g.cod, f.cod
    shape_checks = [
        (d.pi1.dom == d.P and d.pi1.cod == d.F, "pi1 feet"),
        (d.pi2.dom == d.P and d.pi2.cod == x_obj, "pi2 feet"),
        (d.phi.dom == d.F and d.phi.cod == i_obj, "phi feet"),
        (d.ev.dom == d.P and d.ev.cod == y_obj, "ev feet"),
    ]
    for ok, face in shape_checks:
        checked += 1
        if not ok:
            return done(FAIL, {"face": face})
    checked += 1
    if compose(g, d.ev) != d.pi2:
        return done(FAIL, {"face": "evaluation triangle g∘ev = pi2"})
    checked += 1
    if compose(d.phi, d.pi1) != compose(f, d.pi2):
        return done(FAIL, {"face": "square phi∘pi1 = f∘pi2"})

    # square is a pullback: each compatible (v, x) is hit by exactly one point
    hits: dict[tuple[str, str], int] = {}
    for p in d.P.labels:
        key = (d.pi1(p), d.pi2(p))
        hits[key] = hits.get(key, 0) + 1
    for v in d.F.labels:
        for x in x_obj.labels:
            if d.phi(v) == f(x):
                checked += 1
                if hits.get((v, x), 0) != 1:
                    return done(
                        FAIL,
                        {"face": "square pullback", "v": v, "x": x,
                         "points": hits.get((v, x), 0)},
                    )
    if sum(hits.values()) != len(d.P):
        return done(FAIL, {"face": "square pullback", "extra": "P has stray points"})

    sections_of: dict[str, set[tuple[str, str]]] = {v: set() for v in d.F.labels}
    for p in d.P.labels:
        sections_of[d.pi1(p)].add((d.pi2(p), d.ev(p)))
    by_i: dict[str, list[str]] = {i: [] for i in i_obj.labels}
    for v in d.F.labels:
        by_i[d.phi(v)].append(v)
    fiber_f: dict[str, list[str]] = {i: [] for i in i_obj.labels}
    for x in x_obj.labels:
        fiber_f[f(x)].append(x)
    fiber_g: dict[str, list[str]] = {x: [] for x in x_obj.labels}
    for y in y_obj.labels:
        fiber_g[g(y)].append(y)

    for i in i_obj.labels:
        xs = fiber_f[i]
        for choice in itertools.product(*(fiber_g[x] for x in xs)):
            checked += 1
            psi = set(zip(xs, choice))
            matching = [v for v in by_i[i] if sections_of[v] == psi]
            if len(matching) != 1:
                return done(
                    FAIL,
                    {
                        "i": i,
                        "psi": sorted(map(list, psi)),
                        "matching": matching,
                    },
                )
    return done(PASS, None)


def pi_morphism_check(source: PiDiagram, target: PiDiagram, t: FinMor) -> Report:
    """Is t: F(source) -> F(target) a morphism of dependent-product diagrams?

    Requires phi∘t = phi', and that the induced map on the pullback apexes
    commutes with evaluation.
    """
    t0 = time.perf_counter()
    checked = 0

    def done(verdict: str, witness: dict | None) -> Report:
        return Report(
            item="pi-morphism",
            verdict=verdict,
            witness=witness,
            instances_checked=checked,
            elapsed=time.perf_counter() - t0,
        )

    checked += 1
    if t.dom != source.F or t.cod != target.F:
        return done(FAIL, {"face": "t feet"})
    checked += 1
    if compose(target.phi, t) != source.phi:
        return done(FAIL, {"face": "phi∘t = phi-source"})
    locate: dict[tuple[str, str], str] = {
        (target.pi1(p), target.pi2(p)): p for p in target.P.labels
    }
    table = []
    for p in source.P.labels:
        key = (t(source.pi1(p)), source.pi2(p))
        if key not in locate:
            return done(FAIL, {"face": "induced map on apexes", "point": p})
        table.append(locate[key])
    induced = FinMor(source.P, target.P, tuple(table))
    for p in source.P.labels:
        checked += 1
        if target.ev(induced(p)) != source.ev(p):
            return done(FAIL, {"face": "evaluation", "point": p})
    return done(PASS, None)


def _section_count(g: FinMor, f: FinMor) -> int:
    """Independent size oracle: sum over i of the product of g-fiber sizes."""
    fiber_g: dict[str, int] = {x: 0 for x in g.cod.labels}
    for y in g.dom.labels:
        fiber_g[g(y)] += 1
    total = 0
    for i in f.cod.labels:
        total += math.prod(fiber_g[x] for x in f.dom.labels if f(x) == i)
    return total


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


def _ax_terminal(spec: CheckSpec):
    checked = 0
    for a in _objs(spec, "a"):
        checked += 1
        maps = list(all_maps(a, terminal()))
        if len(maps) != 1:
            return FAIL, {"object": str(a), "maps": len(maps)}, checked
    return PASS, None, checked


def _ax_initial(spec: CheckSpec):
    checked = 0
    for a in _objs(spec, "a"):
        checked += 1
        maps = list(all_maps(initial(), a))
        if len(maps) != 1:
            return FAIL, {"object": str(a), "maps": len(maps)}, checked
    return PASS, None, checked


def _ax_products(spec: CheckSpec):
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0
    for a in _objs(spec, "a"):
        for b in _objs(spec, "b"):
            d = product(a, b)
            p, q = d.projections
            if p.cod != a or q.cod != b:
                return FAIL, {"A": str(a), "B": str(b), "face": "feet"}, checked
            for t in _objs(spec, "t"):
                mediators = Counter(
                    (compose(p, h).table, compose(q, h).table)
                    for h in all_maps(t, d.apex)
                )
                visited, cone, n = _sweep(
                    mediators, itertools.product(all_maps(t, a), all_maps(t, b)), _tables
                )
                checked += visited
                if cone is not None:
                    f, g = cone
                    return FAIL, {
                        "A": str(a), "B": str(b), "T": str(t),
                        "f": str(f), "g": str(g), "mediators": n,
                    }, checked
    return PASS, None, checked


def _ax_equalizers(spec: CheckSpec):
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0

    # Many parallel pairs share an equalizer, so the counts are made once
    # per (equalizer, test object) and reused.
    @functools.cache
    def mediators(e: FinMor, t: FinObj) -> Counter:
        return Counter(compose(e, k).table for k in all_maps(t, e.dom))

    tests = _objs(spec, "t")
    for a in _objs(spec, "a"):
        for b in _objs(spec, "b"):
            for f in all_maps(a, b):
                for g in all_maps(a, b):
                    e = equalizer(f, g)
                    checked += 1
                    if compose(f, e) != compose(g, e):
                        return FAIL, {"f": str(f), "g": str(g), "face": "fork"}, checked
                    for t in tests:
                        visited, h, n = _sweep(mediators(e, t), (
                            h for h in all_maps(t, a)
                            if compose(f, h).table == compose(g, h).table
                        ), _table)
                        checked += visited
                        if h is not None:
                            return FAIL, {
                                "f": str(f), "g": str(g), "h": str(h),
                                "mediators": n,
                            }, checked
    return PASS, None, checked


def _ax_sums(spec: CheckSpec):
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0
    for a in _objs(spec, "a"):
        for b in _objs(spec, "b"):
            d = coproduct(a, b)
            inl, inr = d.injections
            if inl.dom != a or inr.dom != b:
                return FAIL, {"A": str(a), "B": str(b), "face": "feet"}, checked
            for t in _objs(spec, "t"):
                mediators = Counter(
                    (compose(h, inl).table, compose(h, inr).table)
                    for h in all_maps(d.apex, t)
                )
                visited, cone, n = _sweep(
                    mediators, itertools.product(all_maps(a, t), all_maps(b, t)), _tables
                )
                checked += visited
                if cone is not None:
                    f, g = cone
                    return FAIL, {
                        "A": str(a), "B": str(b), "T": str(t),
                        "f": str(f), "g": str(g), "mediators": n,
                    }, checked
    return PASS, None, checked


def _ax_coequalizers(spec: CheckSpec):
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0

    # Many parallel pairs share a coequalizer, so the counts are made once
    # per (coequalizer, test object) and reused.
    @functools.cache
    def mediators(q: FinMor, t: FinObj) -> Counter:
        return Counter(compose(k, q).table for k in all_maps(q.cod, t))

    tests = _objs(spec, "t")
    for a in _objs(spec, "a"):
        for b in _objs(spec, "b"):
            for f in all_maps(a, b):
                for g in all_maps(a, b):
                    q = coequalizer(f, g)
                    checked += 1
                    if compose(q, f) != compose(q, g):
                        return FAIL, {"f": str(f), "g": str(g), "face": "fork"}, checked
                    for t in tests:
                        visited, h, n = _sweep(mediators(q, t), (
                            h for h in all_maps(b, t)
                            if compose(h, f).table == compose(h, g).table
                        ), _table)
                        checked += visited
                        if h is not None:
                            return FAIL, {
                                "f": str(f), "g": str(g), "h": str(h),
                                "mediators": n,
                            }, checked
    return PASS, None, checked


def _pi_instances(spec: CheckSpec) -> Iterator[tuple[FinMor, FinMor, PiDiagram]]:
    """Every composable pair y -g-> x -f-> i of the pool, with its dependent product."""
    for y in _objs(spec, "y"):
        for x in _objs(spec, "x"):
            for i in _objs(spec, "i"):
                for g in all_maps(y, x):
                    for f in all_maps(x, i):
                        yield g, f, pi_diagram(g, f)


def _ax_pi(spec: CheckSpec, count_sections: bool = False):
    # pi-universality also checks each F against the section-count oracle
    # in this pass, so that no dependent product is built twice.
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0
    for g, f, d in _pi_instances(spec):
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


def _ax_onto_mono_iso(spec: CheckSpec):
    checked = 0
    for f in _morphism_pool(spec):
        onto = f.is_surjective()
        mono = kernel.is_mono(FINSET, f, bound=min(spec.bound, 2))
        checked += 1
        if not (onto and mono):
            continue
        if not f.is_bijective():
            return FAIL, {"f": str(f), "reason": "not bijective"}, checked
        inverse = FinMor(
            f.cod, f.dom,
            tuple(f.dom.labels[f.table.index(y)] for y in f.cod.labels),
        )
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
                table = []
                for x in p.labels:
                    table.append(b.labels[h.table.index(x)])
                section = FinMor(p, b, tuple(table))
                if compose(h, section) != identity(p):
                    return FAIL, {"object": str(a), "h": str(h)}, checked
    return PASS, None, checked


def _ax_no_initial_elements(spec: CheckSpec):
    points = kernel.elements(FINSET, initial())
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
    for t in _objs(_separating_pool(spec), "t"):
        mediators = Counter(
            (compose(h, i).table, compose(h, j).table) for h in all_maps(s, t)
        )
        _, cone, _ = _sweep(
            mediators, itertools.product(all_maps(i.dom, t), all_maps(j.dom, t)), _tables
        )
        if cone is not None:
            return False
    return True


def _ax_sum_disjunction(spec: CheckSpec):
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0
    for a in _objs(spec, "a"):
        for b in _objs(spec, "b"):
            d = coproduct(a, b)
            left = set(d.injections[0].table)
            right = set(d.injections[1].table)
            for z in d.apex.labels:
                checked += 1
                if z not in left and z not in right:
                    return FAIL, {"A": str(a), "B": str(b), "z": z}, checked
    cap = min(spec.bound, 2)
    small = CheckSpec(item=spec.item, bound=cap)
    for a in _objs(small, "a"):
        for b in _objs(small, "b"):
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
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
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
    "C1": ("terminal object with unique maps into it", _ax_terminal),
    "C2": ("binary products with unique pairing", _ax_products),
    "C3": ("equalizers with unique factorization", _ax_equalizers),
    "D1": ("initial object with unique maps out of it", _ax_initial),
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
    for a in _objs(spec, "a"):
        for b in _objs(spec, "b"):
            maps = list(_maps(spec, a, b))
            for f in maps:
                checked += 1
                if kernel.is_mono(FINSET, f, bound=small) != f.is_injective():
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
        for m in monos:
            for n in monos:
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
    for x in _objs(spec, "x"):
        for y in _objs(spec, "y"):
            cells = list(itertools.product(x.labels, y.labels))
            for mask in range(1 << len(cells)):
                rows = [cells[i] for i in range(len(cells)) if mask >> i & 1]
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
    hits: dict[tuple[str, str], int] = {}
    for p in p1.dom.labels:
        key = (p1(p), p2(p))
        hits[key] = hits.get(key, 0) + 1
    total = 0
    for x in f.dom.labels:
        for y in g.dom.labels:
            if f(x) == g(y):
                total += 1
                if hits.get((x, y), 0) != 1:
                    return False
    return total == len(p1.dom)


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
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0
    for f, g in _cospans(spec):
        square = pullback(f, g)
        if not _pullback_feet(square, f, g):
            return FAIL, {"f": str(f), "g": str(g), "face": "feet"}, checked
        checked += 1
        if not _eq10_counts(square.p1, square.p2, f, g):
            return FAIL, {"f": str(f), "g": str(g), "reason": "constructed"}, checked
        for t in _objs(spec, "t"):
            mediators = Counter(
                (compose(square.p1, h).table, compose(square.p2, h).table)
                for h in all_maps(t, square.apex)
            )
            visited, cone, _ = _sweep(mediators, _cones(f, g, t), _tables)
            checked += visited
            if cone is not None:
                q1, q2 = cone
                return FAIL, {
                    "f": str(f), "g": str(g), "q1": str(q1), "q2": str(q2),
                }, checked
    cap = min(spec.bound, 2)
    small = CheckSpec(item=spec.item, bound=cap)
    for f, g in _cospans(small):
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
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
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
            for t in _objs(spec, "t"):
                mediators = Counter(compose(k, q).table for k in all_maps(q.cod, t))
                visited, h, n = _sweep(mediators, (
                    h for h in all_maps(x, t) if all(h(a) == h(b) for a, b in rows)
                ), _table)
                checked += visited
                if h is not None:
                    return FAIL, {"X": str(x), "h": str(h), "mediators": n}, checked
    return PASS, None, checked


def _thm_induction(spec: CheckSpec, prefix_len: int = 8):
    checked = 0
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
            for lbl in a.labels:
                b = kernel.elements(FINSET, a)[a.index[lbl]]
                seq = nno_prefix(prefix_len, b, h)
                checked += 1
                if seq[0] != b:
                    return FAIL, {"h": str(h), "base": lbl, "reason": "base"}, checked
                for n in range(prefix_len):
                    if seq[n + 1] != compose(h, seq[n]):
                        return FAIL, {"h": str(h), "base": lbl, "step": n}, checked
    return PASS, None, checked


def _thm_exponentials(spec: CheckSpec):
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0
    for x in _objs(spec, "x"):
        for y in _objs(spec, "y"):
            e_obj, ev_rel = exponential(x, y)
            checked += 1
            if len(e_obj) != len(y) ** len(x):
                return FAIL, {"X": str(x), "Y": str(y), "size": len(e_obj)}, checked
            d = pi_diagram(product(x, y).projections[0], unique_to_terminal(x))
            if len(d.F) != len(e_obj):
                return FAIL, {"X": str(x), "Y": str(y),
                              "reason": "pi route disagrees"}, checked
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


def _thm_dependent_choice(spec: CheckSpec, chain_len: int = 8):
    checked = 0
    for x in _objs(spec, "x"):
        cells = list(itertools.product(x.labels, x.labels))
        for mask in range(1 << len(cells)):
            rows = {cells[i] for i in range(len(cells)) if mask >> i & 1}
            if not all(any((a, b) in rows for b in x.labels) for a in x.labels):
                continue
            for start in x.labels:
                chain = [start]
                for _ in range(chain_len):
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
    for f, g in _cospans(spec):
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
    for f, g in _cospans(spec):
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
    for t in _objs(_separating_pool(spec), "t"):
        composites = [compose(h, f) for h in all_maps(f.cod, t)]
        _, cone, _ = _sweep(Counter(map(_table, composites)), composites, _table)
        if cone is not None:
            return False
    return True


def _thm_epi_onto(spec: CheckSpec):
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
    checked = 0
    for f in _morphism_pool(spec):
        epi = _is_epi(spec, f)
        checked += 1
        if epi != f.is_surjective():
            return FAIL, {"f": str(f), "epi": epi}, checked
        if epi and kernel.is_mono(FINSET, f, bound=min(spec.bound, 2)):
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
    if spec.sampled:
        return _skip(_SAMPLED_SKIP)
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
    for a in _objs(spec, "a"):
        for b in _objs(spec, "b"):
            for h in _maps(spec, b, a):
                if not h.is_surjective():
                    continue
                checked += 1
                table = tuple(b.labels[h.table.index(x)] for x in a.labels)
                section = FinMor(a, b, table)
                if compose(h, section) != identity(a):
                    return FAIL, {"h": str(h), "statement": "split onto"}, checked
    for f in _morphism_pool(spec):
        if not len(f.dom):
            continue
        checked += 1
        fallback = f.dom.labels[0]
        table = []
        for ylbl in f.cod.labels:
            if ylbl in f.table:
                table.append(f.dom.labels[f.table.index(ylbl)])
            else:
                table.append(fallback)
        g = FinMor(f.cod, f.dom, tuple(table))
        if compose(compose(f, g), f) != f:
            return FAIL, {"f": str(f), "statement": "f∘g∘f = f"}, checked
    return PASS, None, checked


def _thm_pi_universality(spec: CheckSpec):
    verdict, witness, checked = _ax_pi(spec, count_sections=True)
    if verdict != PASS:
        return verdict, witness, checked
    competitor_cap = min(spec.bound, 3)
    small = CheckSpec(item=spec.item, bound=min(spec.bound, 2))
    for g, f, d in _pi_instances(small):
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
    verdict, witness, checked = table[spec.item][1](spec)
    return Report(
        item=spec.item,
        verdict=verdict,
        witness=witness,
        instances_checked=checked,
        elapsed=time.perf_counter() - t0,
    )


def check_axiom(spec: CheckSpec) -> Report:
    """Run one axiom of ``AXIOMS``; raises ValueError for an unknown id."""
    return _run("axiom", AXIOMS, spec)


def check_theorem(spec: CheckSpec) -> Report:
    """Run one derived statement of ``THEOREMS``; raises ValueError for an unknown id."""
    return _run("theorem", THEOREMS, spec)

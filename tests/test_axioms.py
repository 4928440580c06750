"""The exhaustive checkers: positive runs, mutation detection, sampling."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import math
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cetcs
from cetcs import axioms
from cetcs.axioms import (
    AXIOMS,
    THEOREMS,
    CheckSpec,
    check_axiom,
    check_pi_universal,
    check_theorem,
    pi_morphism_check,
    set_partitions,
)
from cetcs.finset import (
    FinMor,
    FinObj,
    PiDiagram,
    ProductDiagram,
    PullbackSquare,
    SumDiagram,
    all_maps,
    carrier,
    carrier_of_size,
    characteristic,
    coequalizer,
    compose,
    coproduct,
    equalizer,
    exponential,
    identity,
    initial,
    pi_diagram,
    product,
    pullback,
    quotient,
    unique_to_terminal,
)
from cetcs.relcalc import relation_from_tuples
from cetcs.report import FAIL, PASS, Report


@pytest.mark.parametrize("item", sorted(AXIOMS))
def test_axiom_passes_at_bound_two(item):
    rep = check_axiom(CheckSpec(item=item, bound=2))
    assert rep.passed, rep.witness
    assert rep.instances_checked >= 1


@pytest.mark.parametrize("item", sorted(THEOREMS))
def test_theorem_passes_at_bound_two(item):
    rep = check_theorem(CheckSpec(item=item, bound=2))
    assert rep.passed, rep.witness


def test_unknown_items_are_rejected():
    with pytest.raises(ValueError):
        check_axiom(CheckSpec(item="Z9"))
    with pytest.raises(ValueError):
        check_theorem(CheckSpec(item="fermat"))


def test_set_partitions_counts_are_bell_numbers():
    labels = ["a", "b", "c", "d"]
    for n, bell in enumerate((1, 1, 2, 5, 15)):
        assert sum(1 for _ in set_partitions(labels[:n])) == bell


def test_set_partitions_are_partitions():
    labels = ("a", "b", "c")
    seen = set()
    for part in set_partitions(labels):
        flat = sorted(x for block in part for x in block)
        assert flat == sorted(labels)
        key = frozenset(frozenset(b) for b in part)
        assert key not in seen
        seen.add(key)


# ---------------------------------------------------------------------------
# dependent-product mutations: every corruption must be caught with a witness


def base_diagram():
    x = carrier("u", "v")
    y = carrier("a", "b", "c")
    g = FinMor(y, x, ("u", "u", "v"))
    f = unique_to_terminal(x)
    return pi_diagram(g, f), g, f


def test_section_count_matches_a_brute_count():
    # Over each i, try every map s from the f-fiber of i to Y and keep those
    # with g∘s the inclusion of the fiber.
    def brute(g, f):
        total = 0
        for i in f.cod.labels:
            fiber = [x for x in f.dom.labels if f(x) == i]
            for s in itertools.product(g.dom.labels, repeat=len(fiber)):
                total += all(g(y) == x for x, y in zip(fiber, s))
        return total

    sizes = range(3)
    pairs = 0
    for ny, nx, ni in itertools.product(sizes, sizes, sizes):
        y, x, i = (carrier_of_size(n, p) for n, p in ((ny, "y"), (nx, "x"), (ni, "i")))
        for g in all_maps(y, x):
            for f in all_maps(x, i):
                pairs += 1
                assert axioms._section_count(g, f) == brute(g, f), (g, f)
    assert pairs == 47


def test_pi_universal_accepts_the_construction():
    d, g, f = base_diagram()
    rep = check_pi_universal(d, g, f)
    assert rep.passed and rep.witness is None


def test_pi_universal_rejects_corrupted_ev():
    d, g, f = base_diagram()
    # redirect one evaluation inside the same g-fiber, keeping all faces
    # commuting, so only the section criterion can notice
    table = list(d.ev.table)
    for k, p in enumerate(d.P.labels):
        x_here = d.pi2(p)
        fiber = [yl for yl in g.dom.labels if g(yl) == x_here]
        other = [yl for yl in fiber if yl != table[k]]
        if other:
            table[k] = other[0]
            break
    mutant = PiDiagram(
        P=d.P, F=d.F, pi1=d.pi1, pi2=d.pi2, phi=d.phi,
        ev=FinMor(d.P, g.dom, tuple(table)),
    )
    rep = check_pi_universal(mutant, g, f)
    assert rep.failed
    assert rep.witness is not None


def test_pi_universal_rejects_inflated_f():
    d, g, f = base_diagram()
    extra = FinObj(d.F.labels + ("impostor",))
    phi = FinMor(extra, f.cod, d.phi.table + (d.phi.table[0],))
    # the impostor contributes no points to P, so its section set is empty
    pi1 = FinMor(d.P, extra, d.pi1.table)
    mutant = PiDiagram(P=d.P, F=extra, pi1=pi1, pi2=d.pi2, phi=phi, ev=d.ev)
    rep = check_pi_universal(mutant, g, f)
    assert rep.failed
    assert rep.witness is not None


def test_pi_universal_rejects_wrong_feet():
    d, g, f = base_diagram()
    mutant = PiDiagram(P=d.P, F=d.F, pi1=d.pi1, pi2=d.pi2, phi=d.phi, ev=d.pi2)
    rep = check_pi_universal(mutant, g, f)
    assert rep.failed


def test_pi_morphism_check_identity_and_garbage():
    d, g, f = base_diagram()
    ident = FinMor(d.F, d.F, d.F.labels)
    assert pi_morphism_check(d, d, ident).passed
    if len(d.F) >= 2:
        swapped = FinMor(d.F, d.F, (d.F.labels[1], d.F.labels[0]))
        assert pi_morphism_check(d, d, swapped).failed


def blind_to(face):
    """A pi_morphism_check that lets t through when its only failure is ``face``."""
    real = axioms.pi_morphism_check

    def check(source, target, t):
        rep = real(source, target, t)
        if rep.failed and rep.witness["face"] == face:
            return dataclasses.replace(rep, verdict=PASS, witness=None)
        return rep

    return check


def test_pi_universality_kills_a_morphism_check_blind_to_evaluation(monkeypatch):
    # Over g: {y0,y1} -> {x0} along x0 |-> i0 both maps from the one-point
    # competitor commute with phi, and only evaluation tells them apart.
    monkeypatch.setattr(axioms, "pi_morphism_check", blind_to("evaluation"))
    assert check_theorem(CheckSpec(item="pi-universality", bound=1)).passed
    rep = check_theorem(CheckSpec(item="pi-universality", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 500)
    assert rep.witness == {
        "g": "{y0, y1} -> {x0} [y0 |-> x0, y1 |-> x0]",
        "f": "{x0} -> {i0} [x0 |-> i0]",
        "competitor": "{w0} -> {i0} [w0 |-> i0]",
        "morphisms": 2,
    }


def test_pi_universality_offers_only_maps_over_the_index(monkeypatch):
    """Why a pi_morphism_check blind to any face but evaluation survives.

    pi-universality draws each candidate t from the points of F over
    phi-source(v2), so t has the right feet and phi∘t = phi-source holds by
    construction.  Then for each point (v2, x) of the competitor's apex,
    phi(t(v2)) = f(x), and the real pullback P holds (t(v2), x): the induced
    map on apexes exists.  A check blind to "t feet", "phi∘t = phi-source"
    or "induced map on apexes" therefore returns what the real one does on
    every t offered, and those mutants are equivalent.  This test pins the
    premise: no offered t fails any face but evaluation.
    """
    real = axioms.pi_morphism_check
    faces = Counter()

    def spy(source, target, t):
        rep = real(source, target, t)
        faces[rep.witness["face"] if rep.failed else None] += 1
        return rep

    monkeypatch.setattr(axioms, "pi_morphism_check", spy)
    assert check_theorem(CheckSpec(item="pi-universality", bound=2)).passed
    assert set(faces) == {None, "evaluation"}


# ---------------------------------------------------------------------------
# dependent-product faces: every face of check_pi_universal, with the exact
# witness and instance count it reports
#
# The diagram is the dependent product of g: {a,b,c} -> {u,v,w} along
# f: {u,v,w} -> {i,j,k}.  Over i there are two sections, over j none (w has
# an empty g-fiber) and over k one empty section (k has an empty f-fiber).


def two_index_diagram():
    x, y, i = carrier("u", "v", "w"), carrier("a", "b", "c"), carrier("i", "j", "k")
    g = FinMor(y, x, ("u", "u", "v"))
    f = FinMor(x, i, ("i", "i", "j"))
    return pi_diagram(g, f), g, f


def rebuilt(d, g, f, edit):
    """d rebuilt from its points after ``edit`` changed them in place.

    ``edit`` receives the F points as [v, i] lists (i = phi(v)) and the P
    points as [p, v, x, y] lists (v = pi1(p), x = pi2(p), y = ev(p)).
    """
    F = [[v, i] for v, i in zip(d.F.labels, d.phi.table)]
    P = [list(row) for row in zip(d.P.labels, d.pi1.table, d.pi2.table, d.ev.table)]
    edit(F, P)
    f_obj = FinObj(tuple(v for v, _ in F))
    p_obj = FinObj(tuple(row[0] for row in P))

    def column(k):
        return tuple(row[k] for row in P)

    return PiDiagram(
        P=p_obj, F=f_obj, pi1=FinMor(p_obj, f_obj, column(1)),
        pi2=FinMor(p_obj, f.dom, column(2)),
        phi=FinMor(f_obj, f.cod, tuple(i for _, i in F)),
        ev=FinMor(p_obj, g.dom, column(3)),
    )


def set_entry(rows, k, pos, value):
    rows[k][pos] = value


FACE_MUTANTS = {
    "pi1 feet": (lambda d, g, f: dataclasses.replace(d, pi1=d.pi2),
                 {"face": "pi1 feet"}, 1),
    "pi2 feet": (lambda d, g, f: dataclasses.replace(d, pi2=d.ev),
                 {"face": "pi2 feet"}, 2),
    "phi feet": (lambda d, g, f: dataclasses.replace(
                     d, phi=FinMor(d.F, g.cod, ("u",) * len(d.F))),
                 {"face": "phi feet"}, 3),
    "ev feet": (lambda d, g, f: dataclasses.replace(d, ev=d.pi2),
                {"face": "ev feet"}, 4),
    # ev((i|u↦a,v↦c), u) = c leaves the g-fiber of u
    "evaluation triangle": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: set_entry(P, 0, 3, "c")),
        {"face": "evaluation triangle g∘ev = pi2"}, 5),
    "square": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: set_entry(F, 0, 1, "k")),
        {"face": "square phi∘pi1 = f∘pi2"}, 6),
    "missing pullback point": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: P.pop(1)),
        {"face": "square pullback", "v": "(i|u↦a,v↦c)", "x": "v", "points": 0}, 8),
    # an F point with no P points over it
    "point of F without rows": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: F.append(["impostor", "i"])),
        {"face": "square pullback", "v": "impostor", "x": "u", "points": 0}, 11),
    # a stray P point repeats the row (v, x) of another
    "stray P point": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: P.append(["stray"] + P[0][1:])),
        {"face": "square pullback", "v": "(i|u↦a,v↦c)", "x": "u", "points": 2}, 7),
    # ev((i|u↦a,v↦c), u) = b stays in the fiber but copies the other section
    "section with 0 matches": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: set_entry(P, 0, 3, "b")),
        {"i": "i", "psi": [["u", "a"], ["v", "c"]], "matching": []}, 11),
    "section with 2 matches": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: (
            F.append(["dup", "i"]),
            P.extend([["dup-" + x, "dup", x, y] for _, _, x, y in P[:2]]))),
        {"i": "i", "psi": [["u", "a"], ["v", "c"]],
         "matching": ["(i|u↦a,v↦c)", "dup"]}, 13),
    "empty section with 2 matches": (
        lambda d, g, f: rebuilt(d, g, f, lambda F, P: F.append(["dup", "k"])),
        {"i": "k", "psi": [], "matching": ["(k|)", "dup"]}, 13),
}


def test_pi_universal_counts_every_face_of_the_construction():
    d, g, f = two_index_diagram()
    rep = check_pi_universal(d, g, f)
    assert (rep.verdict, rep.witness, rep.instances_checked) == (PASS, None, 13)


@pytest.mark.parametrize("face", list(FACE_MUTANTS))
def test_pi_universal_reports_each_face_exactly(face):
    mutate, witness, checked = FACE_MUTANTS[face]
    d, g, f = two_index_diagram()
    rep = check_pi_universal(mutate(d, g, f), g, f)
    assert (rep.verdict, rep.witness, rep.instances_checked) == (FAIL, witness, checked)


# Dropping a point of F with its rows leaves every other face and every
# section distinct, so only the count of sections can notice.
@pytest.mark.parametrize("k, witness, checked", [
    (0, {"i": "i", "psi": [["u", "a"], ["v", "c"]], "matching": []}, 9),
    (1, {"i": "i", "psi": [["u", "b"], ["v", "c"]], "matching": []}, 10),
    (2, {"i": "k", "psi": [], "matching": []}, 13),
])
def test_pi_universal_names_the_section_of_a_dropped_point(k, witness, checked):
    d, g, f = two_index_diagram()
    rep = check_pi_universal(rebuilt(d, g, f, lambda F, P: drop_f_point(k, F, P)), g, f)
    assert (rep.verdict, rep.witness, rep.instances_checked) == (FAIL, witness, checked)


def drop_f_point(k, F, P):
    v, _ = F.pop(k)
    P[:] = [row for row in P if row[1] != v]


def pointwise_check_pi_universal(d: PiDiagram, g: FinMor, f: FinMor) -> Report:
    """check_pi_universal read point by point: the reference for the table version.

    Every morphism is read through ``__call__``, the pullback face scans all
    of F × X, and each section is compared as a set with every point of F
    over its index.
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


def draw_map_into(data, prefix, cod):
    """A map into cod from a fresh carrier of at most 3 labels."""
    dom = carrier_of_size(data.draw(st.integers(0, 3)), prefix) if cod.labels else initial()
    values = st.sampled_from(cod.labels) if cod.labels else st.nothing()
    return FinMor(dom, cod, tuple(data.draw(values) for _ in dom.labels))


def drop_p_point(data, P):
    if P:
        P.pop(data.draw(st.integers(0, len(P) - 1)))


def duplicate_f_point(data, F, P):
    if F:
        v, i = F[data.draw(st.integers(0, len(F) - 1))]
        F.append(["dup", i])
        P.extend([["dup-" + x, "dup", x, y] for _, w, x, y in list(P) if w == v])


def swap_ev_entries(data, P):
    if len(P) >= 2:
        j, k = data.draw(st.lists(st.integers(0, len(P) - 1), min_size=2,
                                  max_size=2, unique=True))
        P[j][3], P[k][3] = P[k][3], P[j][3]


def retarget_phi_entry(data, F, labels):
    if F and labels:
        F[data.draw(st.integers(0, len(F) - 1))][1] = data.draw(st.sampled_from(labels))


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.data())
def test_pi_universal_agrees_with_the_pointwise_reference(data):
    i = carrier_of_size(data.draw(st.integers(0, 3)), "i")
    f = draw_map_into(data, "x", i)
    g = draw_map_into(data, "y", f.dom)
    mutants = {
        "none": lambda F, P: None,
        "drop P point": lambda F, P: drop_p_point(data, P),
        "duplicate F point": lambda F, P: duplicate_f_point(data, F, P),
        "swap ev entries": lambda F, P: swap_ev_entries(data, P),
        "retarget phi entry": lambda F, P: retarget_phi_entry(data, F, i.labels),
    }
    edit = mutants[data.draw(st.sampled_from(list(mutants)))]
    d = rebuilt(pi_diagram(g, f), g, f, edit)
    got = check_pi_universal(d, g, f)
    want = pointwise_check_pi_universal(d, g, f)
    assert (got.verdict, got.witness, got.instances_checked) == (
        want.verdict, want.witness, want.instances_checked)


# SHA-256 over every composable pair at bound 3, in the Pi axiom's order: the
# labels of P and F, the four leg tables, and the checker's verdict and count.
PI_BOUND_3_DIGEST = "e2fd0c4f88c2b8c505c671a378cf9b465a7a566202002df4361530ec65630569"


def test_pi_construction_and_verdicts_at_bound_three_are_pinned():
    digest, pairs = hashlib.sha256(), 0
    for y, x, i in itertools.product(*([carrier_of_size(n, p) for n in range(4)] for p in "yxi")):
        for g in all_maps(y, x):
            for f in all_maps(x, i):
                d = pi_diagram(g, f)
                rep = check_pi_universal(d, g, f)
                for part in (d.P.labels, d.F.labels, d.pi1.table, d.pi2.table,
                             d.phi.table, d.ev.table):
                    digest.update("\x1f".join(part).encode() + b"\x1e")
                digest.update(f"{rep.verdict} {rep.instances_checked}\n".encode())
                pairs += 1
    assert pairs == 1678
    assert digest.hexdigest() == PI_BOUND_3_DIGEST


def test_the_pi_axiom_calls_the_public_checker_once_per_pair(monkeypatch):
    # A profiler that wraps check_pi_universal must see every pair.
    calls = []
    checker = axioms.check_pi_universal

    def counting(*args):
        calls.append(1)
        return checker(*args)

    monkeypatch.setattr(axioms, "check_pi_universal", counting)
    assert check_axiom(CheckSpec("Pi", bound=2)).passed
    assert len(calls) == 47


# ---------------------------------------------------------------------------
# the mediator sweep every universal-property item shares


def test_sweep_stops_at_the_first_cone_without_a_unique_mediator():
    x = carrier("u", "v")
    cones = [FinMor(x, x, table) for table in (("u", "v"), ("v", "u"), ("u", "u"))]
    mediators = Counter({("u", "v"): 1, ("v", "u"): 2})

    def sweep(tests, cones_over):
        return axioms._sweep(tests, lambda t: mediators, cones_over, axioms._table)

    assert sweep([x], lambda t: cones[:1]) == (1, None, None, 1)
    assert sweep([x], lambda t: cones) == (2, x, cones[1], 2)
    assert sweep([x], lambda t: cones[2:]) == (1, x, cones[2], 0)
    # the visits add up over the test objects, and the first failing one is named
    y = carrier("w")
    assert sweep([y, x], lambda t: cones[:1] if t is y else cones) == (3, x, cones[1], 2)


# ---------------------------------------------------------------------------
# mediator-sweep mutations: with the cheap construction-side checks defeated,
# the grouped and reused buckets must still reject a broken construction


def reapex(square, points):
    """The square with apex points given as (label, point of the real apex)."""
    apex = FinObj(tuple(lbl for lbl, _ in points))

    def leg(p):
        return FinMor(apex, p.cod, tuple(p(src) for _, src in points))

    return PullbackSquare(apex, leg(square.p1), leg(square.p2), square.f, square.g)


def drop_last_point(square):
    return reapex(square, [(p, p) for p in square.apex.labels[:-1]])


def duplicate_first_point(square):
    labels = square.apex.labels
    return reapex(square, [(p, p) for p in labels] + [("dup", p) for p in labels[:1]])


@pytest.mark.parametrize("mutate", [drop_last_point, duplicate_first_point])
def test_pullback_sweep_rejects_a_broken_apex(monkeypatch, mutate):
    monkeypatch.setattr(axioms, "_eq10_counts", lambda *legs: True)
    monkeypatch.setattr(axioms, "pullback", lambda f, g: mutate(pullback(f, g)))
    rep = check_theorem(CheckSpec(item="pullback-elements", bound=2))
    assert rep.failed
    assert {"f", "g", "q1", "q2"} == set(rep.witness)


def _eq10_counts_by_lookup(p1: FinMor, p2: FinMor, f: FinMor, g: FinMor) -> bool:
    # the reference: _eq10_counts by one lookup per pair of points, verbatim
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


def with_an_incompatible_point(square, replacing: int):
    """The square less its last ``replacing`` points plus one over a pair
    (x, y) with f(x) != g(y); None if there is no such pair or point."""
    f, g = square.f, square.g
    pairs = [(x, y) for x in f.dom.labels for y in g.dom.labels if f(x) != g(y)]
    kept = len(square.apex) - replacing
    if not pairs or kept < 0:
        return None
    apex = FinObj(square.apex.labels[:kept] + ("odd",))
    x, y = pairs[0]
    return PullbackSquare(apex, FinMor(apex, f.dom, square.p1.table[:kept] + (x,)),
                          FinMor(apex, g.dom, square.p2.table[:kept] + (y,)), f, g)


def test_eq10_counts_agrees_with_the_lookup_it_replaced():
    small = CheckSpec(item="pullback-elements", bound=2)
    verdicts = Counter()
    for f, g in axioms._instances(small, axioms._COSPAN):
        for p_obj in axioms._objs(small, "p"):
            for p1, p2 in axioms._cones(f, g, p_obj):
                want = _eq10_counts_by_lookup(p1, p2, f, g)
                assert axioms._eq10_counts(p1, p2, f, g) == want, (f, g, p1, p2)
                verdicts["cone", want] += 1
        square = pullback(f, g)
        mutants = [square, duplicate_first_point(square),
                   with_an_incompatible_point(square, 0), with_an_incompatible_point(square, 1)]
        if len(square.apex):
            mutants.append(drop_last_point(square))
        for s in filter(None, mutants):
            want = _eq10_counts_by_lookup(s.p1, s.p2, f, g)
            assert axioms._eq10_counts(s.p1, s.p2, f, g) == want, (f, g, s)
            verdicts["square", want] += 1
    # both verdicts are reached on cones and on squares
    assert set(verdicts) == {("cone", True), ("cone", False),
                             ("square", True), ("square", False)}


def test_equalizer_sweep_rejects_an_omitted_point(monkeypatch):
    def omit_last(f, g):
        kept = equalizer(f, g).table[:-1]
        return FinMor(FinObj(kept), f.dom, kept)

    monkeypatch.setattr(axioms, "equalizer", omit_last)
    rep = check_axiom(CheckSpec(item="C3", bound=2))
    assert rep.failed
    assert rep.witness["mediators"] == 0 and "h" in rep.witness


def test_coequalizer_sweep_rejects_an_extra_merge(monkeypatch):
    def collapse(f, g):
        q = coequalizer(f, g)
        target = FinObj(q.cod.labels[:1])
        return FinMor(q.dom, target, target.labels * len(q.dom))

    monkeypatch.setattr(axioms, "coequalizer", collapse)
    rep = check_axiom(CheckSpec(item="D3", bound=2))
    assert rep.failed
    assert rep.witness["mediators"] == 0 and "h" in rep.witness


def test_product_sweep_rejects_a_dropped_pair(monkeypatch):
    def drop_last(a, b):
        d = product(a, b)
        apex = FinObj(d.apex.labels[:-1])
        return ProductDiagram(apex, tuple(
            FinMor(apex, p.cod, p.table[:len(apex)]) for p in d.projections
        ))

    monkeypatch.setattr(axioms, "product", drop_last)
    rep = check_axiom(CheckSpec(item="C2", bound=2))
    assert rep.failed
    assert rep.witness["mediators"] == 0


def test_sum_sweep_rejects_an_unreachable_apex_point(monkeypatch):
    def with_stray(a, b):
        d = coproduct(a, b)
        apex = with_junk(d.apex)
        return SumDiagram(apex, tuple(
            FinMor(i.dom, apex, i.table) for i in d.injections
        ))

    monkeypatch.setattr(axioms, "coproduct", with_stray)
    rep = check_axiom(CheckSpec(item="D2", bound=2))
    assert rep.failed
    assert rep.witness["mediators"] != 1


def test_quotient_sweep_rejects_an_unreachable_class(monkeypatch):
    # The kernel pair and the feet are untouched, so only the sweep sees it.
    def with_stray(rel):
        q = quotient(rel)
        return FinMor(q.dom, with_junk(q.cod), q.table)

    monkeypatch.setattr(axioms, "quotient", with_stray)
    rep = check_theorem(CheckSpec(item="quotients", bound=2))
    assert rep.failed
    assert rep.witness["mediators"] != 1


def test_exponentials_reject_a_dropped_function(monkeypatch):
    # The last point of E goes, and with it its rows of ev.
    def drop_last(x, y):
        e_obj, ev = exponential(x, y)
        kept = FinObj(e_obj.labels[:-1])
        rows = [row for row in ev.tuples if row[0] in kept]
        return kept, relation_from_tuples(rows, (kept, x, y))

    monkeypatch.setattr(axioms, "exponential", drop_last)
    rep = check_theorem(CheckSpec(item="exponentials", bound=3))
    assert (rep.verdict, rep.witness, rep.instances_checked) == (
        FAIL, {"X": "{}", "Y": "{}", "size": 0}, 1,
    )


def test_classifier_rejects_a_flipped_entry(monkeypatch):
    # The first point of the carrier is sent to the other point of 1+1.
    def flip_first(r):
        chi = characteristic(r)
        if not chi.table:
            return chi
        false_lbl, true_lbl = chi.cod.labels
        first = true_lbl if chi.table[0] == false_lbl else false_lbl
        return FinMor(chi.dom, chi.cod, (first,) + chi.table[1:])

    monkeypatch.setattr(axioms, "characteristic", flip_first)
    rep = check_theorem(CheckSpec(item="classifier", bound=3))
    assert (rep.verdict, rep.witness, rep.instances_checked) == (
        FAIL, {"X": "{x0}", "subset": [], "at": "x0"}, 2,
    )


# Buckets are keyed by tables, which carry no feet: a construction whose legs
# have the right tables over the wrong objects must still be rejected.


def with_junk(obj):
    return FinObj(obj.labels + ("junk",))


def primed(obj):
    return FinObj(tuple(f"{lbl}'" for lbl in obj.labels))


def test_products_reject_a_projection_into_the_wrong_object(monkeypatch):
    def widened(a, b):
        d = product(a, b)
        p, q = d.projections
        return ProductDiagram(d.apex, (FinMor(p.dom, with_junk(p.cod), p.table), q))

    monkeypatch.setattr(axioms, "product", widened)
    rep = check_axiom(CheckSpec(item="C2", bound=2))
    assert rep.failed
    assert rep.witness["face"] == "feet"


def test_sums_reject_an_injection_from_the_wrong_object(monkeypatch):
    def relabelled(a, b):
        d = coproduct(a, b)
        inl, inr = d.injections
        return SumDiagram(d.apex, (FinMor(primed(inl.dom), inl.cod, inl.table), inr))

    monkeypatch.setattr(axioms, "coproduct", relabelled)
    rep = check_axiom(CheckSpec(item="D2", bound=2))
    assert rep.failed
    assert rep.witness["face"] == "feet"


def test_equalizers_reject_an_inclusion_into_the_wrong_object(monkeypatch):
    def widened(f, g):
        e = equalizer(f, g)
        return FinMor(e.dom, with_junk(e.cod), e.table)

    monkeypatch.setattr(axioms, "equalizer", widened)
    rep = check_axiom(CheckSpec(item="C3", bound=1))
    assert rep.failed
    assert rep.witness["face"] == "feet"
    assert rep.instances_checked == 0


def test_coequalizers_reject_a_quotient_from_the_wrong_object(monkeypatch):
    def relabelled(f, g):
        q = coequalizer(f, g)
        return FinMor(primed(q.dom), q.cod, q.table)

    monkeypatch.setattr(axioms, "coequalizer", relabelled)
    rep = check_axiom(CheckSpec(item="D3", bound=1))
    assert rep.failed
    assert rep.witness["face"] == "feet"


def test_pullback_sweep_rejects_a_leg_into_the_wrong_object(monkeypatch):
    def widened(f, g):
        s = pullback(f, g)
        p1 = FinMor(s.apex, with_junk(s.p1.cod), s.p1.table)
        return PullbackSquare(s.apex, p1, s.p2, s.f, s.g)

    monkeypatch.setattr(axioms, "pullback", widened)
    rep = check_theorem(CheckSpec(item="pullback-elements", bound=2))
    assert rep.failed
    assert rep.witness["face"] == "feet"


def test_quotients_reject_a_projection_from_the_wrong_object(monkeypatch):
    def reordered(rel):
        q = quotient(rel)
        dom = FinObj(q.dom.labels[::-1])
        return FinMor(dom, q.cod, tuple(q(x) for x in dom.labels))

    monkeypatch.setattr(axioms, "quotient", reordered)
    rep = check_theorem(CheckSpec(item="quotients", bound=2))
    assert rep.failed
    assert rep.witness["face"] == "feet"


# ---------------------------------------------------------------------------
# relabelling orbits: the enumerator against Burnside's lemma, and the
# equivariance face against constructions broken off the swept instances


def cycle_types(n):
    """Each cycle type of the permutations of n points (a partition of n,
    parts descending) with the number of permutations of that type."""
    def partitions(rest, largest):
        if rest == 0:
            yield ()
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield (part,) + tail

    for parts in partitions(n, n):
        size = math.factorial(n)
        for k, m in Counter(parts).items():
            size //= k ** m * math.factorial(m)
        yield parts, size


def fixed_maps(src, dst):
    """Maps fixed by a pair of permutations with cycle types src and dst:
    each src cycle of length l goes into the points of dst cycles whose
    length divides l."""
    return math.prod(sum(d for d in dst if l % d == 0) for l in src)


def burnside(carriers, shape):
    """Orbits of the shape's leg tuples under relabelling every carrier
    (sizes given, in the shape's carrier order)."""
    legs, total = shape[1], 0
    for types in itertools.product(*[list(cycle_types(n)) for n in carriers]):
        weight = math.prod(size for _, size in types)
        total += weight * math.prod(fixed_maps(types[i][0], types[j][0]) for i, j in legs)
    order = math.prod(math.factorial(n) for n in carriers)
    assert total % order == 0
    return total // order


SIZES = range(4)


def pair_carriers(sizes=SIZES):
    """The carrier tuples of C3 and D3 in their order."""
    for a, b in itertools.product(sizes, sizes):
        yield (carrier_of_size(a, "a"), carrier_of_size(b, "b"))


def cospan_carriers(sizes=SIZES):
    """The carrier tuples of pullback-elements in its order (c outermost)."""
    for c, a, b in itertools.product(sizes, sizes, sizes):
        yield (carrier_of_size(c, "c"), carrier_of_size(a, "a"), carrier_of_size(b, "b"))


def composable_carriers(sizes=SIZES):
    """The carrier tuples of Pi and pi-universality in their order."""
    for y, x, i in itertools.product(sizes, sizes, sizes):
        yield (carrier_of_size(y, "y"), carrier_of_size(x, "x"), carrier_of_size(i, "i"))


def test_burnside_counts_match_the_enumerator_at_bound_three():
    pairs = sum(burnside(sizes, axioms._PAIR) for sizes in itertools.product(SIZES, SIZES))
    cospans = sum(burnside(sizes, axioms._COSPAN)
                  for sizes in itertools.product(SIZES, SIZES, SIZES))
    assert (pairs, cospans) == (68, 155)
    # the bound-4 counts that ROADMAP's table records
    four = range(5)
    assert sum(burnside(s, axioms._PAIR) for s in itertools.product(four, four)) == 437
    assert sum(burnside(s, axioms._COSPAN)
               for s in itertools.product(four, four, four)) == 736
    reps = {
        "pairs": sum(gamma is None for objs in pair_carriers()
                     for _, gamma, _ in axioms._orbits(objs, axioms._PAIR)),
        "cospans": sum(gamma is None for objs in cospan_carriers()
                       for _, gamma, _ in axioms._orbits(objs, axioms._COSPAN)),
    }
    assert reps == {"pairs": pairs, "cospans": cospans}
    composables = sum(burnside(sizes, axioms._COMPOSABLE)
                      for sizes in itertools.product(SIZES, SIZES, SIZES))
    assert composables == sum(gamma is None for objs in composable_carriers()
                              for _, gamma, _ in axioms._orbits(objs, axioms._COMPOSABLE)) == 100


@pytest.mark.parametrize("shape, carriers, total", [
    (axioms._PAIR, pair_carriers, 910),      # sum of b^(2a)
    (axioms._COSPAN, cospan_carriers, 1842),  # sum of c^(a+b)
    (axioms._COMPOSABLE, composable_carriers, 1678),  # sum of x^y i^x
])
def test_orbits_partition_the_hom_sets_in_enumeration_order(shape, carriers, total):
    yielded = 0
    for objs in carriers():
        walk = list(axioms._orbits(objs, shape))
        plain = list(itertools.product(*[list(all_maps(objs[i], objs[j])) for i, j in shape[1]]))
        assert [legs for legs, _, _ in walk] == plain
        reps = set()
        for legs, gamma, rep in walk:
            if gamma is None:
                assert rep is legs
                reps.add(rep)
                continue
            assert rep in reps  # the rep was yielded, and so swept, first
            for (i, j), m, moved in zip(shape[1], rep, legs):
                src, dst = gamma[i], gamma[j]
                assert sorted(src) == sorted(src.values()) == list(objs[i].labels)
                assert sorted(dst.values()) == list(objs[j].labels)
                assert dict(zip(moved.dom.labels, moved.table)) == {
                    src[x]: dst[y] for x, y in zip(m.dom.labels, m.table)
                }
        yielded += len(walk)
    assert yielded == total


def first_non_rep(objs, shape, keep=lambda legs: True):
    """The first instance over the carriers that is not its orbit's rep."""
    return next(legs for legs, gamma, _ in axioms._orbits(objs, shape)
                if gamma is not None and keep(legs))


def test_equivariance_rejects_an_equalizer_broken_off_the_reps(monkeypatch):
    target = first_non_rep((carrier_of_size(1, "a"), carrier_of_size(2, "b")), axioms._PAIR,
                           lambda legs: len(equalizer(*legs).dom) > 0)

    def omit_last_once(f, g):
        e = equalizer(f, g)
        if (f, g) != target:
            return e
        return FinMor(FinObj(e.table[:-1]), f.dom, e.table[:-1])

    monkeypatch.setattr(axioms, "equalizer", omit_last_once)
    rep = check_axiom(CheckSpec(item="C3", bound=2))
    assert rep.failed
    assert rep.witness == {"f": str(target[0]), "g": str(target[1]), "face": "equivariance"}


def collapsed(q):
    one = FinObj(q.cod.labels[:1])
    return FinMor(q.dom, one, one.labels * len(q.dom))


def merged_keeping_size(q):
    # every point to the first class; the other classes stay, unreached
    return FinMor(q.dom, q.cod, q.cod.labels[:1] * len(q.dom))


def with_stray_class(q):
    return FinMor(q.dom, with_junk(q.cod), q.table)


@pytest.mark.parametrize("breaker", [collapsed, merged_keeping_size, with_stray_class])
def test_equivariance_rejects_a_coequalizer_broken_off_the_reps(monkeypatch, breaker):
    target = first_non_rep((carrier_of_size(1, "a"), carrier_of_size(2, "b")), axioms._PAIR,
                           lambda legs: len(coequalizer(*legs).cod) > 1)

    def break_once(f, g):
        q = coequalizer(f, g)
        return breaker(q) if (f, g) == target else q

    monkeypatch.setattr(axioms, "coequalizer", break_once)
    rep = check_axiom(CheckSpec(item="D3", bound=2))
    assert rep.failed
    assert rep.witness == {"f": str(target[0]), "g": str(target[1]), "face": "equivariance"}


def test_equivariance_rejects_a_pullback_broken_off_the_reps(monkeypatch):
    # The point-count face would see a dropped point first, so it is
    # defeated, as in the sweep mutations above.
    objs = (carrier_of_size(2, "c"), carrier_of_size(1, "a"), carrier_of_size(1, "b"))
    target = first_non_rep(objs, axioms._COSPAN, lambda legs: len(pullback(*legs).apex) > 0)
    monkeypatch.setattr(axioms, "_eq10_counts", lambda *legs: True)
    monkeypatch.setattr(axioms, "pullback", lambda f, g: (
        drop_last_point(pullback(f, g)) if (f, g) == target else pullback(f, g)))
    rep = check_theorem(CheckSpec(item="pullback-elements", bound=2))
    assert rep.failed
    assert rep.witness == {"f": str(target[0]), "g": str(target[1]), "face": "equivariance"}


@pytest.mark.parametrize("check, item, shape, carriers", [
    (check_axiom, "C3", axioms._PAIR, pair_carriers),
    (check_axiom, "D3", axioms._PAIR, pair_carriers),
    (check_theorem, "pullback-elements", axioms._COSPAN, cospan_carriers),
])
def test_equivariance_rejects_a_wrong_relabelling(monkeypatch, check, item, shape, carriers):
    # Every instance but a rep differs from its rep, so the identity cannot
    # move the rep onto it: the first instance that is not a rep fails, even
    # where its construction has the rep's rows.
    first = next(first_non_rep(objs, shape) for objs in carriers(range(3))
                 if any(gamma is not None for _, gamma, _ in axioms._orbits(objs, shape)))
    orbits = axioms._orbits

    def identity_gammas(objs, shape):
        for legs, gamma, rep in orbits(objs, shape):
            if gamma is not None:
                gamma = tuple({x: x for x in perm} for perm in gamma)
            yield legs, gamma, rep

    monkeypatch.setattr(axioms, "_orbits", identity_gammas)
    rep = check(CheckSpec(item=item, bound=2))
    assert rep.failed
    assert rep.witness == {"f": str(first[0]), "g": str(first[1]), "face": "equivariance"}


@pytest.mark.parametrize("item", ["Pi", "pi-universality"])
def test_pi_rejects_a_dependent_product_broken_off_the_reps(monkeypatch, item):
    # Pi checks every pair, not one per orbit.  A construction wrong on the
    # first pair that is no orbit's rep, here by a second point over the
    # empty section of F, must fail there and be named by that pair.
    g0, f0 = next(legs for objs in composable_carriers(range(3))
                  for legs, gamma, _ in axioms._orbits(objs, axioms._COMPOSABLE)
                  if gamma is not None)
    plain = axioms.pi_diagram

    def break_once(g, f):
        d = plain(g, f)
        if (g, f) != (g0, f0):
            return d
        return rebuilt(d, g, f, lambda F, P: F.append(["dup", F[0][1]]))

    monkeypatch.setattr(axioms, "pi_diagram", break_once)
    check = check_axiom if item in AXIOMS else check_theorem
    rep = check(CheckSpec(item=item, bound=2))
    assert rep.failed
    assert rep.witness == {"i": "i0", "psi": [], "matching": ["(i0|)", "dup"],
                           "g": str(g0), "f": str(f0)}


def reversed_equalizer(f, g):
    e = equalizer(f, g)
    return FinMor(FinObj(e.table[::-1]), f.dom, e.table[::-1])


def renamed_coequalizer(f, g):
    # the classes listed last-first under fresh names
    q = coequalizer(f, g)
    name = {c: f"k{n}" for n, c in enumerate(reversed(q.cod.labels))}
    return FinMor(q.dom, FinObj(tuple(sorted(name.values()))), tuple(name[c] for c in q.table))


def renamed_pullback(f, g):
    s = pullback(f, g)
    return reapex(s, [(f"p{n}", p) for n, p in enumerate(reversed(s.apex.labels))])


@pytest.mark.parametrize("check, item, name, relabelled", [
    (check_axiom, "C3", "equalizer", reversed_equalizer),
    (check_axiom, "D3", "coequalizer", renamed_coequalizer),
    (check_theorem, "pullback-elements", "pullback", renamed_pullback),
])
def test_equivariance_accepts_an_isomorphic_relabelling(monkeypatch, check, item, name,
                                                        relabelled):
    # Relabel only where f's table sorts before g's, so reps and the other
    # members of their orbits are built both ways.
    plain = getattr(axioms, name)
    monkeypatch.setattr(axioms, name, lambda f, g: (
        relabelled(f, g) if f.table < g.table else plain(f, g)))
    rep = check(CheckSpec(item=item, bound=3))
    assert (rep.verdict, rep.instances_checked) == (PASS, BOUND_3_COUNTS[item])


# ---------------------------------------------------------------------------
# every face the orbit sweep and the test-object sweep decide, pinned whole:
# the fork and point-count faces of a construction, and the first failing
# cone of a sweep.  Where a mutant breaks only the instances over one carrier
# size, which relabelling keeps, every orbit before it is swept or credited
# first, so the count pins the crediting too.


def omitted_last(e):
    return FinMor(FinObj(e.table[:-1]), e.cod, e.table[:-1])


def dropped_last_pair(d):
    apex = FinObj(d.apex.labels[:-1])
    return ProductDiagram(apex, tuple(FinMor(apex, p.cod, p.table[:-1]) for p in d.projections))


def with_stray_point(d):
    apex = with_junk(d.apex)
    return SumDiagram(apex, tuple(FinMor(i.dom, apex, i.table) for i in d.injections))


SHARED_FACES = {
    "C3 fork": ("C3", {"equalizer": lambda f, g: identity(f.dom)}, (FAIL, {
        "f": "{a0} -> {b0, b1} [a0 |-> b0]", "g": "{a0} -> {b0, b1} [a0 |-> b1]",
        "face": "fork"}, 19)),
    "D3 fork": ("D3", {"coequalizer": lambda f, g: identity(f.cod)}, (FAIL, {
        "f": "{a0} -> {b0, b1} [a0 |-> b0]", "g": "{a0} -> {b0, b1} [a0 |-> b1]",
        "face": "fork"}, 87)),
    "pullback-elements constructed": ("pullback-elements", {
        "pullback": lambda f, g: drop_last_point(pullback(f, g)),
    }, (FAIL, {
        "f": "{a0} -> {c0} [a0 |-> c0]", "g": "{b0} -> {c0} [b0 |-> c0]",
        "reason": "constructed"}, 13)),
    "C2 sweep": ("C2", {"product": lambda a, b: dropped_last_pair(product(a, b))}, (FAIL, {
        "A": "{a0}", "B": "{b0}", "T": "{t0}", "f": "{t0} -> {a0} [t0 |-> a0]",
        "g": "{t0} -> {b0} [t0 |-> b0]", "mediators": 0}, 7)),
    "D2 sweep": ("D2", {"coproduct": lambda a, b: (
        with_stray_point(coproduct(a, b)) if len(a) == 1 else coproduct(a, b)),
    }, (FAIL, {
        "A": "{a0}", "B": "{}", "T": "{t0, t1}", "f": "{a0} -> {t0, t1} [a0 |-> t0]",
        "g": "{} -> {t0, t1} []", "mediators": 2}, 62)),
    "C3 sweep": ("C3", {"equalizer": lambda f, g: (
        omitted_last(equalizer(f, g)) if len(f.dom) == 3 else equalizer(f, g)),
    }, (FAIL, {
        "f": "{a0, a1, a2} -> {b0} [a0 |-> b0, a1 |-> b0, a2 |-> b0]",
        "g": "{a0, a1, a2} -> {b0} [a0 |-> b0, a1 |-> b0, a2 |-> b0]",
        "h": "{t0} -> {a0, a1, a2} [t0 |-> a2]", "mediators": 0}, 583)),
    "D3 sweep": ("D3", {"coequalizer": lambda f, g: (
        collapsed(coequalizer(f, g)) if (len(f.dom), len(f.cod)) == (2, 3)
        else coequalizer(f, g)),
    }, (FAIL, {
        "f": "{a0, a1} -> {b0, b1, b2} [a0 |-> b0, a1 |-> b0]",
        "g": "{a0, a1} -> {b0, b1, b2} [a0 |-> b0, a1 |-> b0]",
        "h": "{b0, b1, b2} -> {t0, t1} [b0 |-> t0, b1 |-> t0, b2 |-> t1]",
        "mediators": 0}, 471)),
    # the first rep over a one-point A has the table of a rep over the empty
    # A, so a count cached without the codomain would let the stray through
    "D3 unreached class": ("D3", {"coequalizer": lambda f, g: (
        with_stray_class(coequalizer(f, g)) if len(f.dom) == 1 else coequalizer(f, g)),
    }, (FAIL, {
        "f": "{a0} -> {b0} [a0 |-> b0]", "g": "{a0} -> {b0} [a0 |-> b0]",
        "h": "{b0} -> {t0, t1} [b0 |-> t0]", "mediators": 2}, 67)),
    "pullback-elements sweep": ("pullback-elements", {
        "_eq10_counts": lambda *legs: True,
        "pullback": lambda f, g: (
            drop_last_point(pullback(f, g)) if len(f.cod) == 3 else pullback(f, g)),
    }, (FAIL, {
        "f": "{a0} -> {c0, c1, c2} [a0 |-> c0]", "g": "{b0} -> {c0, c1, c2} [b0 |-> c0]",
        "q1": "{t0} -> {a0} [t0 |-> a0]", "q2": "{t0} -> {b0} [t0 |-> b0]"}, 15843)),
    "quotients sweep": ("quotients", {"quotient": lambda rel: (
        with_stray_class(quotient(rel)) if len(rel.cods[0]) else quotient(rel)),
    }, (FAIL, {
        "X": "{x0}", "h": "{x0} -> {t0, t1} [x0 |-> t0]", "mediators": 2}, 7)),
}


@pytest.mark.parametrize("item, patches, want", SHARED_FACES.values(), ids=list(SHARED_FACES))
def test_every_shared_sweep_face_is_pinned(monkeypatch, item, patches, want):
    for name, value in patches.items():
        monkeypatch.setattr(axioms, name, value)
    check = check_axiom if item in AXIOMS else check_theorem
    rep = check(CheckSpec(item=item, bound=3))
    assert (rep.verdict, rep.witness, rep.instances_checked) == want


# ---------------------------------------------------------------------------
# the instance source: every shape enumerated by one generator


def cospans_by_loops(spec):
    """The cospans f: a -> c <- b :g as nested loops, c outermost."""
    for c in axioms._objs(spec, "c"):
        for a in axioms._objs(spec, "a"):
            for b in axioms._objs(spec, "b"):
                for f in axioms._maps(spec, a, c):
                    for g in axioms._maps(spec, b, c):
                        yield f, g


def composables_by_loops(spec):
    """The composable pairs y -g-> x -f-> i as nested loops, y outermost."""
    for y in axioms._objs(spec, "y"):
        for x in axioms._objs(spec, "x"):
            for i in axioms._objs(spec, "i"):
                for g in axioms._maps(spec, y, x):
                    for f in axioms._maps(spec, x, i):
                        yield g, f


@pytest.mark.parametrize("spec", [
    *(CheckSpec(item="onto-pullback", bound=b) for b in (1, 2, 3)),
    CheckSpec(item="onto-pullback", bound=2, objects=(carrier("p", "q"),)),
    CheckSpec(item="onto-pullback", bound=5, sample=3, seed=2),
], ids=["b1", "b2", "b3", "model", "sampled-b5"])
@pytest.mark.parametrize("shape, loops", [
    (axioms._COSPAN, cospans_by_loops),
    (axioms._COMPOSABLE, composables_by_loops),
], ids=["cospan", "composable"])
def test_instances_follow_the_nested_loops(spec, shape, loops):
    assert list(axioms._instances(spec, shape)) == list(loops(spec))


def test_instances_free_each_first_leg_once_past_it():
    # pi_diagram keeps its blocks on g, so a listed first leg would hold
    # every g's blocks for a whole carrier tuple.  Over y1 -> x2 -> i1
    # there are two g and one f.
    walk = axioms._instances(CheckSpec(item="Pi", bound=2), axioms._COMPOSABLE)
    g, f = next(legs for legs in walk if (len(legs[0].dom), len(legs[0].cod)) == (1, 2))
    pi_diagram(g, f)
    passed = weakref.ref(g)
    g, f = next(walk)
    assert g is not passed() and len(g.cod) == 2
    gc.collect()
    assert passed() is None


def test_sampled_counts_at_bound_five_are_pinned():
    want = {"onto-pullback": 508, "regularity": 282, "function-graphs": 85,
            "inclusion-orders": 16, "dependent-choice": 34}
    got = {item: check_theorem(CheckSpec(item=item, bound=5, sample=3, seed=2))
           for item in want}
    assert {item: (r.verdict, r.instances_checked) for item, r in got.items()} == {
        item: (PASS, n) for item, n in want.items()}


# ---------------------------------------------------------------------------
# sampling mode


def test_sampled_mode_skips_uniqueness_items():
    rep = check_axiom(CheckSpec(item="C2", bound=5, sample=3, seed=1))
    assert rep.verdict == "skip"
    assert "exhaustive" in rep.witness["reason"]


def test_sampled_pretopos_skips_before_running_any_part(monkeypatch):
    def no_part(spec):
        raise AssertionError("a pretopos part ran under sampling")

    monkeypatch.setattr(axioms, "_thm_classifier", no_part)
    rep = check_theorem(CheckSpec(item="pretopos", bound=5, sample=5))
    assert rep.verdict == "skip" and rep.instances_checked == 0
    assert "exhaustive" in rep.witness["reason"]


EXHAUSTIVE_ONLY = ["C2", "C3", "D2", "D3", "Pi", "DP", "NT", "pullback-elements",
                   "quotients", "exponentials", "epi-onto", "pretopos",
                   "pi-universality"]


@pytest.mark.parametrize("item", EXHAUSTIVE_ONLY)
def test_uniqueness_items_skip_under_sampling(item):
    check = check_axiom if item in AXIOMS else check_theorem
    rep = check(CheckSpec(item=item, bound=5, sample=1))
    assert rep.text_line() == (
        f"SKIP {item} instances=0 witness="
        '{"reason":"uniqueness of mediating maps needs exhaustive candidate '
        'enumeration; rerun without sampling at a bound <= 4"}'
    )


@pytest.mark.parametrize("bound, sample", [(5, 0), (5, -1), (-2, None), (0, None)])
def test_a_bound_or_sample_below_one_is_refused(bound, sample):
    # Such specs used to PASS function-graphs or Fct having checked nothing,
    # or to fail inside a seeded draw.
    with pytest.raises(ValueError, match="must be at least 1, got"):
        CheckSpec(item="function-graphs", bound=bound, sample=sample)


def test_sampled_mode_still_checks_pointwise_items():
    rep = check_axiom(CheckSpec(item="Fct", bound=5, sample=2, seed=1))
    assert rep.passed
    again = check_axiom(CheckSpec(item="Fct", bound=5, sample=2, seed=1))
    assert again.instances_checked == rep.instances_checked


@pytest.mark.parametrize("item", ["function-graphs", "dependent-choice",
                                  "inclusion-orders"])
def test_sampled_relation_items_have_bounded_cost(item):
    # Exhaustively the first two enumerate every relation on each carrier
    # (pair), 2^25 masks at bound 5, and inclusion-orders every pair of
    # monos into a carrier, 1957^2 at bound 6; sampled, each draws a few.
    bound = "6" if item == "inclusion-orders" else "5"
    argv = ["check", "--bound", bound, "--sample", "5", "--theorem", item]
    script = f"import sys; from cetcs.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(cetcs.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=30, check=True)
        outs.append(proc.stdout)
    assert outs[0].startswith(f"PASS {item} instances=")
    assert outs[0] == outs[1]


def test_extra_model_instances_join_the_pool(std_model):
    plain = check_axiom(CheckSpec(item="Fct", bound=2))
    extended = check_axiom(CheckSpec(
        item="Fct", bound=2,
        morphisms=tuple(std_model.morphisms.values()),
    ))
    assert extended.instances_checked == plain.instances_checked + 3
    assert extended.passed


# ---------------------------------------------------------------------------
# the work done at the default bound, pinned: a faster sweep must visit
# exactly the instances the plain generate-and-filter sweep visited

BOUND_3_COUNTS = {
    "C1": 4, "C2": 1544, "C3": 7218, "D1": 4, "D2": 1842, "D3": 10472,
    "Pi": 16664, "G": 60, "PA": 22, "I": 1, "DP": 194, "NT": 3, "Fct": 60,
    "Eff": 54, "element-equality": 970, "inclusion-orders": 286,
    "function-graphs": 689, "pullback-elements": 76203, "quotients": 168,
    "induction": 602, "exponentials": 76, "dependent-choice": 1048,
    "onto-pullback": 746, "image-factorization": 448, "covers-onto": 60,
    "regularity": 376, "epi-onto": 60, "classifier": 15, "pretopos": 1129,
    "choice": 74, "pi-universality": 18751, "internal-logic": 48,
}


def test_every_item_at_bound_three_is_pinned():
    reports = [check_axiom(CheckSpec(item=item, bound=3)) for item in AXIOMS]
    reports += [check_theorem(CheckSpec(item=item, bound=3)) for item in THEOREMS]
    got = {r.item: (r.verdict, r.instances_checked) for r in reports}
    assert got == {item: ("pass", n) for item, n in BOUND_3_COUNTS.items()}
    assert list(got) == list(BOUND_3_COUNTS)

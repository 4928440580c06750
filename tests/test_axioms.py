"""The exhaustive checkers: positive runs, mutation detection, sampling."""

from __future__ import annotations

import ast
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
from cetcs import axioms, cli, finset, kernel
from cetcs.axioms import (
    AXIOMS,
    THEOREMS,
    CheckSpec,
    check_axiom,
    check_pi_universal,
    check_theorem,
)
from cetcs.errors import CompositionError
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
    image_factorization,
    initial,
    nno_prefix,
    pi_diagram,
    pi_object,
    product,
    pullback,
    quotient,
    unique_to_terminal,
)
from cetcs.relcalc import leq, relation_from_tuples, unique_choice
from cetcs.report import FAIL, PASS, Report

import literal_sweeps
from literal_sweeps import set_partitions


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


def test_equivalences_count_bell_numbers():
    for n, bell in enumerate((1, 1, 2, 5, 15, 52)):
        assert sum(1 for _ in axioms._equivalences(carrier_of_size(n, "x"))) == bell


def test_equivalences_are_distinct_equivalences():
    for n in range(5):
        x = carrier_of_size(n, "x")
        seen = set()
        for rel in axioms._equivalences(x):
            rows = frozenset(rel.tuples)
            assert rel.cods == (x, x) and rows not in seen
            seen.add(rows)
        assert seen == {frozenset((a, b) for block in part for a in block for b in block)
                        for part in set_partitions(x.labels)}


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


def competitors_keyed_by_one_face(face):
    """``_sweep`` counting each pi-universality competitor, and each map into
    the product, by one face of its (phi, ev) key alone."""
    plain = axioms._sweep

    def sweep(tests, mediators, cones):
        def merged(t):
            counts = Counter()
            for key, n in mediators(t).items():
                counts[key[face]] += n
            return counts

        return plain(tests, merged, lambda t: (
            (cone, key[face], size) for cone, key, size in cones(t)))

    return sweep


def test_pi_universality_kills_a_morphism_check_blind_to_evaluation(monkeypatch):
    # Over g: {y0,y1} -> {x0} along x0 |-> i0 both maps from the one-point
    # competitor commute with phi, and only evaluation tells them apart.
    monkeypatch.setattr(axioms, "_sweep", competitors_keyed_by_one_face(0))
    assert check_theorem(CheckSpec(item="pi-universality", bound=1)).passed
    rep = check_theorem(CheckSpec(item="pi-universality", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 500)
    assert rep.witness == {
        "g": "{y0, y1} -> {x0} [y0 |-> x0, y1 |-> x0]",
        "f": "{x0} -> {i0} [x0 |-> i0]",
        "competitor": "{w0} -> {i0} [w0 |-> i0]",
        "morphisms": 2,
    }


def test_pi_universality_kills_a_morphism_check_blind_to_phi(monkeypatch):
    # Every map W -> F is offered, not only those over the competitor's phi.
    # Along f: {} -> {i0, i1} both points of F carry the empty section, so
    # only phi tells the two maps from {w0} apart.
    monkeypatch.setattr(axioms, "_sweep", competitors_keyed_by_one_face(1))
    assert check_theorem(CheckSpec(item="pi-universality", bound=1)).passed
    rep = check_theorem(CheckSpec(item="pi-universality", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 434)
    assert rep.witness == {
        "g": "{} -> {} []",
        "f": "{} -> {i0, i1} []",
        "competitor": "{w0} -> {i0, i1} [w0 |-> i0]",
        "morphisms": 2,
    }


def test_pi_universality_fails_a_product_whose_p_lacks_a_point(monkeypatch):
    # With the face checker judging the real construction, only the
    # competitor sweep sees the dropped point: the map onto its v reads no
    # ev there, so the competitor carrying v's section has no morphism.
    plain, checker = axioms.pi_diagram, axioms.check_pi_universal
    monkeypatch.setattr(axioms, "check_pi_universal",
                        lambda d, g, f: checker(plain(g, f), g, f))
    monkeypatch.setattr(axioms, "pi_diagram", lambda g, f: rebuilt(
        plain(g, f), g, f, lambda F, P: P and P.pop()))
    rep = check_theorem(CheckSpec(item="pi-universality", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 457)
    assert rep.witness == {
        "g": "{y0} -> {x0} [y0 |-> x0]",
        "f": "{x0} -> {i0} [x0 |-> i0]",
        "competitor": "{w0} -> {i0} [w0 |-> i0]",
        "morphisms": 0,
    }


def test_pi_universality_kills_a_pi_object_that_drops_a_section(monkeypatch):
    # Pi never calls pi_object; the section-count pass after it does, and the
    # first pair with a point in F, over the empty section, fails.
    monkeypatch.setattr(axioms, "pi_object", lambda g, f: (lambda m: FinMor(
        FinObj(m.dom.labels[:-1]), m.cod, m.table[:-1]))(pi_object(g, f)))
    assert check_axiom(CheckSpec(item="Pi", bound=2)).instances_checked == 381
    rep = check_theorem(CheckSpec(item="pi-universality", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 381 + 2)
    assert rep.witness == {"g": "{} -> {} []", "f": "{} -> {i0} []",
                           "statement": "section count"}


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


def outcome(rep):
    return rep.verdict, rep.witness, rep.instances_checked


def fresh(*maps):
    """Copies of the maps that keep no index yet."""
    return [FinMor(m.dom, m.cod, m.table) for m in maps]


def test_pi_check_with_kept_fibers_equals_a_cold_one():
    # Pi hands the checker the same f for every g of a carrier triple, so
    # from the second g on f brings the fibers the checker keeps on it
    pairs = 0
    for y, x, i in itertools.product(*([carrier_of_size(n, p) for n in range(4)] for p in "yxi")):
        fs, gs = list(all_maps(x, i)), list(all_maps(y, x))
        for g in gs:
            for f in fs:
                d = pi_diagram(g, f)
                assert outcome(check_pi_universal(d, g, f)) == outcome(
                    check_pi_universal(d, *fresh(g, f)))
                pairs += 1
        assert not (fs and gs) or all("_check_fibers" in m.__dict__ for m in fs + gs)
    assert pairs == 1678


def test_pi_check_with_kept_fibers_equals_a_cold_one_on_every_mutant():
    d, g, f = two_index_diagram()
    assert check_pi_universal(d, g, f).passed
    mutants = [mutate for mutate, _, _ in FACE_MUTANTS.values()] + [
        lambda d, g, f, k=k: rebuilt(d, g, f, lambda F, P: drop_f_point(k, F, P))
        for k in range(3)]
    for mutate in mutants:
        bad = mutate(d, g, f)
        warm = check_pi_universal(bad, g, f)
        assert warm.failed and outcome(warm) == outcome(check_pi_universal(bad, *fresh(g, f)))


def test_pi_check_catches_a_construction_misled_by_its_kept_keys():
    # f's kept keys lose v from the fiber of i, so pi_diagram builds the
    # sections over {u} alone; the checker indexes f itself and sees P
    # miss the rows at v
    x, y, i = carrier("u", "v", "w"), carrier("a", "b", "c"), carrier("i", "j", "k")
    g = FinMor(y, x, ("u", "u", "v"))
    f = FinMor(x, i, ("i", "i", "j"))
    f.__dict__["_fiber_keys"] = (("i", ("u",)), ("j", ("w",)), ("k", ()))
    rep = check_pi_universal(pi_diagram(g, f), g, f)
    assert outcome(rep) == (FAIL, {"face": "square pullback", "v": "(i|u↦a)", "x": "v",
                                   "points": 0}, 8)


def code_names(module) -> set[str]:
    """The identifiers, attribute names and string constants of the module's
    code; a docstring is never exactly a name, so prose may mention one."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_construction_and_checker_never_read_each_others_kept_indexes():
    construction, checker = {"_sections", "_fiber_keys"}, {"_check_fibers"}
    finset_names, axioms_names = code_names(finset), code_names(axioms)
    assert construction <= finset_names and checker <= axioms_names
    assert not construction & axioms_names and not checker & finset_names


def test_a_miscounted_section_total_fails_on_its_count(monkeypatch):
    # With every section matched by exactly one point, only the total can
    # be wrong; the first pair, into the empty index, has no section at all
    counted = axioms._section_count
    monkeypatch.setattr(axioms, "_section_count", lambda g, f: counted(g, f) + 1)
    rep = check_axiom(CheckSpec("Pi", bound=2))
    assert outcome(rep) == (FAIL, {"face": "section count", "points": 0, "sections": 1,
                                   "g": "{} -> {} []", "f": "{} -> {} []"}, 6)
    assert rep.text_line() == (
        'FAIL Pi instances=6 witness={"f":"{} -> {} []","face":"section count",'
        '"g":"{} -> {} []","points":0,"sections":1}')


# ---------------------------------------------------------------------------
# the mediator sweep every universal-property item shares


def test_sweep_stops_at_the_first_cone_without_a_unique_mediator():
    x = carrier("u", "v")
    cones = [(FinMor(x, x, table), table, 1) for table in (("u", "v"), ("v", "u"), ("u", "u"))]
    mediators = Counter({("u", "v"): 1, ("v", "u"): 2})

    def sweep(tests, cones_over):
        return axioms._sweep(tests, lambda t: mediators, cones_over)

    assert sweep([x], lambda t: cones[:1]) == (1, None, None, 1)
    assert sweep([x], lambda t: cones) == (2, x, cones[1][0], 2)
    assert sweep([x], lambda t: cones[2:]) == (1, x, cones[2][0], 0)
    # the visits add up over the test objects, and the first failing one is named
    y = carrier("w")
    assert sweep([y, x], lambda t: cones[:1] if t is y else cones) == (3, x, cones[1][0], 2)


def test_sweep_reads_a_class_of_cones_by_its_size():
    # a class of two cones passes with two mediators in all, one per cone; with
    # four it fails with two per cone, and every cone of it counts as visited
    mediators = Counter({"pair": 2, "twice": 4})
    classes = [("pair", "pair", 2), ("twice", "twice", 2)]
    assert axioms._sweep(["t"], lambda t: mediators, lambda t: classes[:1]) == (
        2, None, None, 1)
    assert axioms._sweep(["t"], lambda t: mediators, lambda t: classes) == (4, "t", "twice", 2)


def test_orbits_of_maps_are_counted_by_size_and_number():
    # Against code that shares nothing with the generators: maps from k
    # points to n number n^k, and their multisets C(n+k-1, k); maps from n
    # points to k number k^n, and their partitions into at most k blocks
    # the sum of the Stirling numbers S(n, b), b <= k, by their recurrence.
    stirling = {(0, 0): 1}
    for n in range(1, 6):
        for b in range(n + 1):
            stirling[n, b] = b * stirling.get((n - 1, b), 0) + stirling.get((n - 1, b - 1), 0)
    for n, k in itertools.product(range(6), range(6)):
        multisets = list(axioms._multisets(n, k))
        assert sum(size for _, size in multisets) == n ** k
        assert len(multisets) == (math.comb(n + k - 1, k) if n + k else 1)
        partitions = list(axioms._partitions(n, k))
        assert sum(size for _, size in partitions) == k ** n
        assert len(partitions) == sum(stirling.get((n, b), 0) for b in range(k + 1))
        # each listed once, in lexicographic order
        for orbits in (multisets, partitions):
            keys = [key for key, _ in orbits]
            assert keys == sorted(set(keys))


def test_a_shared_decided_dict_gives_each_sweep_its_own_result():
    # The key is complete: over every leg tuple between feet and apexes of
    # size <= 2, universal or not, one dict kept across all calls returns
    # the whole result, witness included, that a fresh dict per call does.
    tests = [carrier_of_size(n, "t") for n in range(3)]
    sizes = range(3)
    shared, calls, verdicts = {}, 0, set()

    def agree(sweep, *args):
        nonlocal calls
        alone = sweep(tests, *args, {})
        assert sweep(tests, *args, shared) == alone, args
        calls += 1
        verdicts.add(alone[2] is None)

    for n_feet in (1, 2):
        for feet in itertools.product(*[[carrier_of_size(n, p) for n in sizes]
                                        for p in "ab"[:n_feet]]):
            corners = list(itertools.product(*[x.labels for x in feet]))
            positions = range(sum(map(len, feet)))
            for apex in (carrier_of_size(n, "p") for n in sizes):
                for legs in itertools.product(*[list(all_maps(apex, x)) for x in feet]):
                    for k in range(len(corners) + 1):
                        for points in itertools.combinations(corners, k):
                            agree(axioms._limit_sweep, apex, legs, points)
                for legs in itertools.product(*[list(all_maps(x, apex)) for x in feet]):
                    for k in range(3):
                        for merged in itertools.combinations(
                                itertools.permutations(positions, 2), k):
                            agree(axioms._colimit_sweep, apex, legs, merged)
    # both verdicts are reached, and most calls are answered from the dict
    assert verdicts == {True, False}
    assert len(shared) < calls // 10


# ---------------------------------------------------------------------------
# the item protocol: an item yields the counts of the instances it decides
# and returns its witness, and the runner alone sums and picks the verdict


def test_the_runner_sums_the_yielded_counts_and_fails_on_any_witness(monkeypatch):
    def failing(spec):
        yield 2
        yield 3
        return {}

    def passing(spec):
        yield 4

    monkeypatch.setitem(axioms.AXIOMS, "tally-fail", ("fails", failing))
    monkeypatch.setitem(axioms.THEOREMS, "tally-pass", ("passes", passing))
    rep = check_axiom(CheckSpec(item="tally-fail"))
    # an empty witness is still a failure
    assert (rep.verdict, rep.instances_checked, rep.witness) == (FAIL, 5, {})
    rep = check_theorem(CheckSpec(item="tally-pass"))
    assert (rep.verdict, rep.instances_checked, rep.witness) == (PASS, 4, None)


def test_pretopos_stops_at_its_first_failing_part_with_that_count(monkeypatch):
    def classifier(spec):
        yield 7
        return {"x": 1}

    def later_part(spec):
        raise AssertionError("a pretopos part ran after a failing one")

    description, _, *parts = axioms.THEOREMS["pretopos"]
    monkeypatch.setitem(axioms.THEOREMS, "pretopos",
                        (description, classifier, *[later_part for _ in parts]))
    rep = check_theorem(CheckSpec(item="pretopos"))
    assert (rep.verdict, rep.instances_checked, rep.witness) == (FAIL, 7, {"x": 1})


def test_library_calls_run_every_part_and_see_a_patch_between_them(monkeypatch):
    # Outside a shared_parts block nothing is kept, so a construction patched
    # between two calls is judged by the second.
    assert check_theorem(CheckSpec(item="pretopos", bound=2)).passed
    monkeypatch.setattr(axioms, "image_factorization", lambda f: (
        entries_swapped(image_factorization(f)[0]), image_factorization(f)[1]))
    rep = check_theorem(CheckSpec(item="pretopos", bound=2))
    assert (rep.verdict, rep.instances_checked, rep.witness) == (FAIL, 7 + 9, {
        "f": "{a0, a1} -> {b0, b1} [a0 |-> b0, a1 |-> b1]",
        "reason": "does not compose to f"})


@pytest.mark.parametrize("other", [
    dict(bound=3), dict(sample=2), dict(seed=1, sample=1),
    dict(morphisms=(FinMor(carrier_of_size(1, "m"), carrier_of_size(1, "n"), ("n0",)),)),
], ids=["bound", "sample", "seed", "model"])
def test_specs_that_differ_beyond_the_item_share_no_part(other):
    base = dict(bound=2, sample=1) if "seed" in other else dict(bound=2)
    specs = [CheckSpec(item="Fct", **base), CheckSpec(item="Fct", **{**base, **other})]
    alone = [check_axiom(spec).instances_checked for spec in specs]
    with axioms.shared_parts():
        together = [check_axiom(spec).instances_checked for spec in specs]
        assert len(axioms._MEMO.get()) == 2
    assert together == alone
    assert axioms._MEMO.get() is None


def test_a_part_interrupted_by_an_exception_is_run_again(monkeypatch):
    # only a part that ran to its end is kept, so the second item that lists
    # it runs it anew instead of being credited with the partial count
    runs = []

    def flaky(spec):
        runs.append(spec.item)
        yield 3
        if len(runs) == 1:
            raise RuntimeError("interrupted")
        yield 2

    monkeypatch.setitem(axioms.THEOREMS, "first", ("lists flaky", flaky))
    monkeypatch.setitem(axioms.THEOREMS, "second", ("lists flaky", flaky))
    with axioms.shared_parts():
        with pytest.raises(RuntimeError, match="interrupted"):
            check_theorem(CheckSpec(item="first"))
        assert axioms._MEMO.get() == {}
        rep = check_theorem(CheckSpec(item="second"))
        assert (rep.verdict, rep.instances_checked) == (PASS, 5)
        assert check_theorem(CheckSpec(item="first")).instances_checked == 5
    assert runs == ["first", "second"]


# ---------------------------------------------------------------------------
# mediator-sweep mutations: with the cheap construction-side checks defeated,
# the grouped and reused buckets must still reject a broken construction


def reapex(square, points):
    """The square with apex points given as (label, point of the real apex)."""
    apex = FinObj(tuple(lbl for lbl, _ in points))

    def leg(p):
        return FinMor(apex, p.cod, tuple(p(src) for _, src in points))

    return PullbackSquare(apex, leg(square.p1), leg(square.p2))


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


def with_an_incompatible_point(square, f, g, replacing: int):
    """The square over (f, g) less its last ``replacing`` points plus one
    over a pair (x, y) with f(x) != g(y); None if there is no such pair or
    point."""
    pairs = [(x, y) for x in f.dom.labels for y in g.dom.labels if f(x) != g(y)]
    kept = len(square.apex) - replacing
    if not pairs or kept < 0:
        return None
    apex = FinObj(square.apex.labels[:kept] + ("odd",))
    x, y = pairs[0]
    return PullbackSquare(apex, FinMor(apex, f.dom, square.p1.table[:kept] + (x,)),
                          FinMor(apex, g.dom, square.p2.table[:kept] + (y,)))


def test_eq10_counts_agrees_with_the_lookup_it_replaced():
    small = CheckSpec(item="pullback-elements", bound=2)
    verdicts = Counter()
    for f, g in axioms._instances(small, axioms._COSPAN):
        for p_obj in axioms._objs(small, "p"):
            for p1, p2 in literal_sweeps.cones(f, g, p_obj):
                want = _eq10_counts_by_lookup(p1, p2, f, g)
                assert axioms._eq10_counts(p1, p2, f, g) == want, (f, g, p1, p2)
                verdicts["cone", want] += 1
        square = pullback(f, g)
        mutants = [square, duplicate_first_point(square),
                   with_an_incompatible_point(square, f, g, 0),
                   with_an_incompatible_point(square, f, g, 1)]
        if len(square.apex):
            mutants.append(drop_last_point(square))
        for s in filter(None, mutants):
            want = _eq10_counts_by_lookup(s.p1, s.p2, f, g)
            assert axioms._eq10_counts(s.p1, s.p2, f, g) == want, (f, g, s)
            verdicts["square", want] += 1
    # both verdicts are reached on cones and on squares
    assert set(verdicts) == {("cone", True), ("cone", False),
                             ("square", True), ("square", False)}


def _eq10_counts_without_distinct_rows(p1, p2, f, g):
    # _eq10_counts less its first test, so two points of P on one row pass
    rows = set(zip(p1.table, p2.table))
    at_f = dict(zip(f.dom.labels, f.table))
    at_g = dict(zip(g.dom.labels, g.table))
    if not all(x in at_f and y in at_g and at_f[x] == at_g[y] for x, y in rows):
        return False
    over = Counter(g.table)
    return len(rows) == sum(over[c] for c in f.table)


def test_pullback_elements_decides_small_squares_by_the_limit_sweep(monkeypatch):
    # With the criterion blind to repeated rows, the constructed squares
    # still pass, and the first small cone that repeats a row is caught by
    # its two mediators from the point.
    monkeypatch.setattr(axioms, "_eq10_counts", _eq10_counts_without_distinct_rows)
    rep = check_theorem(CheckSpec(item="pullback-elements", bound=3))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 75_962)
    assert rep.witness == {
        "f": "{a0} -> {c0} [a0 |-> c0]", "g": "{b0} -> {c0} [b0 |-> c0]",
        "p1": "{p0, p1} -> {a0} [p0 |-> a0, p1 |-> a0]",
        "p2": "{p0, p1} -> {b0} [p0 |-> b0, p1 |-> b0]",
        "criterion": True, "pullback": False,
    }


def test_covers_onto_never_reads_the_surjectivity_shortcut(monkeypatch):
    # _is_cover tries the proper subobjects itself, so a shortcut that calls
    # every map onto is caught at the first map that is not a cover.
    monkeypatch.setattr(FinMor, "is_surjective", lambda self: True)
    rep = check_theorem(CheckSpec(item="covers-onto", bound=3))
    assert (rep.verdict, rep.instances_checked, rep.witness) == (
        FAIL, 2, {"f": "{} -> {b0} []"})


def test_epi_never_reads_the_surjectivity_shortcut(monkeypatch):
    # Right cancellation needs only hom-sets and composition: with the table
    # shortcut made to raise, _is_epi still agrees with surjectivity, read
    # off before the patch, on every map between carriers of size <= 2.
    maps = [f for na in range(3) for nb in range(3)
            for f in all_maps(carrier_of_size(na, "a"), carrier_of_size(nb, "b"))]
    onto = [f.is_surjective() for f in maps]
    assert len(maps) == 11 and onto.count(True) == 5

    def shortcut(self):
        raise AssertionError("_is_epi read FinMor.is_surjective")

    monkeypatch.setattr(FinMor, "is_surjective", shortcut)
    spec = CheckSpec(item="epi-onto", bound=2)
    assert [axioms._is_epi(spec, f) for f in maps] == onto


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


def test_kernel_pairs_reject_a_quotient_that_drops_a_point(monkeypatch, capsys):
    # Eff and quotients share the kernel-pair part, which compares the
    # quotient's domain with the relation's carrier before reading it.  A
    # one-point carrier keeps its point, so {x0, x1} is the first to fail.
    def dropped_last(rel):
        q = quotient(rel)
        if len(q.dom) < 2:
            return q
        return FinMor(FinObj(q.dom.labels[:-1]), q.cod, q.table[:-1])

    monkeypatch.setattr(axioms, "quotient", dropped_last)
    feet = {"X": "{x0, x1}", "face": "feet"}
    for item, checked in (("Eff", 1), ("quotients", 1), ("pretopos", 882)):
        check = check_axiom if item in AXIOMS else check_theorem
        rep = check(CheckSpec(item=item, bound=3))
        assert (rep.verdict, rep.witness, rep.instances_checked) == (FAIL, feet, checked)
    assert cli.main(["check", "--axiom", "Eff", "--bound", "2"]) == 1
    assert capsys.readouterr().out.startswith("FAIL Eff instances=1 ")


# A model with one binary relation that is not an equivalence, which Eff
# skips, and one that is.  A has four points, so it stays out of the bound-3
# pools and only the model relation brings it in.
EFF_MODEL = """\
object A = {a, b, c, d}
relation n <| (A, A) = { (a, b) }
relation e <| (A, A) = { (a, a), (a, b), (b, a), (b, b), (c, c), (d, d) }
"""


def test_eff_checks_the_kernel_pair_of_a_model_equivalence(tmp_path, capsys):
    # the pools' equivalences give 54 pairs at bound 3, and e 16 more
    path = tmp_path / "eff.cetcs"
    path.write_text(EFF_MODEL, encoding="utf-8")
    assert cli.main(["check", "--axiom", "Eff", str(path)]) == 0
    assert capsys.readouterr().out == "PASS Eff instances=70\n"


def test_eff_rejects_a_quotient_wrong_only_on_the_model_relation(monkeypatch, tmp_path, capsys):
    # the mutant merges every point of A, so the pools pass and e fails at
    # its first unrelated pair, (a, c), after 54 + 3 pairs
    def merges_a(rel):
        q = quotient(rel)
        if rel.cods[0].labels != ("a", "b", "c", "d"):
            return q
        return FinMor(q.dom, q.cod, (q.table[0],) * len(q.table))

    monkeypatch.setattr(axioms, "quotient", merges_a)
    path = tmp_path / "eff.cetcs"
    path.write_text(EFF_MODEL, encoding="utf-8")
    assert check_axiom(CheckSpec("Eff", bound=3)).passed
    assert cli.main(["check", "--axiom", "Eff", str(path)]) == 1
    relation = "<| ({a, b, c, d}, {a, b, c, d}) = { (a,a), (a,b), (b,a), (b,b), (c,c), (d,d) }"
    assert capsys.readouterr().out == (
        'FAIL Eff instances=57 witness={"a":"a","b":"c","related":false,'
        f'"relation":"{relation}"}}\n')


def test_eff_counts_a_model_equivalence_on_a_pooled_carrier_once(tmp_path, capsys):
    # At bound 3 the three points of A join the x pool, whose walk covers
    # e among A's five equivalences: 54 + 45 pairs, not 9 more for e.
    # pretopos runs the same parts.  At bound 2 A is outside the pool, so
    # e brings its 9 pairs to the pools' 9.
    path = tmp_path / "eff.cetcs"
    path.write_text("object A = {a, b, c}\n"
                    "relation e <| (A, A) = { (a, a), (a, b), (b, a), (b, b), (c, c) }\n",
                    encoding="utf-8")
    assert cli.main(["check", "--axiom", "Eff", "--theorem", "pretopos", str(path)]) == 0
    assert capsys.readouterr().out == "PASS Eff instances=99\nPASS pretopos instances=4586\n"
    assert cli.main(["check", "--axiom", "Eff", "--bound", "2", str(path)]) == 0
    assert capsys.readouterr().out == "PASS Eff instances=18\n"


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
        return PullbackSquare(s.apex, p1, s.p2)

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


# A leg re-homed on a relabelled copy of its carrier, at the apex end or
# between the parts of a factorization, keeps a valid table: the item checks
# the feet before it composes or sweeps, so the command reports a FAIL with
# the face, and no error.


def rehomed(m, apex_end):
    """m with its apex end moved onto a primed copy: its domain, else its
    codomain and table."""
    if apex_end == "dom":
        return FinMor(primed(m.dom), m.cod, m.table)
    return FinMor(m.dom, primed(m.cod), tuple(f"{v}'" for v in m.table))


def rehome_product(a, b):
    d = product(a, b)
    p, q = d.projections
    return ProductDiagram(d.apex, (rehomed(p, "dom"), q))


def rehome_coproduct(a, b):
    d = coproduct(a, b)
    inl, inr = d.injections
    return SumDiagram(d.apex, (inl, rehomed(inr, "cod")))


def rehome_pullback(f, g):
    s = pullback(f, g)
    return PullbackSquare(s.apex, s.p1, rehomed(s.p2, "dom"))


def rehome_image(f):
    e, i = image_factorization(f)
    return rehomed(e, "cod"), i


@pytest.mark.parametrize("name, mutant, args, out", [
    ("product", rehome_product, ["--axiom", "C2"],
     'FAIL C2 instances=4 witness={"A":"{a0}","B":"{b0}","face":"feet"}\n'),
    ("coproduct", rehome_coproduct, ["--axiom", "D2"],
     'FAIL D2 instances=3 witness={"A":"{}","B":"{b0}","face":"feet"}\n'),
    ("pullback", rehome_pullback, ["--theorem", "pullback-elements"],
     'FAIL pullback-elements instances=10 witness={"f":"{a0} -> {c0} [a0 |-> c0]",'
     '"face":"feet","g":"{b0} -> {c0} [b0 |-> c0]"}\n'),
    ("image_factorization", rehome_image,
     ["--axiom", "Fct", "--theorem", "image-factorization", "--theorem", "pretopos"],
     "".join(f'FAIL {item} instances={n} witness={{"f":"{{a0}} -> {{b0}} [a0 |-> b0]",'
             '"face":"feet"}\n'
             for item, n in (("Fct", 3), ("image-factorization", 3), ("pretopos", 10)))),
], ids=["C2", "D2", "pullback-elements", "Fct"])
def test_a_rehomed_leg_fails_on_its_feet_and_exits_1(monkeypatch, capsys, name, mutant,
                                                      args, out):
    monkeypatch.setattr(axioms, name, mutant)
    assert cli.main(["check", "--bound", "2", *args]) == 1
    assert capsys.readouterr() == (out, "")


def test_the_sweeps_refuse_a_leg_off_the_apex():
    # every item compares the legs with the apex first, so only a direct
    # call reaches this refusal
    x = carrier_of_size(1, "x")
    leg = identity(x)
    with pytest.raises(CompositionError):
        axioms._limit_sweep([], primed(x), (leg,), [("x0",)], {})
    with pytest.raises(CompositionError):
        axioms._colimit_sweep([], primed(x), (leg,), (), {})


# ---------------------------------------------------------------------------
# relabelling orbits: their number by Burnside's lemma, and constructions
# broken on one instance that relabels an earlier one


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


def composable_carriers(sizes=SIZES):
    """The carrier tuples of Pi and pi-universality in their order."""
    for y, x, i in itertools.product(sizes, sizes, sizes):
        yield (carrier_of_size(y, "y"), carrier_of_size(x, "x"), carrier_of_size(i, "i"))


def test_burnside_orbit_counts_are_pinned():
    # the orbit counts that a generator of one instance per orbit must meet
    pairs = sum(burnside(sizes, axioms._PAIR) for sizes in itertools.product(SIZES, SIZES))
    cospans = sum(burnside(sizes, axioms._COSPAN)
                  for sizes in itertools.product(SIZES, SIZES, SIZES))
    assert (pairs, cospans) == (68, 155)
    # the bound-4 counts that ROADMAP's table records
    four = range(5)
    assert sum(burnside(s, axioms._PAIR) for s in itertools.product(four, four)) == 437
    assert sum(burnside(s, axioms._COSPAN)
               for s in itertools.product(four, four, four)) == 736
    composables = sum(burnside(sizes, axioms._COMPOSABLE)
                      for sizes in itertools.product(SIZES, SIZES, SIZES))
    assert composables == 100


def first_relabelled_instance(objs, shape, keep=lambda legs: True):
    """The first instance over the carriers, in enumeration order, that a
    tuple of label permutations (one per carrier) maps onto an earlier one,
    or None.  Permutations p and q of a leg's carriers move its graph
    {(x, m(x))} to {(p(x), q(m(x)))}."""
    ends, earlier = shape[1], set()
    relabellings = [[dict(zip(x.labels, p)) for p in itertools.permutations(x.labels)]
                    for x in objs]
    for legs in itertools.product(*[list(all_maps(objs[i], objs[j])) for i, j in ends]):
        moved = {
            tuple(frozenset((gamma[i][x], gamma[j][y]) for x, y in zip(m.dom.labels, m.table))
                  for m, (i, j) in zip(legs, ends))
            for gamma in itertools.product(*relabellings)
        }
        own = tuple(frozenset(zip(m.dom.labels, m.table)) for m in legs)
        if moved & earlier and keep(legs):
            return legs
        earlier.add(own)
    return None


# Each construction below is broken on one instance only, the first that
# relabels an earlier instance; the sweep of that instance, keyed by what it
# reads, fails there and names a cone of its own.


RELABELLED_PAIR = (carrier_of_size(1, "a"), carrier_of_size(2, "b"))


def equalizer_broken_on_a_relabelled_pair():
    """The first relabelled pair with a point in its equalizer, and the patch
    that omits that point there."""
    target = first_relabelled_instance(RELABELLED_PAIR, axioms._PAIR,
                                       lambda legs: len(equalizer(*legs).dom) > 0)

    def omit_last_once(f, g):
        e = equalizer(f, g)
        return omitted_last(e) if (f, g) == target else e

    return target, {"equalizer": omit_last_once}


def coequalizer_broken_on_a_relabelled_pair(breaker):
    """The first relabelled pair with two classes, and the patch that breaks
    its coequalizer there."""
    target = first_relabelled_instance(RELABELLED_PAIR, axioms._PAIR,
                                       lambda legs: len(coequalizer(*legs).cod) > 1)

    def break_once(f, g):
        q = coequalizer(f, g)
        return breaker(q) if (f, g) == target else q

    return target, {"coequalizer": break_once}


def pullback_broken_on_a_relabelled_cospan():
    """The first relabelled cospan over (2, 1, 1) with a point in its pullback,
    and the patch that drops that point there.  The point-count face would
    see it first, so the patch defeats it, as in the sweep mutations above."""
    objs = (carrier_of_size(2, "c"), carrier_of_size(1, "a"), carrier_of_size(1, "b"))
    target = first_relabelled_instance(objs, axioms._COSPAN,
                                       lambda legs: len(pullback(*legs).apex) > 0)
    return target, {"_eq10_counts": lambda *legs: True, "pullback": lambda f, g: (
        drop_last_point(pullback(f, g)) if (f, g) == target else pullback(f, g))}


def test_sweep_rejects_an_equalizer_broken_on_a_relabelled_pair(monkeypatch):
    target, patches = equalizer_broken_on_a_relabelled_pair()
    for name, value in patches.items():
        monkeypatch.setattr(axioms, name, value)
    rep = check_axiom(CheckSpec(item="C3", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 21)
    assert rep.witness == {"f": str(target[0]), "g": str(target[1]),
                           "h": "{t0} -> {a0} [t0 |-> a0]", "mediators": 0}


def collapsed(q):
    one = FinObj(q.cod.labels[:1])
    return FinMor(q.dom, one, one.labels * len(q.dom))


def merged_keeping_size(q):
    # every point to the first class; the other classes stay, unreached
    return FinMor(q.dom, q.cod, q.cod.labels[:1] * len(q.dom))


def with_stray_class(q):
    return FinMor(q.dom, with_junk(q.cod), q.table)


@pytest.mark.parametrize("breaker, checked, h, mediators", [
    (collapsed, 38, "{b0, b1} -> {t0, t1} [b0 |-> t0, b1 |-> t1]", 0),
    (merged_keeping_size, 36, "{b0, b1} -> {t0, t1} [b0 |-> t0, b1 |-> t0]", 2),
    (with_stray_class, 36, "{b0, b1} -> {t0, t1} [b0 |-> t0, b1 |-> t0]", 2),
], ids=["collapsed", "merged_keeping_size", "with_stray_class"])
def test_sweep_rejects_a_coequalizer_broken_on_a_relabelled_pair(monkeypatch, breaker,
                                                                  checked, h, mediators):
    target, patches = coequalizer_broken_on_a_relabelled_pair(breaker)
    for name, value in patches.items():
        monkeypatch.setattr(axioms, name, value)
    rep = check_axiom(CheckSpec(item="D3", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, checked)
    assert rep.witness == {"f": str(target[0]), "g": str(target[1]), "h": h,
                           "mediators": mediators}


def test_sweep_rejects_a_pullback_broken_on_a_relabelled_cospan(monkeypatch):
    target, patches = pullback_broken_on_a_relabelled_cospan()
    for name, value in patches.items():
        monkeypatch.setattr(axioms, name, value)
    rep = check_theorem(CheckSpec(item="pullback-elements", bound=2))
    assert (rep.verdict, rep.instances_checked) == (FAIL, 83)
    assert rep.witness == {"f": str(target[0]), "g": str(target[1]),
                           "q1": "{t0} -> {a0} [t0 |-> a0]", "q2": "{t0} -> {b0} [t0 |-> b0]"}


@pytest.mark.parametrize("item", ["Pi", "pi-universality"])
def test_pi_rejects_a_dependent_product_broken_on_a_relabelled_pair(monkeypatch, item):
    # Pi checks every pair by check_pi_universal.  A construction wrong on
    # the first pair that relabels an earlier one, here by a second point
    # over the empty section of F, must fail there and be named by that pair.
    g0, f0 = next(filter(None, (first_relabelled_instance(objs, axioms._COMPOSABLE)
                                for objs in composable_carriers(range(3)))))
    plain = axioms.pi_diagram

    def break_once(g, f):
        d = plain(g, f)
        if (g, f) != (g0, f0):
            return d
        return rebuilt(d, g, f, lambda F, P: F.append(["dup", F[0][1]]))

    monkeypatch.setattr(axioms, "pi_diagram", break_once)
    check = check_axiom if item in AXIOMS else check_theorem
    rep = check(CheckSpec(item=item, bound=2))
    # pi-universality fails in its Pi pass, with Pi's own count
    assert (rep.verdict, rep.instances_checked) == (FAIL, 41)
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
def test_sweep_accepts_a_construction_relabelled_on_some_instances(monkeypatch, check, item,
                                                                   name, relabelled):
    # Relabel only where f's table sorts before g's, so the instances that
    # share a sweep's key are built both ways.
    plain = getattr(axioms, name)
    monkeypatch.setattr(axioms, name, lambda f, g: (
        relabelled(f, g) if f.table < g.table else plain(f, g)))
    rep = check(CheckSpec(item=item, bound=3))
    assert (rep.verdict, rep.instances_checked) == (PASS, BOUND_3_COUNTS[item])


# ---------------------------------------------------------------------------
# every face the construction sweeps and the test-object sweep decide, pinned
# whole: the fork and point-count faces of a construction, and the first
# failing cone of a sweep.  Where a mutant breaks only the instances over one
# carrier size, every instance before it is swept or credited from its key
# first, so the count pins the crediting too.  A failing sweep counts every
# cone of the failing orbit of cones, and names its first in label order.


def omitted_last(e):
    return FinMor(FinObj(e.table[:-1]), e.cod, e.table[:-1])


def dropped_last_pair(d):
    apex = FinObj(d.apex.labels[:-1])
    return ProductDiagram(apex, tuple(FinMor(apex, p.cod, p.table[:-1]) for p in d.projections))


def with_stray_point(d):
    apex = with_junk(d.apex)
    return SumDiagram(apex, tuple(FinMor(i.dom, apex, i.table) for i in d.injections))


SHARED_FACES = {
    # C1 and D1 are the empty diagram: one empty cone per test object, whose
    # mediators are all its maps into the terminal (out of the initial) object
    "C1 sweep": ("C1", {"terminal": lambda: carrier_of_size(2, "u")}, (FAIL, {
        "T": "{t0}", "mediators": 2}, 2)),
    "D1 sweep": ("D1", {"initial": lambda: carrier_of_size(1, "u")}, (FAIL, {
        "T": "{}", "mediators": 0}, 1)),
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
        "g": "{} -> {t0, t1} []", "mediators": 2}, 63)),
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
        "mediators": 0}, 473)),
    # the first rep over a one-point A has the table of a rep over the empty
    # A, so a count that read the table without the codomain would let the
    # stray through
    "D3 unreached class": ("D3", {"coequalizer": lambda f, g: (
        with_stray_class(coequalizer(f, g)) if len(f.dom) == 1 else coequalizer(f, g)),
    }, (FAIL, {
        "f": "{a0} -> {b0} [a0 |-> b0]", "g": "{a0} -> {b0} [a0 |-> b0]",
        "h": "{b0} -> {t0, t1} [b0 |-> t0]", "mediators": 2}, 68)),
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
        "X": "{x0}", "h": "{x0} -> {t0, t1} [x0 |-> t0]", "mediators": 2}, 61)),
}


@pytest.mark.parametrize("item, patches, want", SHARED_FACES.values(), ids=list(SHARED_FACES))
def test_every_shared_sweep_face_is_pinned(monkeypatch, item, patches, want):
    for name, value in patches.items():
        monkeypatch.setattr(axioms, name, value)
    check = check_axiom if item in AXIOMS else check_theorem
    rep = check(CheckSpec(item=item, bound=3))
    assert (rep.verdict, rep.witness, rep.instances_checked) == want


def mono_wrong_on_three_points(f, bound=2):
    """``kernel.is_mono`` with one fault, on 3-point test objects alone:
    there it expects |dom f|^2 distinct composites, not |dom f|^3."""
    return all(len({compose(f, h).table for h in all_maps(u, f.dom)})
               == len(f.dom) ** (2 if len(u) == 3 else len(u))
               for u in map(carrier_of_size, range(bound + 1)))


def test_a_mono_test_wrong_only_on_three_points_is_killed_at_bound_3(monkeypatch):
    # G, element-equality and epi-onto test monicity up to the bound, so a
    # fault on 3-point test objects shows at bound 3: element-equality
    # compares is_mono with injectivity.  G and epi-onto act only on a map
    # found mono, so a mono called not mono passes them.
    monkeypatch.setattr(kernel, "is_mono", mono_wrong_on_three_points)
    rep = check_theorem(CheckSpec(item="element-equality", bound=2))
    assert rep.verdict == PASS
    rep = check_theorem(CheckSpec(item="element-equality", bound=3))
    assert (rep.verdict, rep.witness, rep.instances_checked) == (FAIL, {
        "f": "{a0, a1} -> {b0, b1} [a0 |-> b0, a1 |-> b1]", "statement": "mono vs injective"},
        32)
    assert check_axiom(CheckSpec(item="G", bound=3)).verdict == PASS
    assert check_theorem(CheckSpec(item="epi-onto", bound=3)).verdict == PASS


# The witness keys that name a failing item's instance, not its cone.
SWEPT_INSTANCE = {
    "C1": (), "C2": ("A", "B"), "C3": ("f", "g"), "D1": (), "D2": ("A", "B"),
    "D3": ("f", "g"), "DP": ("i", "j"), "NT": ("S", "x", "y"),
    "pullback-elements": ("f", "g"), "quotients": ("X",),
}
# the mutants of the shared faces, of the broken-apex pullbacks, of the
# quotient with an unreachable class, and of the constructions broken on a
# relabelled instance, each at the bound its own test runs
SWEPT_MUTANTS = [(item, patches, 3) for item, patches, _ in SHARED_FACES.values()] + [
    ("pullback-elements", {"_eq10_counts": lambda *legs: True,
                           "pullback": lambda f, g, mutate=mutate: mutate(pullback(f, g))}, 2)
    for mutate in (drop_last_point, duplicate_first_point)
] + [("quotients", {"quotient": lambda rel: with_stray_class(quotient(rel))}, 2)] + [
    ("C3", equalizer_broken_on_a_relabelled_pair()[1], 2),
    *[("D3", coequalizer_broken_on_a_relabelled_pair(breaker)[1], 2)
      for breaker in (collapsed, merged_keeping_size, with_stray_class)],
    ("pullback-elements", pullback_broken_on_a_relabelled_cospan()[1], 2),
]


@pytest.mark.parametrize("item, patches, bound", [
    *[(item, {}, bound) for item in SWEPT_INSTANCE for bound in (1, 2, 3)], *SWEPT_MUTANTS,
], ids=[*[f"{item}-{bound}" for item in SWEPT_INSTANCE for bound in (1, 2, 3)],
        *[f"mutant-{item}-{n}" for n, (item, _, _) in enumerate(SWEPT_MUTANTS)]])
def test_orbit_sweeps_agree_with_the_literal_sweeps(monkeypatch, item, patches, bound):
    # The same verdict, on the same instance, and on a PASS the same count,
    # from every literal map and cone, swept on every instance, as from
    # their orbits, swept once per key.
    for name, value in patches.items():
        monkeypatch.setattr(axioms, name, value)
    check = check_axiom if item in AXIOMS else check_theorem
    orbits = check(CheckSpec(item=item, bound=bound))
    monkeypatch.setattr(axioms, "_limit_sweep", literal_sweeps.limit_sweep)
    monkeypatch.setattr(axioms, "_colimit_sweep", literal_sweeps.colimit_sweep)
    literal = check(CheckSpec(item=item, bound=bound))
    assert orbits.verdict == literal.verdict == (FAIL if patches else PASS)
    if orbits.passed:
        assert orbits.instances_checked == literal.instances_checked
    else:
        named = [{key: rep.witness.get(key) for key in SWEPT_INSTANCE[item]}
                 for rep in (orbits, literal)]
        assert named[0] == named[1]


def entries_swapped(m):
    """m with its first two table entries swapped, when they differ."""
    t = m.table
    return FinMor(m.dom, m.cod, (t[1], t[0], *t[2:])) if len(set(t[:2])) == 2 else m


def off_by_one(m):
    """m followed by the step to the next codomain label, cyclically."""
    labels = m.cod.labels
    return FinMor(m.dom, m.cod, tuple(labels[(m.cod.index[v] + 1) % len(labels)]
                                      for v in m.table))


def witness_off_by_one(m, n):
    factored, wit = leq(m, n)
    return factored, off_by_one(wit) if factored else wit


def prefix_one_short(bound, b, h):
    """The prefix with its last step repeated instead of taken."""
    seq = nno_prefix(bound - 1, b, h)
    return [*seq, seq[-1]]


CONSTRUCTION_MUTANTS = {
    "image_factorization": ("Fct", lambda f: (
        entries_swapped(image_factorization(f)[0]), image_factorization(f)[1]),
        (FAIL, {"f": "{a0, a1} -> {b0, b1} [a0 |-> b0, a1 |-> b1]",
                "reason": "does not compose to f"}, 13)),
    "leq": ("inclusion-orders", witness_off_by_one, (FAIL, {
        "m": "<| ({x0, x1}) = { (x0) }", "n": "<| ({x0, x1}) = { (x0), (x1) }",
        "reason": "bad witness"}, 14)),
    "unique_choice": ("function-graphs", lambda rel: off_by_one(unique_choice(rel)), (
        FAIL, {"rows": [["x0", "y0"]], "statement": "unique choice"}, 9)),
    "nno_prefix": ("induction", prefix_one_short, (FAIL, {
        "h": "{a0, a1} -> {a0, a1} [a0 |-> a1, a1 |-> a0]", "base": "a0", "step": 7},
        518)),
    # dependent-choice takes its chains from nno_prefix: a prefix one step
    # short, and one that steps by h∘h
    "nno_prefix:dependent-choice-short": (
        "dependent-choice", lambda bound, b, h: nno_prefix(bound - 1, b, h), (FAIL, {
            "X": "{x0}", "start": "x0", "chain": ["x0"] * 8}, 1)),
    "nno_prefix:dependent-choice-twice": (
        "dependent-choice", lambda bound, b, h: nno_prefix(bound, b, compose(h, h)), (FAIL, {
            "X": "{x0, x1}", "start": "x0", "chain": ["x0"] * 9}, 4)),
    # every point merged into the first
    "projective_cover": ("PA", lambda a: FinMor(a, a, a.labels[:1] * len(a)), (
        FAIL, {"object": "{a0, a1}", "reason": "cover not onto"}, 7)),
}


@pytest.mark.parametrize("name, item, mutant, want", [
    (name, *case) for name, case in CONSTRUCTION_MUTANTS.items()
], ids=list(CONSTRUCTION_MUTANTS))
def test_every_construction_mutant_is_killed(monkeypatch, name, item, mutant, want):
    # an id names the construction, then after a colon the case
    monkeypatch.setattr(axioms, name.partition(":")[0], mutant)
    check = check_axiom if item in AXIOMS else check_theorem
    rep = check(CheckSpec(item=item, bound=3))
    assert (rep.verdict, rep.witness, rep.instances_checked) == want


def mono_wrong_on_three_points(f, bound=2):
    """``kernel.is_mono`` with one fault, on 3-point test objects alone:
    there it expects |dom f|^2 distinct composites, not |dom f|^3."""
    return all(len({compose(f, h).table for h in all_maps(u, f.dom)})
               == len(f.dom) ** (2 if len(u) == 3 else len(u))
               for u in map(carrier_of_size, range(bound + 1)))


def test_a_mono_test_wrong_only_on_three_points_is_killed_at_bound_3(monkeypatch):
    # G, element-equality and epi-onto test monicity up to the bound, so a
    # fault on 3-point test objects shows at bound 3: element-equality
    # compares is_mono with injectivity.  G and epi-onto act only on a map
    # found mono, so a mono called not mono passes them.
    monkeypatch.setattr(kernel, "is_mono", mono_wrong_on_three_points)
    rep = check_theorem(CheckSpec(item="element-equality", bound=2))
    assert rep.verdict == PASS
    rep = check_theorem(CheckSpec(item="element-equality", bound=3))
    assert (rep.verdict, rep.witness, rep.instances_checked) == (FAIL, {
        "f": "{a0, a1} -> {b0, b1} [a0 |-> b0, a1 |-> b1]", "statement": "mono vs injective"},
        32)
    assert check_axiom(CheckSpec(item="G", bound=3)).verdict == PASS
    assert check_theorem(CheckSpec(item="epi-onto", bound=3)).verdict == PASS


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


@pytest.mark.parametrize("sizes", [(3, 2), (0, 2), (3, 0), (0, 0)])
def test_sampled_maps_are_the_drawn_indices_of_all_maps(sizes):
    # a draw of at least the whole hom-set gives every map once
    a, b = carrier_of_size(sizes[0], "a"), carrier_of_size(sizes[1], "b")
    every = list(all_maps(a, b))
    for sample in (3, 8):
        spec = CheckSpec(item="G", bound=5, sample=sample, seed=4)
        drawn = axioms._draw(spec, (a.labels, b.labels), len(every))
        assert axioms._maps(spec, a, b) == [every[d] for d in drawn]
    assert sorted(axioms._maps(spec, a, b), key=lambda m: m.table) == every


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
    want = {"onto-pullback": 525, "regularity": 266, "function-graphs": 85,
            "inclusion-orders": 16, "dependent-choice": 34,
            "C1": 6, "D1": 6, "G": 70, "PA": 24, "I": 1, "Fct": 70, "Eff": 1594,
            "element-equality": 256, "induction": 555, "image-factorization": 4246,
            "covers-onto": 70, "classifier": 63, "choice": 82, "internal-logic": 48}
    got = {item: (check_axiom if item in AXIOMS else check_theorem)(
               CheckSpec(item=item, bound=5, sample=3, seed=2))
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

    description, *parts = axioms.THEOREMS["pretopos"]
    monkeypatch.setitem(axioms.THEOREMS, "pretopos",
                        (description, *[no_part for _ in parts]))
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
                                  "inclusion-orders", "onto-pullback", "regularity"])
def test_sampled_relation_items_have_bounded_cost(item):
    # Exhaustively function-graphs and dependent-choice enumerate every
    # relation on each carrier (pair), 2^25 masks at bound 5,
    # inclusion-orders every pair of monos into a carrier, 1957^2 at bound
    # 6, and the cospan items every map of each hom-set, 8^8 at bound 8;
    # sampled, each draws a few.
    bound = {"inclusion-orders": "6", "onto-pullback": "8", "regularity": "8"}.get(item, "5")
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

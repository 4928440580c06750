"""Carriers, tables and the universal constructions, against brute force.

Expected values below are frozen from hand computation.  Universal
properties are rechecked here by literally enumerating candidate mediating
maps, independently of the bucket-based checkers in the axioms module.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cetcs
from cetcs import kernel
from cetcs.axioms import check_pi_universal
from cetcs.errors import CompositionError, EquivalenceError, ShapeError
from cetcs.finset import (
    FinMor,
    FinObj,
    all_maps,
    bool_object,
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
    product_n,
    projective_cover,
    pullback,
    quotient,
    terminal,
    unique_from_initial,
    unique_to_terminal,
)
from cetcs.logic import Context
from cetcs.relcalc import relation_from_tuples

A = carrier("a", "b")
B = carrier("u", "v", "w")


class UnionFind:
    """Independent closure oracle for coequalizer and quotient tests."""

    def __init__(self, labels):
        self.parent = {x: x for x in labels}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return sorted(frozenset(c) for c in out.values())


def small_objects(max_size=3, prefix="u"):
    return [carrier_of_size(n, prefix) for n in range(max_size + 1)]


# ---------------------------------------------------------------------------
# carriers and tables


def three_ways(proto, **fields):
    """Builders of proto's class from all its fields: by position, by keyword
    and through ``dataclasses.replace`` of proto."""
    cls = type(proto)
    yield lambda: cls(*fields.values())
    yield lambda: cls(**fields)
    yield lambda: dataclasses.replace(proto, **fields)


def test_carrier_rejects_duplicate_labels():
    for build in three_ways(A, labels=("a", "a")):
        with pytest.raises(ShapeError):
            build()


def test_carrier_rejects_empty_label():
    for build in three_ways(A, labels=("a", "")):
        with pytest.raises(ShapeError):
            build()


def test_table_length_must_match_domain():
    for build in three_ways(FinMor(A, B, ("u", "v")), dom=A, cod=B, table=("u",)):
        with pytest.raises(ShapeError):
            build()


def test_table_entries_must_lie_in_codomain():
    for build in three_ways(FinMor(A, B, ("u", "v")), dom=A, cod=B, table=("u", "z")):
        with pytest.raises(ShapeError):
            build()


def test_constructors_agree_by_position_keyword_and_replace():
    d = pi_diagram(FinMor(B, A, ("a", "a", "b")), unique_to_terminal(A))
    for proto in (A, FinMor(A, B, ("u", "w")), d.P, d.ev, d):
        fields = {f.name: getattr(proto, f.name) for f in dataclasses.fields(proto)}
        for build in three_ways(proto, **fields):
            built = build()
            # the same fields, and for a carrier the same index
            assert built is not proto and vars(built) == vars(proto)
            assert built == proto and hash(built) == hash(proto)
            assert repr(built) == repr(proto)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, next(iter(fields)), None)


def test_application_and_mapping():
    f = FinMor(A, B, ("u", "w"))
    assert f("a") == "u" and f("b") == "w"
    assert dict(zip(f.dom.labels, f.table)) == {"a": "u", "b": "w"}


def test_compose_requires_matching_feet():
    f = FinMor(A, B, ("u", "v"))
    with pytest.raises(CompositionError):
        compose(f, f)


def test_identity_laws():
    f = FinMor(A, B, ("v", "u"))
    assert compose(f, identity(A)) == f
    assert compose(identity(B), f) == f


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_composition_associativity(data):
    sizes = st.integers(min_value=1, max_value=4)
    a = carrier_of_size(data.draw(sizes), "a")
    b = carrier_of_size(data.draw(sizes), "b")
    c = carrier_of_size(data.draw(sizes), "c")
    d = carrier_of_size(data.draw(sizes), "d")
    pick = lambda x, y: FinMor(
        x, y, tuple(data.draw(st.sampled_from(y.labels)) for _ in x.labels)
    )
    f, g, h = pick(a, b), pick(b, c), pick(c, d)
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_elements_are_points():
    points = kernel.elements(B)
    assert [e.table for e in points] == [("u",), ("v",), ("w",)]
    assert all(e.dom == terminal() and e.cod == B for e in points)


def test_hom_set_count():
    assert len(list(all_maps(A, B))) == 9
    assert len(list(all_maps(B, initial()))) == 0
    assert len(list(all_maps(initial(), initial()))) == 1


@settings(deadline=None, derandomize=True)
@given(st.data())
def test_compose_agrees_with_the_validating_constructor(data):
    # compose skips re-validation; its result must be the very morphism the
    # public constructor builds from the pointwise composite.
    a = carrier_of_size(data.draw(st.integers(min_value=0, max_value=4)), "a")
    b = carrier_of_size(data.draw(st.integers(min_value=1, max_value=4)), "b")
    c = carrier_of_size(data.draw(st.integers(min_value=1, max_value=4)), "c")
    pick = lambda x, y: FinMor(
        x, y, tuple(data.draw(st.sampled_from(y.labels)) for _ in x.labels)
    )
    f, g = pick(a, b), pick(b, c)
    got = compose(g, f)
    want = FinMor(f.dom, g.cod, tuple(g(v) for v in f.table))
    assert got == want and hash(got) == hash(want)
    assert type(got.table) is tuple and got.table == want.table


def test_all_maps_revalidate_unchanged():
    for a in small_objects(3, "a"):
        for b in small_objects(3, "b"):
            maps = list(all_maps(a, b))
            assert len({m.table for m in maps}) == len(maps) == len(b) ** len(a)
            for m in maps:
                assert FinMor(m.dom, m.cod, m.table) == m


# ---------------------------------------------------------------------------
# products and sums


def test_product_labels_frozen():
    d = product(A, B)
    assert d.apex.labels == (
        "(a,u)", "(a,v)", "(a,w)", "(b,u)", "(b,v)", "(b,w)",
    )
    point = FinMor(terminal(), d.apex, ("(b,v)",))
    assert compose(d.projections[0], point)("★") == "b"
    assert compose(d.projections[1], point)("★") == "v"


def test_product_universal_property_brute_force():
    for a in small_objects(2, "a"):
        for b in small_objects(2, "b"):
            d = product(a, b)
            p, q = d.projections
            for t in small_objects(2, "t"):
                for f in all_maps(t, a):
                    for g in all_maps(t, b):
                        mediators = [
                            h for h in all_maps(t, d.apex)
                            if compose(p, h) == f and compose(q, h) == g
                        ]
                        assert len(mediators) == 1
                        assert mediators[0] == d.pair((f, g), dom=t)


def test_product_n_degenerate_cases():
    assert product_n([]).apex == terminal()
    assert product_n([B]).apex == B
    triple = product_n([A, A, B])
    assert len(triple.apex) == 12
    assert triple.apex.labels[0] == "(a,a,u)"


def test_sum_labels_and_copair():
    d = coproduct(A, B)
    assert d.apex.labels == ("inl:a", "inl:b", "inr:u", "inr:v", "inr:w")
    f = FinMor(A, B, ("u", "v"))
    h = d.copair(f, identity(B))
    assert h.table == ("u", "v", "u", "v", "w")


def test_sum_universal_property_brute_force():
    for a in small_objects(2, "a"):
        for b in small_objects(2, "b"):
            d = coproduct(a, b)
            i, j = d.injections
            for t in small_objects(2, "t"):
                for f in all_maps(a, t):
                    for g in all_maps(b, t):
                        mediators = [
                            h for h in all_maps(d.apex, t)
                            if compose(h, i) == f and compose(h, j) == g
                        ]
                        assert len(mediators) == 1


def test_bool_object_points_differ():
    two = bool_object()
    falsity, truth = two.injections
    assert falsity.table != truth.table
    assert len(two.apex) == 2


# ---------------------------------------------------------------------------
# equalizers, coequalizers, pullbacks


def test_equalizer_frozen_case():
    f = FinMor(B, A, ("a", "b", "a"))
    g = FinMor(B, A, ("a", "a", "a"))
    e = equalizer(f, g)
    assert e.dom.labels == ("u", "w")
    assert compose(f, e) == compose(g, e)


def test_equalizer_universal_property_brute_force():
    for a in small_objects(2, "a"):
        for b in small_objects(2, "b"):
            for f in all_maps(a, b):
                for g in all_maps(a, b):
                    e = equalizer(f, g)
                    for t in small_objects(2, "t"):
                        for h in all_maps(t, a):
                            if compose(f, h) != compose(g, h):
                                continue
                            mediators = [
                                k for k in all_maps(t, e.dom)
                                if compose(e, k) == h
                            ]
                            assert len(mediators) == 1


def test_coequalizer_matches_union_find_oracle():
    for a in small_objects(3, "a"):
        for b in small_objects(3, "b"):
            for f in all_maps(a, b):
                for g in all_maps(a, b):
                    q = coequalizer(f, g)
                    uf = UnionFind(b.labels)
                    for x in a.labels:
                        uf.union(f(x), g(x))
                    classes = uf.classes()
                    assert len(q.cod) == len(classes)
                    for block in classes:
                        assert len({q(y) for y in block}) == 1
                    for b1, b2 in itertools.combinations(classes, 2):
                        assert q(min(b1)) != q(min(b2))


def test_coequalizer_representatives_are_least_labels():
    f = FinMor(A, B, ("u", "w"))
    g = FinMor(A, B, ("v", "v"))
    q = coequalizer(f, g)
    assert q.cod.labels == ("u",)
    assert q.table == ("u", "u", "u")


def test_pullback_frozen_case():
    f = FinMor(A, terminal(), ("★", "★"))
    g = FinMor(B, terminal(), ("★", "★", "★"))
    square = pullback(f, g)
    assert square.apex.labels == product(A, B).apex.labels


def test_pullback_is_limit_brute_force():
    c = carrier("p", "q")
    for f in all_maps(A, c):
        for g in all_maps(B, c):
            square = pullback(f, g)
            expected = sorted(
                (x, y) for x in A.labels for y in B.labels if f(x) == g(y)
            )
            got = sorted(
                (square.p1(z), square.p2(z)) for z in square.apex.labels
            )
            assert got == expected
            for t in small_objects(2, "t"):
                for q1 in all_maps(t, A):
                    for q2 in all_maps(t, B):
                        if compose(f, q1) != compose(g, q2):
                            continue
                        mediators = [
                            h for h in all_maps(t, square.apex)
                            if compose(square.p1, h) == q1
                            and compose(square.p2, h) == q2
                        ]
                        assert len(mediators) == 1


def test_image_factorization_frozen_and_lawful():
    f = FinMor(B, B, ("v", "v", "u"))
    e, i = image_factorization(f)
    assert i.dom.labels == ("u", "v")
    for a in small_objects(3, "a"):
        for b in small_objects(3, "b"):
            for f in all_maps(a, b):
                e, i = image_factorization(f)
                assert compose(i, e) == f
                assert e.is_surjective() and i.is_injective()
                assert set(i.table) == set(f.table)


# ---------------------------------------------------------------------------
# dependent products


def independent_section_count(g: FinMor, f: FinMor) -> int:
    count = 0
    for i in f.cod.labels:
        fiber = [x for x in f.dom.labels if f(x) == i]
        per_x = 1
        for x in fiber:
            per_x *= sum(1 for y in g.dom.labels if g(y) == x)
        count += per_x
    return count


def test_pi_diagram_frozen_case():
    x = carrier("u", "v")
    y = carrier("a", "b", "c")
    g = FinMor(y, x, ("u", "u", "v"))
    f = unique_to_terminal(x)
    d = pi_diagram(g, f)
    assert d.F.labels == ("(★|u↦a,v↦c)", "(★|u↦b,v↦c)")
    assert compose(g, d.ev) == d.pi2
    assert compose(d.phi, d.pi1) == compose(f, d.pi2)


def test_pi_section_count_matches_independent_formula():
    for y in small_objects(3, "y"):
        for x in small_objects(3, "x"):
            for i in small_objects(2, "i"):
                for g in all_maps(y, x):
                    for f in all_maps(x, i):
                        d = pi_diagram(g, f)
                        assert len(d.F) == independent_section_count(g, f)


def test_pi_object_is_the_phi_of_pi_diagram():
    pairs = 0
    for y, x, i in itertools.product(*(small_objects(3, p) for p in "yxi")):
        for g in all_maps(y, x):
            fs = list(all_maps(x, i))
            phis = [pi_object(g, f) for f in fs]
            # pi_object keeps nothing on g; pi_diagram then starts cold
            assert "_sections" not in g.__dict__
            for f, phi in zip(fs, phis):
                expected = pi_diagram(g, f).phi
                assert phi.dom.labels == expected.dom.labels
                assert phi.table == expected.table
                assert phi.cod == expected.cod == i
                pairs += 1
    assert pairs == 1678


def test_pi_diagram_with_shared_morphisms_equals_a_cold_build():
    # the f of each pair is reused across every g, as Pi's instances reuse
    # it, so from the second g on it brings the fiber keys it keeps; the
    # reference builds from fresh copies that keep nothing yet
    pairs = 0
    for y, x, i in itertools.product(*(small_objects(3, p) for p in "yxi")):
        fs, gs = list(all_maps(x, i)), list(all_maps(y, x))
        for g in gs:
            for f in fs:
                d = pi_diagram(g, f)
                cold = pi_diagram(FinMor(g.dom, g.cod, g.table), FinMor(f.dom, f.cod, f.table))
                assert d.P.labels == cold.P.labels and d.F.labels == cold.F.labels
                for leg, ref in zip((d.pi1, d.pi2, d.phi, d.ev),
                                    (cold.pi1, cold.pi2, cold.phi, cold.ev)):
                    assert (leg.dom.labels, leg.cod.labels, leg.table) == (
                        ref.dom.labels, ref.cod.labels, ref.table)
                pairs += 1
        assert not gs or all("_fiber_keys" in f.__dict__ for f in fs)
    assert pairs == 1678


def test_kept_indexes_leave_equality_hashing_and_pickling_alone():
    x, y, i = carrier_of_size(2, "x"), carrier_of_size(3, "y"), carrier_of_size(2, "i")
    g = FinMor(y, x, ("x0", "x0", "x1"))
    f = FinMor(x, i, ("i1", "i1"))
    d = pi_diagram(g, f)
    assert check_pi_universal(d, g, f).passed
    assert "_sections" in g.__dict__ and "_fiber_keys" in f.__dict__
    assert "_check_fibers" in g.__dict__ and "_check_fibers" in f.__dict__
    for m in (g, f):
        fresh = FinMor(m.dom, m.cod, m.table)
        back = pickle.loads(pickle.dumps(m))
        for kept in (m, back):
            assert kept == fresh and hash(kept) == hash(fresh) and kept in {fresh}
    back_g, back_f = pickle.loads(pickle.dumps(g)), pickle.loads(pickle.dumps(f))
    assert pi_diagram(back_g, back_f) == d and check_pi_universal(d, back_g, back_f).passed


def test_pi_empty_fiber_kills_sections():
    y = carrier("a")
    x = carrier("u", "v")
    g = FinMor(y, x, ("u",))
    d = pi_diagram(g, unique_to_terminal(x))
    assert len(d.F) == 0 and len(d.P) == 0


# ---------------------------------------------------------------------------
# the table-reading constructions against pointwise references
#
# Each reference below reads the morphisms only through ``__call__``, one
# point at a time, in the order the documented labels promise.  Carriers run
# from 0 to 4 labels, so empty carriers, empty fibers and legs that miss part
# of their codomain all occur.

def draw_carrier(data, prefix, min_size=0):
    return carrier_of_size(data.draw(st.integers(min_value=min_size, max_value=4)), prefix)


def draw_map(data, dom, cod):
    if not cod.labels:
        assert not dom.labels
        return FinMor(dom, cod, ())
    values = st.sampled_from(cod.labels)
    return FinMor(dom, cod, tuple(data.draw(values) for _ in dom.labels))


def draw_map_into(data, prefix, cod):
    """A map into cod from a fresh carrier; empty when cod is empty."""
    dom = draw_carrier(data, prefix) if cod.labels else initial()
    return draw_map(data, dom, cod)


def pointwise_pullback(f, g):
    pairs = [(x, y) for x in f.dom.labels for y in g.dom.labels if f(x) == g(y)]
    labels = tuple(f"({x},{y})" for x, y in pairs)
    return labels, tuple(x for x, _ in pairs), tuple(y for _, y in pairs)


def pointwise_pair(d, fs, dom):
    table = []
    for t in dom.labels:
        hits = [
            p for p in d.apex.labels
            if all(proj(p) == leg(t) for proj, leg in zip(d.projections, fs))
        ]
        assert len(hits) == 1
        table.append(hits[0])
    return tuple(table)


def pointwise_pi(g, f):
    f_labels, phi, sections = [], [], {}
    for i in f.cod.labels:
        xs = [x for x in f.dom.labels if f(x) == i]
        over = [[y for y in g.dom.labels if g(y) == x] for x in xs]
        for choice in itertools.product(*over):
            lbl = f"({i}|" + ",".join(f"{x}↦{y}" for x, y in zip(xs, choice)) + ")"
            f_labels.append(lbl)
            phi.append(i)
            sections[lbl] = dict(zip(xs, choice))
    points = [
        (s, x) for s, i in zip(f_labels, phi) for x in f.dom.labels if f(x) == i
    ]
    return tuple(f_labels), tuple(phi), points, tuple(sections[s][x] for s, x in points)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_pullback_matches_the_pointwise_pairing(data):
    c = draw_carrier(data, "c")
    f, g = draw_map_into(data, "a", c), draw_map_into(data, "b", c)
    square = pullback(f, g)
    labels, p1, p2 = pointwise_pullback(f, g)
    assert square.apex.labels == labels
    assert square.p1.table == p1 and square.p2.table == p2


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_product_pair_matches_the_pointwise_search(data):
    n = data.draw(st.integers(min_value=0, max_value=3))
    factors = [draw_carrier(data, f"a{k}", min_size=1) for k in range(n)]
    d = product_n(factors)
    t = draw_carrier(data, "t")
    fs = tuple(draw_map(data, t, factor) for factor in factors)
    assert d.pair(fs, dom=t).table == pointwise_pair(d, fs, t)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_equalizer_matches_the_pointwise_filter(data):
    b = draw_carrier(data, "b")
    f = draw_map_into(data, "a", b)
    g = draw_map(data, f.dom, b)
    kept = tuple(x for x in f.dom.labels if f(x) == g(x))
    e = equalizer(f, g)
    assert e.dom.labels == kept and e.table == kept and e.cod == f.dom


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_pi_diagram_matches_the_pointwise_sections(data):
    i = draw_carrier(data, "i")
    f = draw_map_into(data, "x", i)
    g = draw_map_into(data, "y", f.dom)
    fresh = FinMor(g.dom, g.cod, g.table)
    # g keeps the sections it has met: warm it on other maps out of X, into
    # I's labels or another index's, before the diagram under test
    for prefix in data.draw(st.lists(st.sampled_from(["i", "j"]), max_size=3)):
        index = draw_carrier(data, prefix, min_size=1 if f.dom.labels else 0)
        pi_diagram(g, draw_map(data, f.dom, index))
    d = pi_diagram(g, f)
    assert d == pi_diagram(fresh, f)
    assert g == fresh and hash(g) == hash(fresh)
    f_labels, phi, points, ev = pointwise_pi(g, f)
    assert d.F.labels == f_labels and d.phi.table == phi
    assert d.P.labels == tuple(f"({s},{x})" for s, x in points)
    assert d.pi1.table == tuple(s for s, _ in points)
    assert d.pi2.table == tuple(x for _, x in points)
    assert d.ev.table == ev


# ---------------------------------------------------------------------------
# exponentials, classifier, quotients, recursion


def test_exponential_size_and_labels():
    two = carrier("y0", "y1")
    e_obj, ev_rel = exponential(two, two)
    assert len(e_obj) == 4
    assert e_obj.labels[0] == "{y0↦y0,y1↦y0}"
    assert ev_rel.arity == 3
    graph = {(s, x): y for s, x, y in ev_rel.tuples}
    assert graph[("{y0↦y0,y1↦y1}", "y1")] == "y1"


def test_exponential_counts_all_maps():
    for x in small_objects(3, "x"):
        for y in small_objects(2, "y"):
            e_obj, _ = exponential(x, y)
            assert len(e_obj) == len(list(all_maps(x, y)))


def test_characteristic_frozen_table():
    r = relation_from_tuples([("u",), ("w",)], (B,))
    chi = characteristic(r)
    truth = bool_object().injections[1].table[0]
    assert [chi(x) == truth for x in B.labels] == [True, False, True]


def test_quotient_rejects_non_equivalences():
    not_reflexive = relation_from_tuples([("a", "b"), ("b", "a")], (A, A))
    with pytest.raises(EquivalenceError) as err:
        quotient(not_reflexive)
    assert err.value.reason == "reflexive"
    not_symmetric = relation_from_tuples(
        [("a", "a"), ("b", "b"), ("a", "b")], (A, A)
    )
    with pytest.raises(EquivalenceError) as err:
        quotient(not_symmetric)
    assert err.value.reason == "symmetric"
    c = carrier("p", "q", "r")
    not_transitive = relation_from_tuples(
        [("p", "p"), ("q", "q"), ("r", "r"),
         ("p", "q"), ("q", "p"), ("q", "r"), ("r", "q")],
        (c, c),
    )
    with pytest.raises(EquivalenceError) as err:
        quotient(not_transitive)
    assert err.value.reason == "transitive"


def test_quotient_collapses_exactly_the_classes():
    rows = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    q = quotient(relation_from_tuples(rows, (A, A)))
    assert q.cod.labels == ("a",)


def test_nno_prefix_unrolls_the_recursion():
    h = FinMor(B, B, ("v", "w", "u"))
    seq = nno_prefix(5, FinMor(terminal(), B, ("u",)), h)
    assert [e.table[0] for e in seq] == ["u", "v", "w", "u", "v", "w"]
    for n in range(5):
        assert seq[n + 1] == compose(h, seq[n])


def test_projective_cover_is_onto_identity():
    cover = projective_cover(B)
    assert cover == identity(B)
    assert cover.is_surjective()


def test_unique_maps_at_the_poles():
    assert unique_to_terminal(B).cod == terminal()
    assert unique_from_initial(B).dom == initial()
    assert len(list(all_maps(B, terminal()))) == 1
    assert len(list(all_maps(initial(), B))) == 1


def test_carriers_survive_a_pickle_from_another_hash_seed():
    # A context keeps its hash, and str hashes differ between processes, so
    # a pickled context must not bring its hash along; a pickled carrier
    # must hash as a fresh one does.
    src = str(Path(cetcs.__file__).resolve().parents[1])
    code = (
        "import pickle, sys\n"
        "from cetcs.finset import carrier\n"
        "from cetcs.logic import Context\n"
        "a = carrier('a', 'b')\n"
        "ctx = Context((('x', a),))\n"
        "hash(a), hash(ctx)\n"
        "sys.stdout.buffer.write(pickle.dumps((a, ctx)))\n"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, timeout=30).stdout
        a, ctx = pickle.loads(out)
        fresh = carrier("a", "b")
        assert a in {fresh} and hash(a) == hash(fresh)
        assert ctx in {Context((("x", fresh),))}
        assert ctx.names == ("x",) and ctx.objects == (fresh,)

"""The exhaustive checkers: positive runs, mutation detection, sampling."""

from __future__ import annotations

from collections import Counter

import pytest

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
    carrier,
    coequalizer,
    coproduct,
    equalizer,
    pi_diagram,
    product,
    pullback,
    quotient,
    unique_to_terminal,
)


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


# ---------------------------------------------------------------------------
# the mediator sweep every universal-property item shares


def test_sweep_stops_at_the_first_cone_without_a_unique_mediator():
    x = carrier("u", "v")
    cones = [FinMor(x, x, table) for table in (("u", "v"), ("v", "u"), ("u", "u"))]
    mediators = Counter({("u", "v"): 1, ("v", "u"): 2})
    assert axioms._sweep(mediators, cones[:1], axioms._table) == (1, None, 1)
    assert axioms._sweep(mediators, cones, axioms._table) == (2, cones[1], 2)
    assert axioms._sweep(mediators, cones[2:], axioms._table) == (1, cones[2], 0)


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


def test_sampled_mode_still_checks_pointwise_items():
    rep = check_axiom(CheckSpec(item="Fct", bound=5, sample=2, seed=1))
    assert rep.passed
    again = check_axiom(CheckSpec(item="Fct", bound=5, sample=2, seed=1))
    assert again.instances_checked == rep.instances_checked


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

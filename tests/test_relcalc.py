"""Relations as jointly-monic leg tuples: orders, functions, constructors."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cetcs
from cetcs.errors import JointMonicityError, ShapeError
from cetcs.finset import FinMor, FinObj, carrier, compose, identity
from cetcs.relcalc import (
    Relation,
    is_partial_function,
    is_total_function,
    leq,
    make_relation,
    relation_from_tuples,
    sub_relation,
    subseteq,
    unique_choice,
)

X = carrier("x0", "x1", "x2")
Y = carrier("y0", "y1")


def rel(rows, cods):
    return relation_from_tuples(rows, cods)


def test_relation_rejects_duplicate_rows():
    d = carrier("p", "q")
    legs = (FinMor(d, X, ("x0", "x0")), FinMor(d, Y, ("y1", "y1")))
    with pytest.raises(JointMonicityError) as err:
        Relation(dom=d, legs=legs)
    assert err.value.witness == ("p", "q")


def test_relation_requires_shared_domain():
    legs = (identity(X), identity(Y))
    with pytest.raises(ShapeError):
        Relation(dom=X, legs=legs)


def test_make_relation_requires_a_leg():
    with pytest.raises(ShapeError):
        make_relation(())


def test_tuples_are_rows_in_domain_order():
    r = rel([("x2", "y0"), ("x0", "y1")], (X, Y))
    assert r.tuples == (("x0", "y1"), ("x2", "y0"))
    assert r.member(("x2", "y0"))
    assert not r.member(("x2", "y1"))
    assert r.arity == 2


def test_sub_relation_wraps_a_mono():
    m = FinMor(carrier("p"), X, ("x1",))
    r = sub_relation(m)
    assert r.tuples == (("x1",),)


def test_subseteq_equals_leq_on_all_subset_pairs():
    labels = X.labels
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(labels, k) for k in range(len(labels) + 1)
        )
    )
    for rows_m in subsets:
        for rows_n in subsets:
            m = rel([(x,) for x in rows_m], (X,))
            n = rel([(x,) for x in rows_n], (X,))
            row_incl = set(rows_m) <= set(rows_n)
            assert subseteq(m, n) == row_incl
            holds, witness = leq(m, n)
            assert holds == row_incl
            if holds:
                assert compose(n.legs[0], witness) == m.legs[0]
            else:
                assert witness is None


def test_leq_rejects_a_bad_witness_under_python_O():
    # The witness law n∘f = m must be checked by code that -O keeps: with a
    # broken composite, leq has to raise rather than hand back the witness.
    script = textwrap.dedent("""
        import sys
        from cetcs import relcalc
        from cetcs.errors import CompositionError
        from cetcs.finset import FinMor, carrier

        def broken(g, f):
            return FinMor(f.dom, g.cod, (g.cod.labels[0],) * len(f.dom))

        relcalc.compose = broken
        x = carrier("x0", "x1", "x2")
        m = relcalc.relation_from_tuples([("x1",), ("x2",)], (x,))
        n = relcalc.relation_from_tuples([("x0",), ("x1",), ("x2",)], (x,))
        try:
            relcalc.leq(m, n)
        except CompositionError as exc:
            print("optimize", sys.flags.optimize, "raised", exc)
        else:
            print("optimize", sys.flags.optimize, "accepted")
    """)
    src = str(Path(cetcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.startswith("optimize 1 raised "), proc.stdout


def test_function_predicates_frozen_cases():
    graph = rel([("x0", "y0"), ("x1", "y0"), ("x2", "y1")], (X, Y))
    assert is_partial_function(graph) and is_total_function(graph)
    partial = rel([("x0", "y0")], (X, Y))
    assert is_partial_function(partial) and not is_total_function(partial)
    multi = rel([("x0", "y0"), ("x0", "y1")], (X, Y))
    assert not is_partial_function(multi) and not is_total_function(multi)


def test_unique_choice_extracts_the_function():
    graph = rel([("x0", "y0"), ("x1", "y0"), ("x2", "y1")], (X, Y))
    f = unique_choice(graph)
    assert f.dom == X and f.cod == Y
    assert f.table == ("y0", "y0", "y1")


def test_unique_choice_names_the_offending_element():
    partial = rel([("x0", "y0")], (X, Y))
    with pytest.raises(ShapeError) as err:
        unique_choice(partial)
    assert "x1" in str(err.value)


@settings(deadline=None, derandomize=True)
@given(st.sets(st.sampled_from([(a, b) for a in X.labels for b in Y.labels])))
def test_function_predicates_match_row_counting(rows):
    r = rel(sorted(rows), (X, Y))
    per_x = {x: sum(1 for (a, _) in rows if a == x) for x in X.labels}
    assert is_partial_function(r) == all(v <= 1 for v in per_x.values())
    assert is_total_function(r) == all(v == 1 for v in per_x.values())


# ---------------------------------------------------------------------------
# construction-time validation, pinned


def test_relation_names_the_first_duplicate_after_distinct_rows():
    d = carrier("p", "q", "r")
    legs = (FinMor(d, X, ("x0", "x1", "x0")), FinMor(d, Y, ("y1", "y1", "y1")))
    with pytest.raises(JointMonicityError) as err:
        Relation(dom=d, legs=legs)
    assert str(err.value) == (
        "legs are not jointly monic: 'p' and 'r' share the row ('x0', 'y1')"
    )
    assert err.value.witness == ("p", "r")


@pytest.mark.parametrize("n", [0, 1, 2])
def test_arity_zero_relation_has_at_most_one_point(n):
    dom = FinObj(tuple(f"a{i}" for i in range(n)))
    if n < 2:
        r = Relation(dom=dom, legs=())
        assert r.tuples == ((),) * n
        assert r.member(()) == (n == 1)
        assert not r.member(("x0",))
        return
    with pytest.raises(JointMonicityError) as err:
        Relation(dom=dom, legs=())
    assert str(err.value) == "legs are not jointly monic: 'a0' and 'a1' share the row ()"
    assert err.value.witness == ("a0", "a1")


@st.composite
def leg_tuples(draw):
    dom = FinObj(tuple(f"d{i}" for i in range(draw(st.integers(0, 4)))))
    cods = draw(st.lists(st.sampled_from([X, Y]), max_size=3))
    legs = tuple(
        FinMor(dom, c, tuple(draw(st.sampled_from(c.labels)) for _ in dom.labels))
        for c in cods
    )
    return dom, legs


@settings(deadline=None, derandomize=True, max_examples=300)
@given(leg_tuples())
def test_rows_are_the_per_label_definition(dom_legs):
    dom, legs = dom_legs
    rows = tuple(tuple(leg(a) for leg in legs) for a in dom.labels)
    first = {}
    for a, row in zip(dom.labels, rows):
        if row in first:
            with pytest.raises(JointMonicityError) as err:
                Relation(dom=dom, legs=legs)
            assert err.value.witness == (first[row], a)
            return
        first[row] = a
    r = Relation(dom=dom, legs=legs)
    assert r.tuples == rows
    for row in itertools.product(*(leg.cod.labels for leg in legs)):
        assert r.member(row) == (row in first)
        assert r.member(list(row)) == (row in first)
    assert not r.member(("nowhere",) * (len(legs) + 1))

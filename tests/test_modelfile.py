"""Declaration files: parsing, diagnostics with line numbers, round-trips."""

from __future__ import annotations

import pytest

from cetcs.errors import ModelFileError
from cetcs.modelfile import (
    parse_model,
    render_morphism,
    render_object,
    render_relation,
)


def test_standard_model_loads(std_model):
    assert set(std_model.objects) == {"X", "Y", "I"}
    assert std_model.morphisms["f"]("x2") == "y1"
    assert std_model.relations["m"].tuples == (
        ("x0", "y0"), ("x0", "y1"), ("x2", "y0"),
    )


def test_comments_and_blank_lines_are_ignored():
    mf = parse_model("\n# leading comment\nobject A = {a}  # trailing\n\n")
    assert mf.objects["A"].labels == ("a",)


def test_empty_object_is_allowed():
    mf = parse_model("object Z = {}")
    assert len(mf.objects["Z"]) == 0


def test_morphism_accepts_optional_equals_sign():
    text = "object A = {a}\nobject B = {b}\n"
    with_eq = parse_model(text + "morphism f : A -> B = { a |-> b }")
    without = parse_model(text + "morphism f : A -> B { a |-> b }")
    assert with_eq.morphisms["f"] == without.morphisms["f"]


def test_parenthesized_labels_round_trip():
    mf = parse_model("object P = {(a,u), (b,v)}\nrelation t <| (P) = {(a,u)}")
    assert mf.objects["P"].labels == ("(a,u)", "(b,v)")
    assert mf.relations["t"].tuples == (("(a,u)",),)


def test_relation_rows_may_contain_compound_labels():
    text = (
        "object P = {(a,u), (b,v)}\n"
        "object Y = {y}\n"
        "relation t <| (P, Y) = { ((a,u), y) }\n"
    )
    mf = parse_model(text)
    assert mf.relations["t"].tuples == (("(a,u)", "y"),)


def errors_with_line(text, fragment, line):
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert fragment in str(err.value)
    assert f"line {line}" in str(err.value)


def test_undeclared_object_reference():
    errors_with_line("morphism f : A -> A = { }", "undeclared", 1)


def test_non_total_table():
    errors_with_line(
        "object A = {a, b}\nobject B = {u}\nmorphism f : A -> B = { a |-> u }",
        "not total", 3,
    )


def test_mapping_outside_codomain():
    errors_with_line(
        "object A = {a}\nobject B = {u}\nmorphism f : A -> B = { a |-> z }",
        "'z'", 3,
    )


def test_duplicate_relation_row_is_a_monicity_failure():
    errors_with_line(
        "object A = {a}\nrelation r <| (A, A) = { (a,a), (a,a) }",
        "jointly monic", 2,
    )


def test_row_arity_mismatch():
    errors_with_line(
        "object A = {a}\nrelation r <| (A, A) = { (a, a, a) }",
        "arity", 2,
    )


def test_duplicate_declaration():
    errors_with_line("object A = {a}\nobject A = {b}", "duplicate", 2)


def test_unbalanced_brackets():
    errors_with_line("object A = {(a, b}", "unbalanced", 1)


def test_unknown_directive():
    errors_with_line("functor F : A -> B", "expected", 1)


def test_duplicate_object_label():
    errors_with_line("object A = {a, a}", "repeats", 1)


@pytest.mark.parametrize("labels", ["a|->b, c", "c, (a |-> b, u)"])
def test_label_with_a_maps_to_arrow(labels):
    # a rendered morphism from such a carrier could not be read back
    errors_with_line(f"object B = {{u}}\nobject X = {{{labels}}}", "'|->'", 2)


def test_render_parse_round_trip(std_model):
    lines = [render_object(n, o) for n, o in std_model.objects.items()]
    lines += [
        render_morphism(n, f, *_feet(std_model, f))
        for n, f in std_model.morphisms.items()
    ]
    lines += [
        render_relation(n, r, tuple(_sort_name(std_model, c) for c in r.cods))
        for n, r in std_model.relations.items()
    ]
    again = parse_model("\n".join(lines))
    assert again.objects == std_model.objects
    assert again.morphisms == std_model.morphisms
    assert {n: r.tuples for n, r in again.relations.items()} == {
        n: r.tuples for n, r in std_model.relations.items()
    }


def _sort_name(mf, obj):
    return next(n for n, o in mf.objects.items() if o == obj)


def _feet(mf, f):
    return _sort_name(mf, f.dom), _sort_name(mf, f.cod)


def test_env_view_feeds_the_compiler(std_model):
    from cetcs.logic import compile_formula, parse, parse_context

    env = std_model.env()
    ctx = parse_context("x:X", env.objects)
    rows = compile_formula(ctx, parse(r"r(x) /\ s(x)"), env).relation.tuples
    assert rows == (("x1",),)

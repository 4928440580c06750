"""Formula parsing, checking, compilation, and the truth-table oracle.

Memberships asserted below were computed by hand on the standard model
(X = {x0,x1,x2}, Y = {y0,y1}, r = {x0,x1}, s = {x1,x2},
m = {(x0,y0),(x0,y1),(x2,y0)}, f = x0,x1 -> y0, x2 -> y1).
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cetcs import logic
from cetcs.errors import FormulaError, ShapeError
from cetcs.finset import (
    FinMor,
    FinObj,
    PullbackSquare,
    equalizer,
    image_factorization,
    pi_object,
    product_n,
    pullback,
)
from cetcs.logic import (
    _ATOM_SIZE,
    _BUILT_SIZE,
    _MEMO_SIZE,
    And,
    App,
    Atom,
    Bot,
    Env,
    Eq,
    Exists,
    Forall,
    Implies,
    Or,
    Top,
    Var,
    check_formula,
    compile_formula,
    oracle,
    parse,
    parse_context,
    render,
    verify,
)

R_X = Atom("r", (Var("x"),))
S_X = Atom("s", (Var("x"),))


@pytest.fixture
def env(std_model):
    return std_model.env()


@pytest.fixture
def ctx(env):
    return parse_context("x:X", env.objects)


# ---------------------------------------------------------------------------
# parsing


def test_conjunction_binds_tighter_than_disjunction():
    assert parse(r"r(x) /\ s(x) \/ r(x)") == Or(And(R_X, S_X), R_X)
    assert parse(r"r(x) \/ s(x) /\ r(x)") == Or(R_X, And(S_X, R_X))


def test_implication_is_right_associative_and_loosest():
    phi = parse(r"r(x) => s(x) => r(x)")
    assert phi == Implies(R_X, Implies(S_X, R_X))
    assert parse(r"r(x) /\ s(x) => r(x)") == Implies(And(R_X, S_X), R_X)


def test_negation_is_sugar_for_implies_false():
    assert parse(r"~r(x)") == Implies(R_X, Bot())
    assert parse(r"~r(x) /\ s(x)") == And(Implies(R_X, Bot()), S_X)


def test_quantifier_scope_extends_right():
    phi = parse(r"forall y:Y. m(x,y) /\ r(x)")
    assert phi == Forall("y", "Y", And(Atom("m", (Var("x"), Var("y"))), R_X))


def test_equality_and_terms():
    assert parse("f(x) = y") == Eq(App("f", Var("x")), Var("y"))
    assert parse("g(f(x)) = x") == Eq(App("g", App("f", Var("x"))), Var("x"))
    assert parse("x = x") == Eq(Var("x"), Var("x"))


def test_parentheses_override_precedence():
    assert parse(r"r(x) /\ (s(x) \/ r(x))") == And(R_X, Or(S_X, R_X))


def test_constants():
    assert parse("true") == Top()
    assert parse("false") == Bot()


def test_render_parse_round_trip_on_samples():
    samples = [
        r"(r(x) => s(x)) => s(x)",
        r"forall y:Y. exists z:X. (m(z,y) /\ r(x))",
        r"~(r(x) \/ s(x))",
        "m(x, f(x))",
        "true => false",
    ]
    for text in samples:
        phi = parse(text)
        assert parse(render(phi)) == phi


def test_parse_error_positions():
    with pytest.raises(FormulaError) as err:
        parse("r(x")
    assert "offset" in str(err.value)
    with pytest.raises(FormulaError):
        parse("r(x))")
    with pytest.raises(FormulaError):
        parse("x =")
    with pytest.raises(FormulaError):
        parse("")
    with pytest.raises(FormulaError):
        parse("forall y Y. r(x)")


# The exact message and offset for each malformed input, whitespace-only,
# tab and newline input included.
@pytest.mark.parametrize("text, message", [
    ("", "expected a formula, found 'end of input' (at offset 0)"),
    ("  ", "expected a formula, found 'end of input' (at offset 2)"),
    ("r(x", "expected 'rpar', found 'end of input' (at offset 3)"),
    ("r(x))", "unexpected trailing input ')' (at offset 4)"),
    ("x =", "expected 'ident', found 'end of input' (at offset 3)"),
    ("r(x) # s", "unexpected character '#' (at offset 5)"),
    ("true(x)", "unexpected trailing input '(' (at offset 4)"),
    ("f(x, y) = z", "left side of '=' must be a term (one argument) (at offset 8)"),
    ("r(true)", "expected 'ident', found 'true' (at offset 2)"),
    ("forall y Y. r(x)", "expected 'colon', found 'Y' (at offset 9)"),
    ("r(x) /\\ x", "expected '(' or '=' after 'x' (at offset 8)"),
    ("\t", "expected a formula, found 'end of input' (at offset 1)"),
    (" \t\n", "expected a formula, found 'end of input' (at offset 3)"),
    ("\tr(x) #", "unexpected character '#' (at offset 6)"),
    ("r(x)\n#", "unexpected character '#' (at offset 5)"),
    ("\nr(x", "expected 'rpar', found 'end of input' (at offset 4)"),
    ("r(x)\t)", "unexpected trailing input ')' (at offset 5)"),
    ("\n\tforall", "expected 'ident', found 'end of input' (at offset 8)"),
    ("r(x) =>\n", "expected a formula, found 'end of input' (at offset 8)"),
    ("exists y:Y r(x)", "expected 'dot', found 'r' (at offset 11)"),
    ("r(x, )", "expected 'ident', found ')' (at offset 5)"),
    ("x = forall", "expected 'ident', found 'forall' (at offset 4)"),
    ("r(x) @\n", "unexpected character '@' (at offset 5)"),
])
def test_parse_error_messages_are_pinned(text, message):
    with pytest.raises(FormulaError) as err:
        parse(text)
    assert str(err.value) == message


def test_bare_identifier_needs_application_or_equality():
    with pytest.raises(FormulaError) as err:
        parse("r(x) /\\ x")
    assert "expected" in str(err.value)


def test_parse_context_error_cases(env):
    with pytest.raises(FormulaError):
        parse_context("x:Z", env.objects)
    with pytest.raises(FormulaError):
        parse_context("x:X, x:Y", env.objects)
    ctx = parse_context("x:X, y:Y", env.objects)
    assert ctx.names == ("x", "y")


# ---------------------------------------------------------------------------
# checking


def _check_error(ctx, phi, env):
    """phi's first FormulaError as (message, offset), from the env as it stands.

    ``check_formula`` and ``compile_formula`` must both raise it: the
    compiler checks each node as it builds it, in the checker's order.  The
    check runs first, since a failed check leaves the env as it was.
    """
    errors = []
    for entry in (check_formula, compile_formula):
        with pytest.raises(FormulaError) as err:
            entry(ctx, phi, env)
        errors.append((str(err.value), err.value.pos))
    assert errors[0] == errors[1]
    return errors[0]


def test_check_rejects_unbound_variable(ctx, env):
    assert _check_error(ctx, parse("m(x, y)"), env) == (
        "unbound variable 'y' (at offset 5)", 5,
    )


def test_check_rejects_unknown_relation(ctx, env):
    assert _check_error(ctx, parse("q(x)"), env) == ("unknown relation 'q' (at offset 0)", 0)


def test_check_rejects_wrong_arity(ctx, env):
    assert _check_error(ctx, parse("r(x, x)"), env) == (
        "relation 'r' has arity 1, got 2 arguments (at offset 0)", 0,
    )


def test_check_rejects_sort_mismatch(ctx, env):
    assert _check_error(ctx, parse("forall y:Y. m(y, x)"), env) == (
        "argument of 'm' has sort {y0, y1}, expected {x0, x1, x2} (at offset 12)", 12,
    )
    assert _check_error(ctx, parse("f(x) = x"), env) == (
        "cannot equate {y0, y1} with {x0, x1, x2} (at offset 5)", 5,
    )


def test_check_rejects_shadowing(ctx, env):
    assert _check_error(ctx, parse("forall x:X. r(x)"), env) == (
        "variable 'x' shadows the context (at offset 0)", 0,
    )
    assert _check_error(ctx, parse("forall y:Y. exists y:Y. m(x,y)"), env) == (
        "variable 'y' shadows the context (at offset 12)", 12,
    )


def test_check_reports_the_same_error_past_a_memoized_subtree(std_model):
    # The left conjunct is in the compile memo, so both walks skip it; the
    # ill-typed right conjunct must still raise as on a fresh Env.
    left = parse("forall y:Y. m(x,y)")
    phi = parse(r"(forall y:Y. m(x,y)) /\ (forall y:Y. m(y,x))")
    fresh = std_model.env()
    ctx = parse_context("x:X", fresh.objects)
    want = _check_error(ctx, phi, fresh)
    assert want == (
        "argument of 'm' has sort {y0, y1}, expected {x0, x1, x2} (at offset 37)", 37,
    )
    warm = std_model.env()
    compile_formula(ctx, left, warm)
    assert (ctx, left) in warm._memo.compiled
    assert _check_error(ctx, phi, warm) == want


def test_a_body_checked_in_a_wider_context_is_not_checked_in_a_narrower_one(std_model):
    env = std_model.env()
    ctx = parse_context("x:X", env.objects)
    wide = parse_context("x:X, y:X", env.objects)
    compile_formula(ctx, parse("forall y:X. r(y)"), env)
    assert (wide, parse("r(y)")) in env._memo.compiled
    assert _check_error(ctx, parse("r(y)"), env) == ("unbound variable 'y' (at offset 2)", 2)


def test_check_accepts_the_standard_suite(ctx, env):
    for text in (r"r(x) /\ s(x)", "m(x, f(x))", "forall y:Y. m(x,y)"):
        check_formula(ctx, parse(text), env)


# ---------------------------------------------------------------------------
# compilation: frozen memberships


CASES = [
    (r"r(x) /\ s(x)", {("x1",)}),
    (r"r(x) \/ s(x)", {("x0",), ("x1",), ("x2",)}),
    (r"r(x) => s(x)", {("x1",), ("x2",)}),
    (r"~r(x)", {("x2",)}),
    ("x = x", {("x0",), ("x1",), ("x2",)}),
    ("m(x, f(x))", {("x0",)}),
    ("forall y:Y. m(x,y)", {("x0",)}),
    ("exists y:Y. m(x,y)", {("x0",), ("x2",)}),
    ("true", {("x0",), ("x1",), ("x2",)}),
    ("false", set()),
]


@pytest.mark.parametrize("text,expected", CASES)
def test_compiled_membership_frozen(ctx, env, text, expected):
    result = compile_formula(ctx, parse(text), env)
    assert set(result.relation.tuples) == expected


def test_compilation_trace_records_the_construction(ctx, env):
    result = compile_formula(ctx, parse(r"r(x) => s(x)"), env)
    assert result.trace == (
        "atom:r:pullback", "atom:s:pullback", "implies:pullback+pi",
    )
    result = compile_formula(ctx, parse("exists y:Y. m(x,y)"), env)
    assert result.trace == ("atom:m:pullback", "exists:image")


def test_two_variable_context(env):
    ctx2 = parse_context("x:X, y:Y", env.objects)
    result = compile_formula(ctx2, parse("m(x,y)"), env)
    assert set(result.relation.tuples) == {
        ("x0", "y0"), ("x0", "y1"), ("x2", "y0"),
    }
    result = compile_formula(ctx2, parse(r"m(x,y) /\ r(x)"), env)
    assert set(result.relation.tuples) == {("x0", "y0"), ("x0", "y1")}


def test_empty_context_compiles_to_truth_value(env):
    ctx0 = parse_context("", env.objects)
    holds = compile_formula(ctx0, parse("exists z:X. r(z)"), env)
    assert len(holds.relation.dom) == 1
    fails = compile_formula(ctx0, parse("forall z:X. r(z)"), env)
    assert len(fails.relation.dom) == 0


def test_oracle_matches_hand_memberships(ctx, env):
    phi = parse(r"r(x) => s(x)")
    assert not oracle(ctx, phi, env, ("x0",))
    assert oracle(ctx, phi, env, ("x1",))
    assert oracle(ctx, phi, env, ("x2",))
    assert oracle(ctx, phi, env, ["x1"])


@pytest.mark.parametrize("text,row,error,message", [
    (r"r(x) => s(x)", ("x0", "x1"), ShapeError, "expected 1 components, got 2"),
    (r"r(x) => s(x)", (), ShapeError, "expected 1 components, got 0"),
    (r"r(x) => s(x)", ("y0",), ShapeError, "'y0' is not a label of {x0, x1, x2}"),
    # the formula is checked before the row
    ("m(x, x)", ("y0", "y1"), FormulaError,
     "argument of 'm' has sort {x0, x1, x2}, expected {y0, y1} (at offset 0)"),
    ("forall y:Y. q(y)", ("x0",), FormulaError, "unknown relation 'q' (at offset 12)"),
])
def test_oracle_rejects_with_pinned_messages(ctx, env, text, row, error, message):
    with pytest.raises(error) as err:
        oracle(ctx, parse(text), env, row)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("text,_", CASES)
def test_verify_agrees_on_every_row(ctx, env, text, _):
    rep = verify(ctx, parse(text), env)
    assert rep.passed and rep.instances_checked == 3


def test_verify_renders_its_default_label_only_when_read(ctx, env, monkeypatch):
    phi = parse(r"r(x) => s(x)")
    rendered = []

    def counted(node):
        rendered.append(node)
        return render(node)

    monkeypatch.setattr(logic, "render", counted)
    rep = verify(ctx, phi, env)
    assert rep.passed and rendered == []
    assert rep.item == "verify (r(x) => s(x))"
    assert rendered[0] is phi
    calls = len(rendered)
    assert rep.to_dict()["item"] == rep.item and len(rendered) == calls


# ---------------------------------------------------------------------------
# permutation stability


def test_compilation_transports_along_relabeling(std_model):
    env = std_model.env()
    ctx = parse_context("x:X", env.objects)
    sigma = {"x0": "p2", "x1": "p0", "x2": "p1", "y0": "q1", "y1": "q0"}

    from cetcs.finset import FinMor, carrier
    from cetcs.logic import Env
    from cetcs.relcalc import relation_from_tuples

    x2 = carrier(*sorted(sigma[x] for x in env.objects["X"].labels))
    y2 = carrier(*sorted(sigma[y] for y in env.objects["Y"].labels))
    f = env.morphisms["f"]
    f2 = {sigma[a]: sigma[b] for a, b in zip(f.dom.labels, f.table)}
    env2 = Env(
        objects={"X": x2, "Y": y2},
        relations={
            name: relation_from_tuples(
                [tuple(sigma[v] for v in row) for row in rel.tuples],
                tuple(x2 if c is env.objects["X"] else y2 for c in rel.cods),
            )
            for name, rel in env.relations.items()
        },
        morphisms={
            "f": FinMor(x2, y2, tuple(f2[x] for x in x2.labels)),
        },
    )
    ctx2 = parse_context("x:X", env2.objects)
    for text, _ in CASES:
        rows = set(compile_formula(ctx, parse(text), env).relation.tuples)
        rows2 = set(compile_formula(ctx2, parse(text), env2).relation.tuples)
        assert rows2 == {tuple(sigma[v] for v in row) for row in rows}


# ---------------------------------------------------------------------------
# random formulas agree with the oracle


def random_formula(data, depth, y_bound):
    choices = ["top", "bot", "r", "eq"]
    if y_bound:
        choices.append("m")
    if depth > 0:
        choices += ["and", "or", "implies", "not"]
        if not y_bound:
            choices += ["forall", "exists"]
    kind = data.draw(st.sampled_from(choices))
    if kind == "top":
        return Top()
    if kind == "bot":
        return Bot()
    if kind == "r":
        return Atom("r", (Var("x"),))
    if kind == "m":
        return Atom("m", (Var("x"), Var("y")))
    if kind == "eq":
        return Eq(App("f", Var("x")), App("f", Var("x")))
    if kind == "not":
        return Implies(random_formula(data, depth - 1, y_bound), Bot())
    if kind in ("and", "or", "implies"):
        lhs = random_formula(data, depth - 1, y_bound)
        rhs = random_formula(data, depth - 1, y_bound)
        return {"and": And, "or": Or, "implies": Implies}[kind](lhs, rhs)
    body = random_formula(data, depth - 1, True)
    return (Forall if kind == "forall" else Exists)("y", "Y", body)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.data())
def test_random_formulas_verify(data):
    from conftest import STANDARD_MODEL
    from cetcs.modelfile import parse_model

    env = parse_model(STANDARD_MODEL).env()
    ctx = parse_context("x:X", env.objects)
    phi = random_formula(data, 3, False)
    rep = verify(ctx, phi, env)
    assert rep.passed, rep.witness


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.data())
def test_random_formulas_render_round_trip(data):
    phi = random_formula(data, 3, False)
    assert parse(render(phi)) == phi


# ---------------------------------------------------------------------------
# the per-Env memo of compiled subformulas


def _subformulas(ctx, phi, env):
    """Every (context, node) the compiler visits for phi, in postorder."""
    if isinstance(phi, (And, Or, Implies)):
        yield from _subformulas(ctx, phi.lhs, env)
        yield from _subformulas(ctx, phi.rhs, env)
    elif isinstance(phi, (Forall, Exists)):
        yield from _subformulas(ctx.extend(phi.var, env.objects[phi.sort]), phi.body, env)
    yield ctx, phi


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.data())
def test_memoized_compile_equals_a_fresh_compile(data):
    from conftest import STANDARD_MODEL
    from cetcs.modelfile import parse_model

    model = parse_model(STANDARD_MODEL)
    warm = model.env()
    ctx = parse_context("x:X", warm.objects)
    phi = random_formula(data, 3, False)
    others = [random_formula(data, 3, False)
              for _ in range(data.draw(st.integers(min_value=0, max_value=4)))]
    for sub_ctx, sub in _subformulas(ctx, phi, warm):
        compile_formula(sub_ctx, sub, warm)
    for other in others:
        compile_formula(ctx, other, warm)
    fresh = model.env()
    want = compile_formula(ctx, phi, fresh)
    for env in (warm, warm, fresh):
        got = compile_formula(ctx, phi, env)
        assert got.relation == want.relation  # apex labels and legs
        assert got.trace == want.trace
    for env in (warm, fresh):
        assert len(env._memo.compiled) <= _MEMO_SIZE
        assert len(env._memo.atoms) <= _ATOM_SIZE
        assert len(env._memo.built) <= _BUILT_SIZE


# Leaves ill-typed wherever they stand in a formula over x:X, with y:Y bound
# at most: each takes the offset to report, so the offset names the leaf.
ILL_TYPED = [
    lambda pos: Atom("q", (Var("x"),), pos=pos),
    lambda pos: Atom("r", (Var("x"), Var("x")), pos=pos),
    lambda pos: Atom("r", (Var("z", pos=pos),), pos=pos),
    lambda pos: Atom("m", (Var("y", pos=pos), Var("x")), pos=pos),
    lambda pos: Eq(App("f", Var("x")), Var("x"), pos=pos),
    lambda pos: Eq(App("g", Var("x"), pos=pos), Var("x"), pos=pos),
    lambda pos: Eq(App("h", Var("x"), pos=pos), Var("x"), pos=pos),
    lambda pos: Forall("x", "X", Top(), pos=pos),
    lambda pos: Exists("w", "Z", Top(), pos=pos),
]


def _plant(data, phi, leaf):
    """phi with one subtree, picked by data, replaced by leaf."""
    if isinstance(phi, (And, Or, Implies)) and data.draw(st.booleans()):
        if data.draw(st.booleans()):
            return type(phi)(_plant(data, phi.lhs, leaf), phi.rhs)
        return type(phi)(phi.lhs, _plant(data, phi.rhs, leaf))
    if isinstance(phi, (Forall, Exists)) and data.draw(st.booleans()):
        return type(phi)(phi.var, phi.sort, _plant(data, phi.body, leaf))
    return leaf


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.data())
def test_a_compile_rejected_on_a_warm_env_raises_the_fresh_check_error(data):
    from conftest import STANDARD_MODEL
    from cetcs.modelfile import parse_model

    model = parse_model(STANDARD_MODEL)
    warm = model.env()
    ctx = parse_context("x:X", warm.objects)
    host = random_formula(data, 3, False)
    for sub_ctx, sub in _subformulas(ctx, host, warm):
        compile_formula(sub_ctx, sub, warm)
    # up to two ill-typed leaves: the first in preorder is reported
    bad = host
    for pos in range(data.draw(st.integers(min_value=1, max_value=2))):
        bad = _plant(data, bad, data.draw(st.sampled_from(ILL_TYPED))(pos))
    with pytest.raises(FormulaError) as want:
        check_formula(ctx, bad, model.env())
    with pytest.raises(FormulaError) as got:
        compile_formula(ctx, bad, warm)
    assert (str(got.value), got.value.pos) == (str(want.value), want.value.pos)
    phi = random_formula(data, 3, False)
    assert compile_formula(ctx, phi, warm) == compile_formula(ctx, phi, model.env())


def test_compile_memo_keeps_at_most_its_size(env, ctx):
    phi = Top()
    # each step keeps a new conjunction and its result relation in ``built``
    for _ in range(_BUILT_SIZE // 2 + 1):
        phi = And(phi, R_X)
        compile_formula(ctx, phi, env)
    assert len(env._memo.compiled) == _MEMO_SIZE
    assert len(env._memo.built) == _BUILT_SIZE
    assert set(compile_formula(ctx, phi, env).relation.tuples) == {("x0",), ("x1",)}


def test_atom_memo_keeps_at_most_its_size(env):
    # each context names its variable apart, so each keeps a new atom
    contexts = [parse_context(f"v{k}:X", env.objects) for k in range(_ATOM_SIZE + 1)]
    for k, ctx in enumerate(contexts):
        compile_formula(ctx, Atom("r", (Var(f"v{k}"),)), env)
    assert len(env._memo.atoms) == _ATOM_SIZE
    assert (contexts[0], Atom("r", (Var("v0"),))) not in env._memo.atoms
    assert set(compile_formula(contexts[0], Atom("r", (Var("v0"),)), env).relation.tuples) == {
        ("x0",), ("x1",)}


def test_verify_rejects_a_poisoned_atom_memo(env, ctx):
    compile_formula(ctx, R_X, env)
    compile_formula(ctx, S_X, env)
    atoms = env._memo.atoms
    atoms[(ctx, R_X)] = atoms[(ctx, S_X)]
    # a chain of new conjunctions of s(x) evicts r(x) from the compile memo
    # but not from the larger atom memo, which then answers for it
    phi = Top()
    for _ in range(_MEMO_SIZE):
        phi = And(phi, S_X)
        compile_formula(ctx, phi, env)
    assert (ctx, R_X) not in env._memo.compiled
    rep = verify(ctx, R_X, env)
    assert rep.failed
    assert rep.witness == {"row": ["x0"], "compiled": False, "oracle": True,
                           "formula": "r(x)", "trace": ["atom:r:pullback"]}


def test_a_long_conjunction_chain_compiles_step_by_step(env, ctx):
    # Each step checks and builds only its new root, finding the chain below
    # it in the compile memo, and walks down neither chain to compare them.
    phi = Top()
    for _ in range(400):
        phi = And(phi, R_X)
        result = compile_formula(ctx, phi, env)
    assert set(result.relation.tuples) == {("x0",), ("x1",)}


def test_quantifiers_over_one_context_keep_a_projection_per_sort(std_model):
    # Both binders extend x:X, by Y and by X: each needs its own projection.
    env = std_model.env()
    ctx = parse_context("x:X", env.objects)
    for text in ("forall y:Y. m(x,y)", r"exists z:X. r(z) /\ s(x)",
                 r"forall z:X. r(z) \/ r(x)", "exists y:Y. m(x,y)"):
        phi = parse(text)
        want = compile_formula(ctx, phi, std_model.env())
        assert compile_formula(ctx, phi, env) == want
        assert verify(ctx, phi, env).passed


def test_verify_rejects_a_poisoned_construction_memo(env, ctx):
    compile_formula(ctx, parse(r"r(x) /\ s(x)"), env)
    built = env._memo.built
    (key,) = [k for k in built if k[0] == "and"]
    r_mono = env._memo.compiled[(ctx, parse("r(x)"))]
    built[key] = r_mono
    # Renaming the variable misses the (context, node) memo, but the atoms
    # compile to the same monos, so the conjunction is read from the
    # poisoned entry.
    other = parse_context("y:X", env.objects)
    rep = verify(other, parse(r"r(y) /\ s(y)"), env)
    assert rep.failed
    assert rep.witness["row"] == ["x0"]


def test_verify_rejects_a_poisoned_result_memo(env, ctx):
    phi = parse(r"r(x) /\ s(x)")
    r_relation = compile_formula(ctx, parse("r(x)"), env).relation
    want = compile_formula(ctx, phi, env)
    built = env._memo.built
    (key,) = [k for k, rel in built.items() if k[0] == "result" and rel == want.relation]
    built[key] = r_relation
    rep = verify(ctx, phi, env)
    assert rep.failed
    assert rep.witness == {"row": ["x0"], "compiled": True, "oracle": False,
                           "formula": render(phi), "trace": list(want.trace)}


def test_result_memo_tells_apart_contexts_with_equal_products():
    # The one label of P spells the pair (a,u): the context p:P has the same
    # product apex as x:A, y:U, and so the same mono for true, but one leg.
    from cetcs.modelfile import parse_model

    model = parse_model("object A = {a}\nobject U = {u}\nobject P = {(a,u)}\n")
    env = model.env()
    one = parse_context("p:P", env.objects)
    two = parse_context("x:A, y:U", env.objects)
    assert product_n(one.objects).apex == product_n(two.objects).apex
    for ctx in (one, two, one):
        assert compile_formula(ctx, Top(), env) == compile_formula(ctx, Top(), model.env())
        assert verify(ctx, Top(), env).passed


def test_atom_memo_tells_apart_contexts_with_equal_products():
    # p:P and x:A, y:U have the same product apex, and t(p) and w(x,y) the
    # same one row on it; each atom is kept under its own context.
    from cetcs.modelfile import parse_model

    model = parse_model("object A = {a}\nobject U = {u}\nobject P = {(a,u)}\n"
                        "relation t <| (P) = { (a,u) }\n"
                        "relation w <| (A, U) = { (a, u) }\n")
    env = model.env()
    one = (parse_context("p:P", env.objects), parse("t(p)"))
    two = (parse_context("x:A, y:U", env.objects), parse("w(x,y)"))
    assert product_n(one[0].objects).apex == product_n(two[0].objects).apex
    for ctx, phi in (one, two, one):
        assert compile_formula(ctx, phi, env) == compile_formula(ctx, phi, model.env())
        assert verify(ctx, phi, env).passed
    assert set(env._memo.atoms) == {one, two}


def test_atom_memo_tells_apart_contexts_that_differ_only_in_names():
    # x:A, y:A and y:A, x:A have the same carriers and product; q(x) reads
    # the first point of a pair in one and the second in the other.
    from cetcs.modelfile import parse_model

    model = parse_model("object A = {a, b}\nrelation q <| (A) = { a }\n")
    env = model.env()
    phi = parse("q(x)")
    xy = parse_context("x:A, y:A", env.objects)
    yx = parse_context("y:A, x:A", env.objects)
    assert xy.labels == yx.labels
    want = {xy: {("a", "a"), ("a", "b")}, yx: {("a", "a"), ("b", "a")}}
    for ctx in (xy, yx, xy):
        assert set(compile_formula(ctx, phi, env).relation.tuples) == want[ctx]
        assert verify(ctx, phi, env).passed


def test_context_products_do_not_outlive_their_env(std_model):
    env = std_model.env()
    ctx = parse_context("x:X, y:Y", env.objects)
    assert verify(ctx, parse("forall z:X. m(x,y) => r(z)"), env).passed
    kept = [weakref.ref(p) for k, p in env._memo.built.items() if k[0] == "product"]
    assert len(kept) == 3  # the context's, the body's and m's
    del env
    gc.collect()
    assert [ref() for ref in kept] == [None] * 3


# ---------------------------------------------------------------------------
# every construction the compiler calls is checked by the oracle


def _without_last_point(m):
    return FinMor(FinObj(m.dom.labels[:-1]), m.cod, m.table[:-1])


def _dropping_pullback(f, g):
    s = pullback(f, g)
    p1, p2 = _without_last_point(s.p1), _without_last_point(s.p2)
    return PullbackSquare(p1.dom, p1, p2)


def _dropping_equalizer(f, g):
    return _without_last_point(equalizer(f, g))


def _dropping_image(f):
    e, i = image_factorization(f)
    return e, _without_last_point(i)


def _dropping_pi_object(g, f):
    return _without_last_point(pi_object(g, f))


MUTANTS = {
    "pullback": _dropping_pullback,
    "equalizer": _dropping_equalizer,
    "image_factorization": _dropping_image,
    "pi_object": _dropping_pi_object,
}


@pytest.mark.parametrize("construction, text", [
    ("pullback", "r(x)"),
    ("pullback", r"x = x /\ true"),
    ("equalizer", "f(x) = f(x)"),
    ("image_factorization", r"true \/ false"),
    ("image_factorization", "exists y:Y. true"),
    ("pi_object", "true => true"),
    ("pi_object", "forall y:Y. true"),
])
def test_verify_rejects_a_construction_that_drops_a_point(
    std_model, monkeypatch, construction, text
):
    # Each formula reaches the mutant only through its own connective.
    monkeypatch.setattr(logic, construction, MUTANTS[construction])
    env = std_model.env()
    ctx = parse_context("x:X", env.objects)
    rep = verify(ctx, parse(text), env)
    assert rep.failed


# Every walk looks a node's function up by its exact type, in a table of the
# module's own functions.  A public construction held there directly would
# be the object bound when the module was loaded, and a tracer or mutant
# rebinding the module global would never see it called.
WALKS = {"_CHECK": logic._CHECK, "_BUILD": logic._BUILD, "_RENDER": logic._RENDER,
         "_EVAL": logic._EVAL}
NODE_TYPES = {Top, Bot, Atom, Eq, And, Or, Implies, Forall, Exists}


@pytest.mark.parametrize("name", list(WALKS))
def test_every_walk_dispatches_to_private_functions_of_logic(name):
    public = {id(v) for k, v in vars(logic).items() if not k.startswith("_")}
    table = WALKS[name]
    assert set(table) == NODE_TYPES
    for fn in table.values():
        assert isinstance(fn, types.FunctionType)
        assert fn.__module__ == logic.__name__ and id(fn) not in public
        assert fn.__qualname__ == "<lambda>" or fn.__qualname__.startswith("_")


@pytest.mark.parametrize("construction, text", [
    ("pullback", "r(x)"),
    ("pullback", r"x = x /\ true"),
    ("pullback", "x = x => true"),
    ("equalizer", "x = x"),
    ("image_factorization", r"true \/ false"),
    ("image_factorization", "exists y:Y. true"),
    ("pi_object", "true => true"),
    ("pi_object", "forall y:Y. true"),
    ("coproduct", r"true \/ false"),
    ("compose", r"x = x /\ true"),
    ("compose", "exists y:Y. true"),
    ("compose", "f(x) = f(x)"),
    ("identity", "true"),
    ("unique_from_initial", "false"),
    ("product_n", "r(x)"),
    ("product_n", "forall y:Y. true"),
])
def test_each_node_calls_its_construction_through_the_module_global(
    std_model, monkeypatch, construction, text
):
    # The root's function runs alone on a fresh env, so the formula reaches
    # the construction only through that function and its children's.
    env = std_model.env()
    ctx = parse_context("x:X", env.objects)
    cprod = product_n(ctx.objects)
    phi = parse(text)
    calls = []
    real = getattr(logic, construction)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(logic, construction, counted)
    mono = logic._BUILD[type(phi)](ctx, phi, env, cprod)
    assert calls
    assert mono.table == logic._compile_mono(ctx, phi, std_model.env(), cprod).table


class Both(And):
    """A subclass of a node type: no walk accepts it."""

    __slots__ = ()


UNSUPPORTED = {
    "subclass": (Both(R_X, S_X), "unsupported formula node Both(lhs=Atom(name='r', "
                 "args=(Var(name='x'),)), rhs=Atom(name='s', args=(Var(name='x'),)))"),
    "text": ("r(x)", "unsupported formula node 'r(x)'"),
    "nested": (And(R_X, Forall("y", "Y", 7)), "unsupported formula node 7"),
}


@pytest.mark.parametrize("walk", [check_formula, compile_formula, verify, oracle])
@pytest.mark.parametrize("case", list(UNSUPPORTED))
def test_an_unsupported_node_is_rejected_by_every_walk(std_model, walk, case):
    phi, message = UNSUPPORTED[case]
    fresh, warm = std_model.env(), std_model.env()
    ctx = parse_context("x:X", fresh.objects)
    # the warm env has compiled every supported node the formulas share
    compile_formula(ctx, And(R_X, S_X), warm)
    for env in (fresh, warm):
        args = (ctx, phi, env, ("x0",)) if walk is oracle else (ctx, phi, env)
        with pytest.raises(FormulaError) as got:
            walk(*args)
        assert (str(got.value), got.value.pos) == (message, None)


def test_env_is_a_read_only_snapshot(std_model):
    objects = dict(std_model.objects)
    relations = dict(std_model.relations)
    morphisms = dict(std_model.morphisms)
    env = Env(objects=objects, relations=relations, morphisms=morphisms)
    ctx = parse_context("x:X", env.objects)
    relations["r"] = relations["s"]
    morphisms["f"] = morphisms["t"]
    assert set(compile_formula(ctx, parse("r(x)"), env).relation.tuples) == {
        ("x0",), ("x1",),
    }
    assert compile_formula(ctx, parse("m(x, f(x))"), env).relation.tuples == (("x0",),)
    with pytest.raises(TypeError):
        env.relations["r"] = relations["s"]
    with pytest.raises(TypeError):
        env.objects["Z"] = env.objects["X"]
    with pytest.raises(TypeError):
        del env.morphisms["f"]


def test_check_formula_still_rejects_after_accepting(ctx, env):
    phi = parse(r"r(x) /\ s(x)")
    check_formula(ctx, phi, env)
    check_formula(ctx, phi, env)
    with pytest.raises(FormulaError):
        check_formula(ctx, parse("q(x)"), env)
    other = parse_context("y:Y", env.objects)
    with pytest.raises(FormulaError):
        check_formula(other, phi, env)

"""Command-line behavior: exit codes, formats, determinism, diagnostics."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from cetcs import axioms, cli
from cetcs.axioms import AXIOMS, THEOREMS, CheckSpec, check_axiom, check_theorem
from cetcs.cli import main
from cetcs.finset import FinMor, image_factorization
from conftest import STANDARD_MODEL


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.cetcs"
    path.write_text(STANDARD_MODEL, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_single_axiom_passes(capsys, model_path):
    code, out, err = run(capsys, "check", "--axiom", "C1", "--bound", "2", model_path)
    assert code == 0 and err == ""
    assert out == "PASS C1 instances=5\n"


def test_check_axiom_all_lists_every_item(capsys, model_path):
    code, out, _ = run(capsys, "check", "--axiom", "all", "--bound", "1", model_path)
    assert code == 0
    items = [line.split()[1] for line in out.splitlines()]
    assert items == ["C1", "C2", "C3", "D1", "D2", "D3", "Pi", "G", "PA",
                     "I", "DP", "NT", "Fct", "Eff"]


def test_check_defaults_to_both_suites(capsys, model_path):
    code, out, _ = run(capsys, "check", "--bound", "1", model_path)
    assert code == 0
    assert len(out.splitlines()) == 14 + 18


def test_check_routes_every_item_through_the_entry_points(capsys, model_path,
                                                         monkeypatch):
    # The benchmark captures per-item reports by wrapping these two names.
    routed: dict[str, list[str]] = {"axiom": [], "theorem": []}

    def counted(kind, check):
        def inner(spec):
            routed[kind].append(spec.item)
            return check(spec)
        return inner

    monkeypatch.setattr(cli, "check_axiom", counted("axiom", cli.check_axiom))
    monkeypatch.setattr(cli, "check_theorem", counted("theorem", cli.check_theorem))
    code, out, _ = run(capsys, "check", "--bound", "1", model_path)
    assert code == 0
    assert len(routed["axiom"]) == 14 and len(routed["theorem"]) == 18
    assert routed == {"axiom": list(AXIOMS), "theorem": list(THEOREMS)}
    lines = [line.split() for line in out.splitlines()]
    assert [item for _, item, _ in lines] == routed["axiom"] + routed["theorem"]
    assert all(verdict == "PASS" for verdict, _, _ in lines)


def one_argument(check):
    """check behind a wrapper of one argument, as the benchmark's worker
    installs it."""
    def inner(spec):
        return check(spec)
    return inner


def standalone(item, bound):
    check = check_axiom if item in AXIOMS else check_theorem
    return check(CheckSpec(item=item, bound=bound))


def test_one_check_decides_each_part_once(capsys, monkeypatch):
    built = Counter()

    def counted(name):
        real = getattr(axioms, name)

        def inner(*args):
            built[name] += 1
            return real(*args)
        return inner

    for name in ("image_factorization", "pullback", "pi_diagram"):
        monkeypatch.setattr(axioms, name, counted(name))
    monkeypatch.setattr(cli, "check_axiom", one_argument(cli.check_axiom))
    monkeypatch.setattr(cli, "check_theorem", one_argument(cli.check_theorem))
    code, out, _ = run(capsys, "check", "--bound", "2")
    assert code == 0
    # pretopos credits Fct and onto-pullback, and pi-universality Pi.  So
    # Fct and image-factorization factor their 11 maps once each; the 59
    # cospans get one pullback in pullback-elements and one in onto-pullback,
    # and regularity builds the 21 with f onto; Pi builds its 47 products,
    # pi-universality's competitor sweep 47 more, and exponentials 9.
    assert built == {"image_factorization": 11 + 11, "pullback": 59 + 59 + 21,
                     "pi_diagram": 47 + 47 + 9}
    assert out.splitlines() == [standalone(item, 2).text_line()
                                for item in [*AXIOMS, *THEOREMS]]


def swapped_factorization(f):
    """f's factorization with the first two entries of its onto part
    swapped, when they differ."""
    e, i = image_factorization(f)
    t = e.table
    return (FinMor(e.dom, e.cod, (t[1], t[0], *t[2:])) if len(set(t[:2])) == 2 else e), i


def test_a_credited_part_fails_its_composite_as_a_run_would(capsys, monkeypatch):
    monkeypatch.setattr(axioms, "image_factorization", swapped_factorization)
    code, out, _ = run(capsys, "check", "--bound", "2", "--format", "json")
    assert code == 1
    reports = {r["item"]: r for r in json.loads(out)}
    assert [item for item, r in reports.items() if r["verdict"] == "fail"] == [
        "Fct", "image-factorization", "pretopos"]
    alone = standalone("pretopos", 2)
    assert (reports["pretopos"]["witness"], reports["pretopos"]["instances_checked"]) == (
        alone.witness, alone.instances_checked) == (reports["Fct"]["witness"], 7 + 9)


def test_check_without_model_file(capsys):
    code, out, _ = run(capsys, "check", "--axiom", "I", "--bound", "1")
    assert code == 0 and out.startswith("PASS I ")


def test_check_json_format_is_valid(capsys, model_path):
    code, out, _ = run(capsys, "check", "--axiom", "NT", "--bound", "1",
                       "--format", "json", model_path)
    assert code == 0
    data = json.loads(out)
    assert data[0]["item"] == "NT" and data[0]["verdict"] == "pass"
    assert data[0]["elapsed"] is None


def test_timings_flag_reveals_elapsed(capsys, model_path):
    _, out, _ = run(capsys, "check", "--axiom", "NT", "--bound", "1",
                    "--format", "json", "--timings", model_path)
    assert json.loads(out)[0]["elapsed"] is not None


def test_unknown_axiom_exits_2(capsys, model_path):
    code, _, err = run(capsys, "check", "--axiom", "Q7", model_path)
    assert code == 2 and "unknown axiom" in err


def test_unknown_theorem_exits_2_before_any_check_runs(capsys, model_path):
    code, out, err = run(capsys, "check", "--axiom", "C1", "--theorem", "fermat",
                         model_path)
    assert code == 2 and out == "" and "unknown theorem 'fermat'" in err


def test_check_runs_the_named_axiom_then_the_named_theorem(capsys, model_path):
    code, out, _ = run(capsys, "check", "--axiom", "D1", "--theorem", "choice",
                       "--bound", "1", model_path)
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["PASS", "D1"], ["PASS", "choice"],
    ]


def test_check_runs_every_repeated_item_in_the_order_given(capsys, model_path):
    code, out, _ = run(capsys, "check", "--axiom", "D1", "--axiom", "C1",
                       "--theorem", "classifier", "--theorem", "choice",
                       "--bound", "1", model_path)
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == [
        "D1", "C1", "classifier", "choice",
    ]
    # 'all' expands in registry order wherever it stands
    _, out, _ = run(capsys, "check", "--theorem", "choice", "--theorem", "all",
                    "--bound", "1", model_path)
    assert [line.split()[1] for line in out.splitlines()] == ["choice", *THEOREMS]
    # an unknown item exits 2 before any of the named items runs
    code, out, err = run(capsys, "check", "--axiom", "C1", "--axiom", "Q7", model_path)
    assert (code, out) == (2, "") and "unknown axiom 'Q7'" in err


def test_construct_takes_no_timings_flag(capsys, model_path):
    # construct prints declarations, not reports, so there is nothing to time
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--op", "product", "--objects", "X,Y", "--timings", model_path])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timings" in capsys.readouterr().err


def test_missing_model_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "--axiom", "C1", "/no/such/file")
    assert code == 2 and "error" in err


def test_sampling_requires_large_bound(capsys, model_path):
    code, _, err = run(capsys, "check", "--axiom", "C1", "--bound", "3",
                       "--sample", "5", model_path)
    assert code == 2 and "sampling" in err


@pytest.mark.parametrize("sample", ["-1", "0"])
@pytest.mark.parametrize("item", ["function-graphs", "dependent-choice",
                                  "inclusion-orders"])
def test_sample_below_one_exits_2(capsys, item, sample):
    # 0 would pass each sampled item with no instance checked.
    code, out, err = run(capsys, "check", "--bound", "5", "--sample", sample,
                         "--theorem", item)
    assert (code, out) == (2, "")
    assert err == f"error: sample must be at least 1, got {sample}\n"


def test_model_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.cetcs"
    path.write_bytes(b"object A = {a}\nobject B = {b\xff}\n")
    code, out, err = run(capsys, "check", "--axiom", "C1", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2: not UTF-8 text: invalid start byte 0xff\n"


def test_bound_env_var_is_honored(capsys, model_path, monkeypatch):
    monkeypatch.setenv("CETCS_BOUND", "1")
    _, out_env, _ = run(capsys, "check", "--axiom", "C1", model_path)
    monkeypatch.delenv("CETCS_BOUND")
    _, out_flag, _ = run(capsys, "check", "--axiom", "C1", "--bound", "1",
                         model_path)
    assert out_env == out_flag


def test_bound_zero_exits_2(capsys):
    assert run(capsys, "check", "--bound", "0") == (
        2, "", "error: bound must be at least 1, got 0\n",
    )


def test_bad_bound_env_var_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CETCS_BOUND", "three")
    code, _, err = run(capsys, "check", "--axiom", "C1")
    assert code == 2 and "CETCS_BOUND" in err


# ---------------------------------------------------------------------------
# construct


def test_construct_product_frozen_output(capsys, model_path):
    code, out, _ = run(capsys, "construct", "--op", "product",
                       "--objects", "Y,Y", model_path)
    assert code == 0
    assert out.splitlines()[0] == "object P = {(y0,y0), (y0,y1), (y1,y0), (y1,y1)}"


def test_construct_image(capsys, model_path):
    code, out, _ = run(capsys, "construct", "--op", "image", "--maps", "f",
                       model_path)
    assert code == 0
    assert out.splitlines()[0] == "object I = {y0, y1}"


def test_construct_quotient_needs_equivalence(capsys, tmp_path):
    path = tmp_path / "m.cetcs"
    path.write_text(
        "object A = {a, b}\nrelation e <| (A, A) = {(a,b), (b,a)}\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "construct", "--op", "quotient",
                       "--relation", "e", str(path))
    assert code == 2 and "reflexive" in err


def test_construct_output_extends_the_model(capsys, model_path, tmp_path):
    code, out, _ = run(capsys, "construct", "--op", "sum", "--objects", "X,Y",
                       model_path)
    assert code == 0
    from cetcs.modelfile import parse_model

    mf = parse_model(STANDARD_MODEL + out)
    assert len(mf.objects["S"]) == 5
    assert mf.morphisms["inl"].cod == mf.objects["S"]


# The standard model, plus a second map X -> Y and an equivalence on X.
CONSTRUCT_MODEL = STANDARD_MODEL + """\
morphism k : X -> Y = { x0 |-> y0, x1 |-> y1, x2 |-> y1 }
relation e <| (X, X) = { (x0, x0), (x0, x1), (x1, x0), (x1, x1), (x2, x2) }
"""


@pytest.mark.parametrize("args, want", [
    (("--op", "equalizer", "--maps", "f,k"),
     "object E = {x0, x2}\n"
     "morphism e : E -> X {x0 |-> x0, x2 |-> x2}\n"),
    (("--op", "coequalizer", "--maps", "f,k"),
     "object Q = {y0}\n"
     "morphism q : Y -> Q {y0 |-> y0, y1 |-> y0}\n"),
    (("--op", "pullback", "--maps", "f,k"),
     "object P = {(x0,x0), (x1,x0), (x2,x1), (x2,x2)}\n"
     "morphism p1 : P -> X {(x0,x0) |-> x0, (x1,x0) |-> x1, (x2,x1) |-> x2, (x2,x2) |-> x2}\n"
     "morphism p2 : P -> X {(x0,x0) |-> x0, (x1,x0) |-> x0, (x2,x1) |-> x1, (x2,x2) |-> x2}\n"),
    (("--op", "quotient", "--relation", "e"),
     "object Q = {x0, x2}\n"
     "morphism q : X -> Q {x0 |-> x0, x1 |-> x0, x2 |-> x2}\n"),
], ids=["equalizer", "coequalizer", "pullback", "quotient"])
def test_construct_output_is_pinned(capsys, tmp_path, args, want):
    path = tmp_path / "model.cetcs"
    path.write_text(CONSTRUCT_MODEL, encoding="utf-8")
    assert run(capsys, "construct", *args, str(path)) == (0, want, "")


def test_construct_wrong_operands_exit_2(capsys, model_path):
    code, _, err = run(capsys, "construct", "--op", "product", "--objects", "X",
                       model_path)
    assert code == 2 and "needs" in err
    code, _, err = run(capsys, "construct", "--op", "equalizer",
                       "--maps", "f,nope", model_path)
    assert code == 2 and "unknown morphism" in err


# ---------------------------------------------------------------------------
# compile


def test_compile_frozen_output(capsys, model_path):
    code, out, _ = run(capsys, "compile", "--context", "x:X",
                       "--formula", r"r(x) => s(x)", "--verify", "--trace",
                       model_path)
    assert code == 0
    assert out == (
        "relation result <| (x) = {x1, x2}\n"
        "trace: atom:r:pullback, atom:s:pullback, implies:pullback+pi\n"
        "PASS compile-verify instances=3\n"
    )


def test_compile_json_payload(capsys, model_path):
    code, out, _ = run(capsys, "compile", "--context", "x:X, y:Y",
                       "--formula", "m(x,y)", "--format", "json", model_path)
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == [["x0", "y0"], ["x0", "y1"], ["x2", "y0"]]
    assert data["sorts"] == ["x", "y"]


# A formula whose subtrees repeat; the trace still lists every node in
# postorder, repeats included.  Recorded before compiled subformulas were
# memoized.
SHARED = r"((r(x) /\ r(x)) \/ (r(x) /\ r(x))) => forall y:Y. m(x, y)"
SHARED_TRACE = [
    "atom:r:pullback", "atom:r:pullback", "and:pullback",
    "atom:r:pullback", "atom:r:pullback", "and:pullback", "or:sum+image",
    "atom:m:pullback", "forall:product+pi", "implies:pullback+pi",
]


def test_compile_trace_of_shared_subtrees_is_pinned(capsys, model_path):
    code, out, _ = run(capsys, "compile", "--context", "x:X", "--formula", SHARED,
                       "--trace", "--verify", model_path)
    assert code == 0
    assert out == (
        "relation result <| (x) = {x0, x2}\n"
        "trace: " + ", ".join(SHARED_TRACE) + "\n"
        "PASS compile-verify instances=3\n"
    )
    code, out, _ = run(capsys, "compile", "--context", "x:X", "--formula", SHARED,
                       "--trace", "--verify", "--format", "json", model_path)
    assert code == 0
    assert out == (
        '{\n'
        '  "context": "x:X",\n'
        '  "formula": "((r(x) /\\\\ r(x)) \\\\/ (r(x) /\\\\ r(x))) => forall y:Y. m(x, y)",\n'
        '  "rows": [\n'
        '    [\n      "x0"\n    ],\n'
        '    [\n      "x2"\n    ]\n'
        '  ],\n'
        '  "sorts": [\n    "x"\n  ],\n'
        '  "trace": [\n'
        + ",\n".join(f'    "{step}"' for step in SHARED_TRACE) + "\n"
        '  ],\n'
        '  "verify": {\n'
        '    "elapsed": null,\n'
        '    "instances_checked": 3,\n'
        '    "item": "compile-verify",\n'
        '    "verdict": "pass",\n'
        '    "witness": null\n'
        '  }\n'
        '}\n'
    )


def test_compile_trace_in_two_variables_is_pinned(capsys, model_path):
    formula = (r"(m(x, y) /\ r(x)) \/ ((m(x, y) /\ r(x))"
               r" => exists z:X. (m(z, y) /\ r(x)))")
    code, out, _ = run(capsys, "compile", "--context", "x:X, y:Y", "--formula", formula,
                       "--trace", "--verify", model_path)
    assert code == 0
    assert out == (
        "relation result <| (x, y) = {(x0, y0), (x0, y1), (x1, y0), (x1, y1),"
        " (x2, y0), (x2, y1)}\n"
        "trace: atom:m:pullback, atom:r:pullback, and:pullback,"
        " atom:m:pullback, atom:r:pullback, and:pullback,"
        " atom:m:pullback, atom:r:pullback, and:pullback,"
        " exists:image, implies:pullback+pi, or:sum+image\n"
        "PASS compile-verify instances=6\n"
    )


def test_compile_bad_formula_exits_2(capsys, model_path):
    code, _, err = run(capsys, "compile", "--context", "x:X",
                       "--formula", "q(x)", model_path)
    assert code == 2 and "q" in err


@pytest.mark.parametrize("formula", [
    "(" * 200 + "r(x)" + ")" * 200,
    "~" * 990 + "r(x)",
    r" /\ ".join(["r(x)"] * 600),
], ids=["parentheses", "negations", "flat-conjunction"])
def test_compile_deeply_nested_formula_exits_2(capsys, model_path, formula):
    code, out, err = run(capsys, "compile", "--context", "x:X", "--formula",
                         formula, model_path)
    assert (code, out) == (2, "")
    assert err == "error: the input nests too deeply to process\n"


# ---------------------------------------------------------------------------
# pi


def test_pi_with_universality_certificate(capsys, model_path):
    code, out, _ = run(capsys, "pi", "--g", "g", "--f", "t",
                       "--check-universal", model_path)
    assert code == 0
    assert out.splitlines()[0] == "object F = {}"
    assert out.splitlines()[-1].startswith("PASS pi-universal")


def test_pi_json_payload(capsys, model_path):
    code, out, _ = run(capsys, "pi", "--g", "g", "--f", "f", "--format",
                       "json", model_path)
    assert code == 0
    data = json.loads(out)
    assert data["F"] == ["(y1|x2↦y1)"]


PI_TEXT = {
    # x1 has an empty g-fiber, so no section exists over i0
    ("g", "t"): (
        "object F = {}\n"
        "object P = {}\n"
        "morphism phi : F -> I {}\n"
        "morphism pi1 : P -> F {}\n"
        "morphism pi2 : P -> X {}\n"
        "morphism ev : P -> Y {}\n"
        "PASS pi-universal instances=6\n"
    ),
    # x1 has an empty f-fiber (here f is g), so it carries one empty section
    ("f", "g"): (
        "object F = {(x0|y0↦x0), (x0|y0↦x1), (x1|), (x2|y1↦x2)}\n"
        "object P = {((x0|y0↦x0),y0), ((x0|y0↦x1),y0), ((x2|y1↦x2),y1)}\n"
        "morphism phi : F -> X {(x0|y0↦x0) |-> x0, (x0|y0↦x1) |-> x0,"
        " (x1|) |-> x1, (x2|y1↦x2) |-> x2}\n"
        "morphism pi1 : P -> F {((x0|y0↦x0),y0) |-> (x0|y0↦x0),"
        " ((x0|y0↦x1),y0) |-> (x0|y0↦x1), ((x2|y1↦x2),y1) |-> (x2|y1↦x2)}\n"
        "morphism pi2 : P -> Y {((x0|y0↦x0),y0) |-> y0, ((x0|y0↦x1),y0) |-> y0,"
        " ((x2|y1↦x2),y1) |-> y1}\n"
        "morphism ev : P -> X {((x0|y0↦x0),y0) |-> x0, ((x0|y0↦x1),y0) |-> x1,"
        " ((x2|y1↦x2),y1) |-> x2}\n"
        "PASS pi-universal instances=13\n"
    ),
}

PI_JSON = {
    ("g", "t"): """\
{
  "F": [],
  "P": [],
  "ev": {},
  "f": "t",
  "g": "g",
  "phi": {},
  "universal": {
    "elapsed": null,
    "instances_checked": 6,
    "item": "pi-universal",
    "verdict": "pass",
    "witness": null
  }
}
""",
    ("f", "g"): """\
{
  "F": [
    "(x0|y0↦x0)",
    "(x0|y0↦x1)",
    "(x1|)",
    "(x2|y1↦x2)"
  ],
  "P": [
    "((x0|y0↦x0),y0)",
    "((x0|y0↦x1),y0)",
    "((x2|y1↦x2),y1)"
  ],
  "ev": {
    "((x0|y0↦x0),y0)": "x0",
    "((x0|y0↦x1),y0)": "x1",
    "((x2|y1↦x2),y1)": "x2"
  },
  "f": "g",
  "g": "f",
  "phi": {
    "(x0|y0↦x0)": "x0",
    "(x0|y0↦x1)": "x0",
    "(x1|)": "x1",
    "(x2|y1↦x2)": "x2"
  },
  "universal": {
    "elapsed": null,
    "instances_checked": 13,
    "item": "pi-universal",
    "verdict": "pass",
    "witness": null
  }
}
""",
}


@pytest.mark.parametrize("g, f", list(PI_TEXT))
def test_pi_check_universal_output_is_pinned(capsys, model_path, g, f):
    code, out, err = run(capsys, "pi", "--g", g, "--f", f, "--check-universal",
                         model_path)
    assert (code, out, err) == (0, PI_TEXT[g, f], "")
    code, out, err = run(capsys, "pi", "--g", g, "--f", f, "--check-universal",
                         "--format", "json", model_path)
    assert (code, out, err) == (0, PI_JSON[g, f], "")


# ---------------------------------------------------------------------------
# report


def test_report_round_trip(capsys, model_path, tmp_path):
    _, out, _ = run(capsys, "check", "--axiom", "G", "--bound", "2",
                    "--format", "json", model_path)
    saved = tmp_path / "rep.json"
    saved.write_text(out, encoding="utf-8")
    code, text, _ = run(capsys, "report", str(saved))
    assert code == 0
    assert text == "PASS G instances=40\n"


def test_report_propagates_failure_exit(capsys, tmp_path):
    saved = tmp_path / "bad.json"
    saved.write_text(json.dumps([{
        "item": "G", "verdict": "fail", "witness": {"f": "broken"},
        "instances_checked": 7, "elapsed": None,
    }]), encoding="utf-8")
    code, out, _ = run(capsys, "report", str(saved))
    assert code == 1
    assert out.startswith("FAIL G ")


def test_report_accepts_single_object(capsys, tmp_path):
    saved = tmp_path / "one.json"
    saved.write_text(json.dumps({
        "item": "C1", "verdict": "pass", "witness": None,
        "instances_checked": 3, "elapsed": 0.5,
    }), encoding="utf-8")
    code, out, _ = run(capsys, "report", "--format", "json", str(saved))
    assert code == 0
    assert json.loads(out)[0]["item"] == "C1"


@pytest.mark.parametrize("text, message", [
    ('[{"item": "G", "verdict": "pass"', "not a JSON report"),
    ('[{"item": "G", "instances_checked": 3}]', "lacks the key 'verdict'"),
    ('[{"item": "G", "verdict": "weird", "instances_checked": 3}]',
     "unknown verdict 'weird'"),
    ('[{"item": "G", "verdict": "fail", "witness": [1, 2]}]',
     "witness of 'G' must be an object"),
    ('[{"item": "G", "verdict": "pass", "instances_checked": "7"}]',
     "instances_checked of 'G' must be a count"),
    ('[{"item": "G", "verdict": "pass", "elapsed": "soon"}]',
     "elapsed of 'G' must be a number"),
    ('{"item": "x", "verdict": "pass", "elapsed": 1e400}',
     "elapsed of 'x' must be a number of seconds, finite"),
    ('{"item": "x", "verdict": "pass", "elapsed": NaN}',
     "elapsed of 'x' must be a number of seconds, finite"),
    ('{"item": "x", "verdict": "pass", "elapsed": -1}',
     "elapsed of 'x' must be a number of seconds, finite and not negative"),
    ('"PASS G instances=7"', "neither a report nor a list"),
    ('{"item": "x", "verdict": "fail", "witness": {"n": NaN}, "instances_checked": 1}',
     "witness of 'x' must hold only finite numbers"),
    ('{"item": "x", "verdict": "fail", "witness": {"n": [1e400]}, "instances_checked": 1}',
     "witness of 'x' must hold only finite numbers"),
], ids=["malformed-json", "missing-key", "unknown-verdict", "witness-list",
        "count-string", "elapsed-string", "elapsed-infinite", "elapsed-nan",
        "elapsed-negative", "not-a-list", "witness-nan", "witness-infinite"])
def test_report_rejects_bad_input_with_exit_2(capsys, tmp_path, text, message):
    saved = tmp_path / "bad.json"
    saved.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "report", str(saved))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_reruns(capsys, model_path):
    argvs = [
        ("check", "--theorem", "quotients", "--bound", "2", model_path),
        ("check", "--axiom", "all", "--bound", "1", "--format", "json",
         model_path),
        ("construct", "--op", "pi", "--maps", "g,f", model_path),
        ("compile", "--context", "x:X", "--formula",
         r"forall y:Y. (m(x,y) => r(x))", "--verify", "--trace", model_path),
        ("pi", "--g", "g", "--f", "t", "--check-universal", "--format",
         "json", model_path),
    ]
    for argv in argvs:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0

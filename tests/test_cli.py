"""Command-line behavior: exit codes, formats, determinism, diagnostics."""

from __future__ import annotations

import json

import pytest

from cetcs import cli
from cetcs.axioms import AXIOMS, THEOREMS
from cetcs.cli import main
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


def test_missing_model_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "--axiom", "C1", "/no/such/file")
    assert code == 2 and "error" in err


def test_sampling_requires_large_bound(capsys, model_path):
    code, _, err = run(capsys, "check", "--axiom", "C1", "--bound", "3",
                       "--sample", "5", model_path)
    assert code == 2 and "sampling" in err


def test_bound_env_var_is_honored(capsys, model_path, monkeypatch):
    monkeypatch.setenv("CETCS_BOUND", "1")
    _, out_env, _ = run(capsys, "check", "--axiom", "C1", model_path)
    monkeypatch.delenv("CETCS_BOUND")
    _, out_flag, _ = run(capsys, "check", "--axiom", "C1", "--bound", "1",
                         model_path)
    assert out_env == out_flag


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


def test_compile_bad_formula_exits_2(capsys, model_path):
    code, _, err = run(capsys, "compile", "--context", "x:X",
                       "--formula", "q(x)", model_path)
    assert code == 2 and "q" in err


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
    ('"PASS G instances=7"', "neither a report nor a list"),
], ids=["malformed-json", "missing-key", "unknown-verdict", "witness-list",
        "count-string", "elapsed-string", "not-a-list"])
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

"""Report: a frozen record of one checked item, with a lazily rendered label."""

from __future__ import annotations

import dataclasses
import json

import pytest

from cetcs.report import FAIL, PASS, Report, from_dict

FIELDS = ("item", "verdict", "witness", "instances_checked", "elapsed")


def _failed(item="C1"):
    return Report(item=item, verdict=FAIL, witness={"row": ["x0"]},
                  instances_checked=3, elapsed=0.5)


def test_report_has_its_fields_in_order():
    assert tuple(f.name for f in dataclasses.fields(Report)) == FIELDS


@pytest.mark.parametrize("name", FIELDS)
def test_report_fields_are_frozen(name):
    rep = _failed(lambda: "C1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rep, name, getattr(rep, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rep, name)
    assert rep == _failed()


def test_a_lazy_label_equals_a_plain_one():
    lazy = Report(lambda: "verify p", PASS, None, 4)
    plain = Report(item="verify p", verdict=PASS, witness=None, instances_checked=4,
                   elapsed=None)
    assert lazy == plain and hash(lazy) == hash(plain)
    assert repr(lazy) == repr(plain) == (
        "Report(item='verify p', verdict='pass', witness=None, "
        "instances_checked=4, elapsed=None)")
    assert lazy != dataclasses.replace(plain, item="verify q")


def test_a_label_function_runs_at_most_once():
    calls = []

    def label():
        calls.append(None)
        return "late"

    rep = Report(item=label, verdict=PASS, witness=None, instances_checked=0)
    assert calls == [] and rep.passed and not rep.failed
    assert rep.item == "late" and rep.text_line() == "PASS late instances=0"
    assert rep.to_dict()["item"] == "late" and repr(rep).startswith("Report(item='late'")
    assert rep == Report("late", PASS, None, 0)
    assert len(calls) == 1


def test_replace_builds_a_new_report():
    rep = Report(item=lambda: "x", verdict=PASS, witness=None, instances_checked=2,
                 elapsed=0.1)
    new = dataclasses.replace(rep, verdict=FAIL, witness={"k": 1})
    assert new == Report("x", FAIL, {"k": 1}, 2, 0.1)
    assert rep.verdict == PASS and rep.witness is None


@pytest.mark.parametrize("rep", [
    _failed(),
    Report(item=lambda: "lazy", verdict=PASS, witness=None, instances_checked=7,
           elapsed=1.25),
], ids=["plain", "lazy"])
def test_from_dict_round_trips_to_dict(rep):
    assert from_dict(rep.to_dict(include_timing=True)) == rep
    assert from_dict(json.loads(json.dumps(rep.to_dict(include_timing=True)))) == rep
    assert from_dict(rep.to_dict()) == dataclasses.replace(rep, elapsed=None)

"""The closed-form counts of ``counts.py`` against the checker's own."""

from __future__ import annotations

import pytest

from cetcs.axioms import AXIOMS, CheckSpec, check_axiom, check_theorem
from counts import COUNTS, composable_pairs, main, pi_competitors


# bound 1 matters for NT, whose two sum diagrams need a carrier of size 2
@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("item", list(COUNTS))
def test_the_formulas_count_what_the_checker_sweeps(item, bound):
    check = check_axiom if item in AXIOMS else check_theorem
    rep = check(CheckSpec(item=item, bound=bound))
    assert rep.passed and rep.instances_checked == COUNTS[item](bound)


def test_the_formulas_give_the_pinned_and_predicted_counts():
    # bound 4 is pinned in CI's bound-4 step; bound 5 is out of the
    # checker's reach and stands as a prediction
    assert {item: count(4) for item, count in COUNTS.items()} == {
        "C1": 5, "C2": 136_341, "C3": 1_371_506, "D1": 5, "D2": 131_909,
        "D3": 2_362_892, "PA": 98, "Fct": 499, "Eff": 294, "pullback-elements": 76_712_443,
        "quotients": 1_723, "image-factorization": 12_988, "choice": 587,
        "dependent-choice": 203_548, "DP": 246, "onto-pullback": 27_938,
        "covers-onto": 499, "epi-onto": 499, "classifier": 31, "pretopos": 29_507,
        "G": 499, "I": 1, "NT": 3, "element-equality": 78_132,
        "inclusion-orders": 4_511, "function-graphs": 74_963, "induction": 1_626,
        "exponentials": 524, "regularity": 13_973, "internal-logic": 48,
        "Pi": 1_588_518, "pi-universality": 1_722_726,
    }
    # image-factorization's, element-equality's and regularity's bound-5
    # values are also the counts of bound-5 runs
    assert {item: count(5) for item, count in COUNTS.items()} == {
        "C1": 6, "C2": 20_592_977, "C3": 545_129_643, "D1": 6, "D2": 17_256_563,
        "D3": 950_190_215, "PA": 640, "Fct": 5_705, "Eff": 1_594, "pullback-elements": 183_929_262_026,
        "quotients": 25_499, "image-factorization": 706_361, "choice": 6_333,
        "dependent-choice": 143_349_303, "DP": 326, "onto-pullback": 1_804_550,
        "covers-onto": 5_705, "epi-onto": 5_705, "classifier": 63,
        "pretopos": 1_817_943, "G": 5_705, "I": 1, "NT": 3,
        "element-equality": 11_364_514, "inclusion-orders": 110_787,
        "function-graphs": 35_794_197, "induction": 17_251, "exponentials": 5_741,
        "regularity": 902_280, "internal-logic": 48,
        "Pi": 258_630_283, "pi-universality": 277_336_538,
    }
    # the C2 runs at bounds 1-3, as an independent spot check of the formula
    assert [COUNTS["C2"](n) for n in (1, 2, 3)] == [5, 43, 1_544]


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_pi_universality_sweeps_the_counted_competitors(bound):
    # past Pi's own count and one section count per pair
    pi = check_axiom(CheckSpec(item="Pi", bound=bound))
    rep = check_theorem(CheckSpec(item="pi-universality", bound=bound))
    assert pi.passed and rep.passed
    swept = rep.instances_checked - pi.instances_checked - composable_pairs(bound)
    assert swept == pi_competitors(bound) == [6, 207, 409][bound - 1]


def test_the_competitor_count_closes_ci_pi_pins_at_bound_four():
    # CI pins Pi at 1,588,518 and pi-universality at 1,722,726 at bound 4,
    # over the 133,799 pairs of the pi-b4 workload
    assert composable_pairs(4) == 133_799
    assert pi_competitors(4) == 1_722_726 - 1_588_518 - 133_799 == 409


def test_the_script_prints_check_lines_and_rejects_a_bad_bound(capsys):
    assert main(["2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS C1 instances=3", "PASS C2 instances=43", "PASS C3 instances=102",
        "PASS D1 instances=3", "PASS D2 instances=59", "PASS D3 instances=114",
        "PASS PA instances=8",
        "PASS Fct instances=11", "PASS Eff instances=9",
        "PASS pullback-elements instances=557", "PASS quotients instances=23",
        "PASS image-factorization instances=37", "PASS choice instances=13",
        "PASS dependent-choice instances=19", "PASS DP instances=164",
        "PASS onto-pullback instances=42", "PASS covers-onto instances=11",
        "PASS epi-onto instances=11", "PASS classifier instances=7",
        "PASS pretopos instances=244", "PASS G instances=11", "PASS I instances=1",
        "PASS NT instances=3", "PASS element-equality instances=36",
        "PASS inclusion-orders instances=30", "PASS function-graphs instances=31",
        "PASS induction instances=521", "PASS exponentials instances=20",
        "PASS regularity instances=23", "PASS internal-logic instances=48",
        "PASS Pi instances=381", "PASS pi-universality instances=635",
    ]
    for argv in ([], ["0"], ["four"], ["4", "5"]):
        assert main(argv) == 2

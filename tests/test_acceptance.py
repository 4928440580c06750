"""Acceptance gate: each criterion runs at its stated bound and tolerance.

Every test prints one summary line (visible with ``-rP`` or ``-s``) and
fails loudly if any instance misbehaves or a runtime budget is exceeded.
Oracles used here (union-find, section counting, row arithmetic) are
written independently of the library code they judge.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time

import pytest

from cetcs.axioms import (
    AXIOMS,
    CheckSpec,
    check_axiom,
    check_pi_universal,
    check_theorem,
)
from cetcs.cli import main
from cetcs.finset import (
    FinMor,
    FinObj,
    PiDiagram,
    all_maps,
    carrier_of_size,
    pi_diagram,
    quotient,
)
from cetcs.logic import (
    And,
    Atom,
    Bot,
    Env,
    Exists,
    Forall,
    Implies,
    Or,
    Top,
    Var,
    compile_formula,
    parse_context,
    verify,
)
from cetcs.relcalc import relation_from_tuples

from conftest import STANDARD_MODEL
from literal_sweeps import set_partitions


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail})")


# ---------------------------------------------------------------------------
# 1. the full axiom suite at bound 3 through the command line


def test_criterion_1_axiom_suite_bound_3(capsys):
    t0 = time.perf_counter()
    code = main(["check", "--axiom", "all", "--bound", "3"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    lines = out.splitlines()
    items = [line.split()[1] for line in lines]
    verdicts = [line.split()[0] for line in lines]
    instances = {
        line.split()[1]: int(line.split()[2].removeprefix("instances="))
        for line in lines
    }
    ok = (
        code == 0
        and items == list(AXIOMS)
        and all(v == "PASS" for v in verdicts)
        and elapsed <= 60.0
        and all(instances[i] >= 1000 for i in ("C2", "C3", "D2", "D3", "Pi"))
    )
    with capsys.disabled():
        announce(1, "axiom-suite", ok,
                 f"14 axioms, {sum(instances.values())} instances, "
                 f"{elapsed:.1f}s of 60s")
    assert code == 0
    assert items == list(AXIOMS) and all(v == "PASS" for v in verdicts)
    for heavy in ("C2", "C3", "D2", "D3", "Pi"):
        assert instances[heavy] >= 1000, f"{heavy} barely enumerated"
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 2. compiled formulas agree with the truth-table oracle on a generated suite


def closure(depth: int, y_bound: bool) -> list:
    leaves = [Top(), Bot(), Atom("r", (Var("x"),))]
    if y_bound:
        leaves.append(Atom("m", (Var("x"), Var("y"))))
    if depth == 0:
        return leaves
    smaller = closure(depth - 1, y_bound)
    out = list(leaves)
    out += [Implies(phi, Bot()) for phi in smaller]
    for phi, psi in itertools.product(smaller, repeat=2):
        out += [And(phi, psi), Or(phi, psi), Implies(phi, psi)]
    if not y_bound:
        inner = closure(depth - 1, True)
        out += [Forall("y", "Y", phi) for phi in inner]
        out += [Exists("y", "Y", phi) for phi in inner]
    return out


def operator_words(max_len: int) -> list:
    """Depth-three chains: every operator word, first symbol outermost.

    The innermost leaf is m(x,y) once a quantifier has bound y on the way
    down, r(x) otherwise, so no binder in a chain is vacuous.
    """

    def build(word, y_bound):
        if not word:
            if y_bound:
                return Atom("m", (Var("x"), Var("y")))
            return Atom("r", (Var("x"),))
        op, rest = word[0], word[1:]
        if op == "not":
            return Implies(build(rest, y_bound), Bot())
        if op in ("and", "or", "implies"):
            side = (
                Atom("m", (Var("x"), Var("y")))
                if y_bound else Atom("r", (Var("x"),))
            )
            node = {"and": And, "or": Or, "implies": Implies}[op]
            return node(build(rest, y_bound), side)
        node = Forall if op == "forall" else Exists
        return node("y", "Y", build(rest, True))

    ops = ("and", "or", "implies", "not", "forall", "exists")
    formulas = []
    for k in range(max_len + 1):
        for word in itertools.product(ops, repeat=k):
            if sum(1 for op in word if op in ("forall", "exists")) > 1:
                continue  # a second y-binder would shadow the first
            formulas.append(build(word, False))
    return formulas


def size_config_env(nx: int, ny: int) -> Env:
    x = carrier_of_size(nx, "x")
    y = carrier_of_size(ny, "y")
    r_rows = [(lbl,) for k, lbl in enumerate(x.labels) if k % 2 == 0]
    m_rows = [
        (a, b)
        for k, a in enumerate(x.labels)
        for j, b in enumerate(y.labels)
        if (k + j) % 2
    ]
    return Env(
        objects={"X": x, "Y": y},
        relations={
            "r": relation_from_tuples(r_rows, (x,)),
            "m": relation_from_tuples(m_rows, (x, y)),
        },
        morphisms={},
    )


def test_criterion_2_formula_suite_zero_discrepancies(capsys):
    t0 = time.perf_counter()
    tree_suite = closure(2, False)
    chain_suite = operator_words(3)
    discrepancies = []
    formulas_checked = 0
    rows_checked = 0
    for nx in range(4):
        for ny in range(4):
            env = size_config_env(nx, ny)
            ctx = parse_context("x:X", env.objects)
            for phi in itertools.chain(tree_suite, chain_suite):
                rep = verify(ctx, phi, env)
                formulas_checked += 1
                rows_checked += rep.instances_checked
                if not rep.passed:
                    discrepancies.append(rep.witness)
    elapsed = time.perf_counter() - t0
    ok = not discrepancies and elapsed <= 120.0
    with capsys.disabled():
        announce(2, "formula-suite", ok,
                 f"{len(tree_suite)}+{len(chain_suite)} formulas x 16 size "
                 f"configs, {formulas_checked} runs, {rows_checked} rows, "
                 f"{len(discrepancies)} discrepancies, {elapsed:.1f}s of 120s")
    assert len(tree_suite) > 5000 and len(chain_suite) > 150
    assert discrepancies == []
    assert elapsed <= 120.0


# The compiled output of the criterion-2 suite, recorded before the
# logic-layer speed-ups it guards: per formula, the compiled relation's
# domain labels and leg tables, the trace, the verdict and the row count.
CRITERION_2_DIGEST = "5c2955400e33b9a3fc69800922e58b340c534dd9703514b794c90998fab5492c"


def test_criterion_2_compiled_output_is_pinned():
    digest = hashlib.sha256()
    formulas = closure(2, False) + operator_words(3)
    for nx, ny in ((3, 2), (2, 3)):
        env = size_config_env(nx, ny)
        ctx = parse_context("x:X", env.objects)
        for phi in formulas:
            result = compile_formula(ctx, phi, env)
            rel = result.relation
            rep = verify(ctx, phi, env)
            digest.update(repr((
                rel.dom.labels, [leg.table for leg in rel.legs], result.trace,
                rep.verdict, rep.instances_checked,
            )).encode())
    assert digest.hexdigest() == CRITERION_2_DIGEST


# ---------------------------------------------------------------------------
# 3. row inclusion coincides with factoring inclusion for monos up to size 4


def test_criterion_3_inclusion_orders_bound_4(capsys):
    rep = check_theorem(CheckSpec(item="inclusion-orders", bound=4))
    # independent pair count: monos into a size-k carrier, squared, summed
    def monos_into(k: int) -> int:
        return sum(math.perm(k, n) for n in range(k + 1))

    expected_pairs = sum(monos_into(k) ** 2 for k in range(5))
    ok = rep.passed and rep.instances_checked == expected_pairs
    with capsys.disabled():
        announce(3, "inclusion-orders", ok,
                 f"{rep.instances_checked} mono pairs at sizes <= 4, "
                 f"expected {expected_pairs}, witness law n∘f = m checked")
    assert rep.passed, rep.witness
    assert rep.instances_checked == expected_pairs == 4511


# ---------------------------------------------------------------------------
# 4. partial/total function predicates match independent row characterizations


def test_criterion_4_function_characterization_bound_3(capsys):
    rep = check_theorem(CheckSpec(item="function-graphs", bound=3))
    expected = sum(2 ** (nx * ny) for nx in range(4) for ny in range(4))
    ok = rep.passed and rep.instances_checked == expected
    with capsys.disabled():
        announce(4, "function-characterization", ok,
                 f"{rep.instances_checked} binary relations at sizes <= 3, "
                 f"expected {expected}, unique-choice graphs re-extracted")
    assert rep.passed, rep.witness
    assert rep.instances_checked == expected == 689


# ---------------------------------------------------------------------------
# 5. dependent products: universality, mutation detection, section counts


def composable_pairs(max_size: int):
    for ny in range(max_size + 1):
        for nx in range(max_size + 1):
            for ni in range(max_size + 1):
                y = carrier_of_size(ny, "y")
                x = carrier_of_size(nx, "x")
                i = carrier_of_size(ni, "i")
                for g in all_maps(y, x):
                    for f in all_maps(x, i):
                        yield g, f


def test_criterion_5_pi_universality_bound_3(capsys):
    t0 = time.perf_counter()
    rep = check_theorem(CheckSpec(item="pi-universality", bound=3))

    # third, inline section count for every pair at the acceptance bound
    count_mismatches = 0
    pairs = 0
    for g, f in composable_pairs(3):
        d = pi_diagram(g, f)
        total = 0
        for i in f.cod.labels:
            sections_here = 1
            for x in f.dom.labels:
                if f(x) == i:
                    sections_here *= sum(1 for yl in g.dom.labels if g(yl) == x)
            total += sections_here
        pairs += 1
        if len(d.F) != total:
            count_mismatches += 1

    # every applicable mutation must be detected with a witness
    attempted = detected = 0
    for g, f in composable_pairs(3):
        d = pi_diagram(g, f)
        for k, p in enumerate(d.P.labels):
            fiber = [yl for yl in g.dom.labels if g(yl) == d.pi2(p)]
            others = [yl for yl in fiber if yl != d.ev.table[k]]
            if not others:
                continue
            table = list(d.ev.table)
            table[k] = others[0]
            mutant = PiDiagram(P=d.P, F=d.F, pi1=d.pi1, pi2=d.pi2, phi=d.phi,
                               ev=FinMor(d.P, g.dom, tuple(table)))
            bad = check_pi_universal(mutant, g, f)
            attempted += 1
            detected += bool(bad.failed and bad.witness is not None)
            break
        if len(f.cod):
            inflated = FinObj(d.F.labels + ("impostor",))
            phi = FinMor(inflated, f.cod, d.phi.table + (f.cod.labels[0],))
            pi1 = FinMor(d.P, inflated, d.pi1.table)
            mutant = PiDiagram(P=d.P, F=inflated, pi1=pi1, pi2=d.pi2,
                               phi=phi, ev=d.ev)
            bad = check_pi_universal(mutant, g, f)
            attempted += 1
            detected += bool(bad.failed and bad.witness is not None)

    elapsed = time.perf_counter() - t0
    ok = rep.passed and count_mismatches == 0 and detected == attempted > 1000
    with capsys.disabled():
        announce(5, "pi-universality", ok,
                 f"{pairs} composable pairs at sizes <= 3, "
                 f"{count_mismatches} count mismatches, "
                 f"{detected}/{attempted} mutations caught, {elapsed:.1f}s")
    assert rep.passed, rep.witness
    assert count_mismatches == 0 and pairs == 1678
    assert attempted > 1000 and detected == attempted


# ---------------------------------------------------------------------------
# 6. quotients realize exactly the relation; class counts match union-find


class UnionFind:
    def __init__(self, labels):
        self.parent = {x: x for x in labels}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)

    def count(self):
        return len({self.find(x) for x in self.parent})


def test_criterion_6_quotients_bound_4(capsys):
    rep = check_theorem(CheckSpec(item="quotients", bound=4))
    equivalences = 0
    size_mismatches = 0
    biconditional_failures = 0
    for n in range(5):
        x = carrier_of_size(n, "u")
        for part in set_partitions(x.labels):
            rows = [(a, b) for block in part for a in block for b in block]
            rel = relation_from_tuples(rows, (x, x))
            q = quotient(rel)
            uf = UnionFind(x.labels)
            for a, b in rows:
                uf.union(a, b)
            equivalences += 1
            if len(q.cod) != uf.count():
                size_mismatches += 1
            related = set(rows)
            for a in x.labels:
                for b in x.labels:
                    if ((a, b) in related) != (q(a) == q(b)):
                        biconditional_failures += 1
    ok = rep.passed and not size_mismatches and not biconditional_failures
    with capsys.disabled():
        announce(6, "quotient-effectivity", ok,
                 f"{equivalences} equivalences at sizes <= 4, "
                 f"{size_mismatches} class-count mismatches, "
                 f"{biconditional_failures} biconditional failures")
    assert rep.passed, rep.witness
    assert equivalences == 1 + 1 + 2 + 5 + 15
    assert size_mismatches == 0 and biconditional_failures == 0


# ---------------------------------------------------------------------------
# 7. derived structure on top of a passing axiom suite


def test_criterion_7_derived_structure_bound_3(capsys):
    axiom_reports = [check_axiom(CheckSpec(item=a, bound=2)) for a in AXIOMS]
    derived = {
        item: check_theorem(CheckSpec(item=item, bound=3))
        for item in ("image-factorization", "regularity", "epi-onto",
                     "classifier")
    }
    ok = (all(r.passed for r in axiom_reports)
          and all(r.passed for r in derived.values()))
    with capsys.disabled():
        announce(7, "derived-structure", ok,
                 "images least + cover stability + balance + unique "
                 f"classifier, {sum(r.instances_checked for r in derived.values())} "
                 "instances at bound 3")
    for r in axiom_reports:
        assert r.passed, (r.item, r.witness)
    for item, r in derived.items():
        assert r.passed, (item, r.witness)


# ---------------------------------------------------------------------------
# 8. bounded recursion and dependent choice on prefixes up to 8


def test_criterion_8_bounded_recursion_prefix_8(capsys):
    induction = check_theorem(CheckSpec(item="induction", bound=3))
    choice = check_theorem(CheckSpec(item="dependent-choice", bound=3))

    from cetcs.finset import nno_prefix, terminal

    b_obj = carrier_of_size(3, "n")
    h = FinMor(b_obj, b_obj, ("n1", "n2", "n0"))
    seq = nno_prefix(8, FinMor(terminal(), b_obj, ("n0",)), h)
    equations_hold = len(seq) == 9 and all(
        seq[k + 1].table == (h(seq[k].table[0]),) for k in range(8)
    )
    ok = induction.passed and choice.passed and equations_hold
    with capsys.disabled():
        announce(8, "bounded-recursion", ok,
                 f"induction {induction.instances_checked} instances, "
                 f"dependent choice {choice.instances_checked} chains, "
                 "prefix length 8")
    assert induction.passed, induction.witness
    assert choice.passed, choice.witness
    assert equations_hold


# ---------------------------------------------------------------------------
# 9. byte-identical reports across reruns and interpreter hash seeds


def test_criterion_9_determinism(capsys, tmp_path):
    model = tmp_path / "model.cetcs"
    model.write_text(STANDARD_MODEL, encoding="utf-8")
    commands = [
        ["check", "--axiom", "all", "--bound", "2", str(model)],
        ["check", "--theorem", "internal-logic", "--format", "json"],
        ["construct", "--op", "exponential", "--objects", "Y,Y", str(model)],
        ["compile", "--context", "x:X", "--formula",
         r"exists y:Y. (m(x,y) /\ r(x))", "--verify", "--trace", str(model)],
        ["pi", "--g", "g", "--f", "f", "--check-universal", str(model)],
    ]
    in_process_ok = True
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        if not (code1 == code2 == 0 and out1 == out2 and out1):
            in_process_ok = False

    one_liner = (
        "from cetcs.cli import main;"
        "main(['check','--axiom','Eff','--theorem','quotients',"
        "'--bound','2','--format','json'])"
    )
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", one_liner],
            capture_output=True, env=env, check=True,
        )
        outs.append(proc.stdout)
    across_seeds_ok = outs[0] == outs[1] and outs[0]
    ok = bool(in_process_ok and across_seeds_ok)
    with capsys.disabled():
        announce(9, "determinism", ok,
                 f"{len(commands)} commands rerun byte-identical, JSON stable "
                 "across PYTHONHASHSEED 0/4242")
    assert in_process_ok
    assert outs[0] == outs[1]

"""Tests of the benchmark itself: the gate, the generators and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def reference_results():
    """The check-b3 reference as the results of a correct pass."""
    results, expected = [], []
    for line in wl.check_b3_reference().decode("utf-8").splitlines(keepends=True):
        verdict, item, count = line.split()[:3]
        n = int(count.removeprefix("instances="))
        results.append(wl.OpResult(op=item, elapsed_s=0.01, verdict=verdict.lower(),
                                   instances=n, output=line.encode("utf-8")))
        expected.append(wl.Expected(instances=n, cap_s=wl.OP_CAP_S["check-b3"],
                                    output=line.encode("utf-8")))
    return results, expected


def failed_share(results, expected):
    return len(wl.failures(results, expected)) / len(results)


def flip_verdict(r):
    line = r.output.replace(b"PASS", b"FAIL", 1)
    return dataclasses.replace(r, verdict="fail", output=line)


def count_off_by_one(r):
    return dataclasses.replace(r, instances=r.instances + 1)


def change_one_byte(r):
    out = bytearray(r.output)
    out[-2] ^= 0x01
    return dataclasses.replace(r, output=bytes(out))


def over_cap(r):
    return dataclasses.replace(r, elapsed_s=wl.OP_CAP_S["check-b3"] + 0.001)


def raised(r):
    return dataclasses.replace(r, error="ShapeError: boom")


@pytest.mark.parametrize("corrupt", [flip_verdict, count_off_by_one,
                                     change_one_byte, over_cap, raised])
def test_one_corrupted_result_raises_failed_share(corrupt):
    results, expected = reference_results()
    assert failed_share(results, expected) == 0
    k = len(results) // 2
    results[k] = corrupt(results[k])
    assert wl.judge(results[k], expected[k]) is not None
    assert failed_share(results, expected) == 1 / len(results)


def test_verify_results_are_judged_on_verdict_and_rows():
    good = wl.OpResult(op="verify#0", elapsed_s=0.001, verdict="pass", instances=3)
    exp = wl.Expected(instances=3, cap_s=wl.OP_CAP_S["formula-shared"])
    assert wl.judge(good, exp) is None
    for bad in (dataclasses.replace(good, verdict="fail"), count_off_by_one(good),
                over_cap(good)):
        assert failed_share([good, bad], [exp, exp]) == 0.5


def test_a_pass_killed_at_the_time_limit_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "RUN_LIMIT_S", 0.0)  # every spawn gets 1 s
    run = bench.Run("formula-deep", 0, tmp_path)
    assert run.spawn() is None
    assert run.attempted == run.failed == wl.DEEP_FORMULAS


def test_a_pass_cut_by_its_deadline_records_every_operation(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    run = worker.prepare("formula-deep", 3, tmp_path,
                         worker.Clock(worker.SpeedSampler()))
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        _, _, results, expected, _, _ = run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(results) == len(expected) == wl.DEEP_FORMULAS
    reasons = [wl.judge(r, e) for r, e in zip(results, expected)]
    cut = [k for k, why in enumerate(reasons) if why is not None]
    assert cut and cut == list(range(cut[0], len(results)))
    assert "pass deadline" in reasons[cut[0]]
    assert results[cut[0]].elapsed_s > 0


GENERATED = """
import hashlib, sys
sys.path.insert(0, {here!r})
import workloads as wl
h = hashlib.sha256()
for seed in (0, 7, 123456789):
    h.update(wl.check_b3_model(seed).encode())
    for text, rows in wl.shared_models(seed):
        h.update(text.encode() + bytes([rows]))
    model, formulas = wl.deep_inputs(seed)
    h.update(model.encode())
    for ctx, text, rows in formulas:
        h.update(f"{{ctx}}|{{text}}|{{rows}}".encode())
h.update("\\n".join(wl.shared_formulas()).encode())
print(h.hexdigest())
"""


def test_generators_are_byte_deterministic_across_hash_seeds():
    code = GENERATED.format(here=str(HERE))
    digests = set()
    for hash_seed in ("0", "1", "4242", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_seeds_change_the_inputs_but_not_their_size():
    assert wl.check_b3_model(1) != wl.check_b3_model(2)
    assert wl.deep_inputs(1)[0] != wl.deep_inputs(2)[0]
    assert [r for _, r in wl.shared_models(1)] == [r for _, r in wl.shared_models(2)]
    rows = [[r for *_, r in wl.deep_inputs(s)[1]] for s in (1, 2)]
    assert rows[0] == rows[1] and len(rows[0]) == wl.DEEP_FORMULAS


def test_formula_shared_is_the_criterion_two_suite():
    assert len(wl.shared_formulas()) == 5398
    assert bench.expected_ops("formula-shared") == 86_368


def test_composable_pair_counts():
    # README: bound 3 enumerates "all 1,678 composable pairs".
    assert wl.pi_b4_pairs(3) == 1678
    assert wl.pi_b4_pairs(4) == 133_799


TRACED_CHECK = """
import json, sys
sys.path.insert(0, {src!r}); sys.path.insert(0, {here!r})
from tracer import Tracer
t = Tracer(); t.install()
from cetcs import axioms, logic, modelfile
rep = axioms.check_axiom(axioms.CheckSpec(item="Pi", bound=3))
env = modelfile.parse_model("object X = {{a, b, c}}\\nrelation r <| (X) = {{a}}\\n").env()
ctx = logic.parse_context("x:X", env.objects)
v = logic.verify(ctx, logic.parse("r(x) /\\\\ r(x)"), env)
print(json.dumps({{"stats": t.snapshot(), "rows": v.instances_checked,
                  "passed": rep.passed and v.passed}}))
"""


def test_tracer_counts_match_independent_counts():
    code = TRACED_CHECK.format(src=str(ROOT / "src"), here=str(HERE))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    data = json.loads(out.stdout)
    stats = data["stats"]
    assert data["passed"]
    assert stats["finset.pi_diagram"]["calls"] == wl.pi_b4_pairs(3)
    assert stats["axioms.check_pi_universal"]["calls"] == wl.pi_b4_pairs(3)
    assert stats["logic.compile_formula"]["calls"] == 1
    assert stats["logic.oracle"]["calls"] == data["rows"] == 3
    # primitive calls: oracle and compile each type-check once at top level
    assert stats["logic.check_formula"]["calls"] == 1 + 3
    assert all(s["self_s"] >= 0 for s in stats.values())


def test_self_check_reports_a_miscount():
    traced = {"trace": {"logic.compile_formula": {"calls": 5},
                        "logic.oracle": {"calls": 9}},
              "verify_calls": 5, "instances": 10}
    problems = bench.self_check("formula-deep", traced)
    assert len(problems) == 1 and "logic.oracle" in problems[0]


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def test_run_refuses_a_directory_without_sources(tmp_path):
    target = tmp_path / "perfbench"
    target.mkdir()
    for f in HERE.glob("*.py"):
        (target / f.name).write_bytes(f.read_bytes())
    out = subprocess.run([sys.executable, str(target / "run.py"), "--workload", "pi-b4",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""


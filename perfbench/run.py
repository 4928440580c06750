"""The cetcs benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload check-b3 --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/cetcs``.  The load is a closed loop in
one process and one thread, one workload at a time.  Every pass runs in a
fresh interpreter (``worker.py``), because a user of ``cetcs`` pays import
and warm-up on every run.

With ``--trace 0`` the run starts a few interpreters that only set up, then
runs passes until another one would overrun ``--seconds`` (at least one),
and reports the end-to-end metrics as medians over them.  With ``--trace 1``
it runs one plain pass and one pass under the timing wrappers of
``tracer.py`` and reports the per-layer metrics, after checking the traced
call counts against counts derived independently of the tracer.

Times are in reference seconds: raw time scaled by the host speed that the
pass samples while it runs (``speed.py``), so that a shared, noisy host
still resolves small changes.  The raw times are printed on the ``#`` line.

Every metric is printed by name with its unit; the last line of stdout is
the JSON result.  The exit status is 0 when every operation was correct,
1 when one was not, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_ONLY_RUNS = 6
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "verify_p50_ms": "ms",
    "verify_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer metrics that are one traced function's count or self time.
TRACED = {
    "finset.compose.calls": ("finset.compose", "calls"),
    "finset.compose.self_s": ("finset.compose", "self_s"),
    "finset.FinMor.validations": ("finset.FinMor", "calls"),
    "finset.FinMor.self_s": ("finset.FinMor", "self_s"),
    "finset.all_maps.yielded": ("finset.all_maps", "yielded"),
    "finset.pullback.calls": ("finset.pullback", "calls"),
    "finset.pullback.self_s": ("finset.pullback", "self_s"),
    "finset.pi_diagram.calls": ("finset.pi_diagram", "calls"),
    "finset.pi_diagram.self_s": ("finset.pi_diagram", "self_s"),
    "axioms.check_pi_universal.calls": ("axioms.check_pi_universal", "calls"),
    "axioms.check_pi_universal.self_s": ("axioms.check_pi_universal", "self_s"),
    "kernel.is_mono.calls": ("kernel.is_mono", "calls"),
    "kernel.is_mono.self_s": ("kernel.is_mono", "self_s"),
    "logic.parse.self_s": ("logic.parse", "self_s"),
    "logic.check_formula.calls": ("logic.check_formula", "calls"),
    "logic.compile_formula.calls": ("logic.compile_formula", "calls"),
    "logic.compile_formula.self_s": ("logic.compile_formula", "self_s"),
    "logic.oracle.calls": ("logic.oracle", "calls"),
    "logic.oracle.self_s": ("logic.oracle", "self_s"),
    "logic.verify.self_s": ("logic.verify", "self_s"),
    "relcalc.Relation.validations": ("relcalc.Relation", "calls"),
    "relcalc.Relation.self_s": ("relcalc.Relation", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
# Layer metrics that add up the self time of several traced functions.
SUMMED = {
    "modelfile.load.self_s": ("modelfile.load", "modelfile.parse_model"),
    "report.render.self_s": ("report.render_text", "report.render_json"),
}
CONSTRUCTIONS = ("pullback", "equalizer", "coequalizer", "pi_diagram")


def reference_items() -> list[str]:
    return [line.split()[1] for line in
            wl.check_b3_reference().decode("utf-8").splitlines()]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TRACED:
        units[name] = "count" if name.endswith(("calls", "validations", "yielded")) else "s"
    units.update({name: "s" for name in SUMMED})
    units.update({f"finset.{c}.distinct_share": "ratio" for c in CONSTRUCTIONS})
    units.update({"axioms.self_s": "s", "axioms.useful_ratio": "ratio",
                  "axioms.instances_checked": "count"})
    units.update({f"axioms.item.{item}.s": "s" for item in reference_items()})
    units["trace.overhead_share"] = "ratio"
    return units


def expected_ops(workload: str) -> int:
    if workload == "check-b3":
        return len(reference_items())
    if workload == "pi-b4":
        return 1
    if workload == "formula-shared":
        return len(wl.shared_formulas()) * len(wl.shared_models(0))
    return wl.DEEP_FORMULAS


class Run:
    """Spawns the passes of one run and keeps its failure accounting."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.setup_samples: list[float] = []
        self.setup_raw: list[float] = []

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, *flags: str) -> dict | None:
        spawned_at = time.perf_counter()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(self.workdir),
               "--spawned-at", repr(spawned_at), *flags]
        # A lost set-up counts as one failed operation, a lost pass as all.
        ops = 1 if "--setup-only" in flags else expected_ops(self.workload)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(self.left(), 1.0), cwd=ROOT)
        except subprocess.TimeoutExpired:
            return self._lost(ops, "killed at the run's time limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr[-4000:])
            return self._lost(ops, f"exited with status {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_samples.append(out["setup_s"])
        self.setup_raw.append(out["setup_raw_s"])
        if "attempted" in out:
            self.attempted += out["attempted"]
            self.failed += out["failed"]
            for op, why in out["failures"]:
                print(f"FAILED {self.workload} {op}: {why}")
        return out

    def _lost(self, ops: int, why: str) -> None:
        self.attempted += ops
        self.failed += ops
        print(f"FAILED {self.workload}: {ops} operations lost, {why}")
        return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(run: Run, seconds: float) -> tuple[dict, str]:
    for _ in range(SETUP_ONLY_RUNS):
        run.spawn("--setup-only")
    passes = []
    began = time.perf_counter()
    while True:
        out = run.spawn()
        if out is None:
            break
        passes.append(out)
        used = time.perf_counter() - began
        if used + out["wall_raw_s"] > seconds or run.left() < 2 * used / len(passes):
            break
    if not passes or not run.setup_samples:
        return {}, "no pass completed"
    latencies = [x for p in passes for x in p["latencies_s"]]
    values = {
        "setup_s": statistics.median(run.setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "instances_per_s": statistics.median(p["instances"] / p["wall_s"] for p in passes),
        "verify_p50_ms": 1000 * statistics.median(latencies),
        "verify_p99_ms": 1000 * percentile(latencies, 0.99),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    note = (f"{len(passes)} pass(es), {len(run.setup_samples)} set-ups, "
            f"{len(latencies)} latency samples; raw: wall_s "
            f"{statistics.median(p['wall_raw_s'] for p in passes):.6g} s, setup_s "
            f"{statistics.median(run.setup_raw):.6g} s; host speed "
            f"{statistics.median(p['speed'] for p in passes):.4g} of reference")
    return values, note


def per_layer(run: Run) -> tuple[dict, list[str]]:
    plain = run.spawn()
    traced = run.spawn("--trace")
    if plain is None or traced is None:
        return {}, ["a pass did not complete"]
    stats = traced["trace"]

    def get(fn: str, field: str) -> float:
        return stats.get(fn, {}).get(field, 0)

    values = {name: get(fn, field) for name, (fn, field) in TRACED.items()}
    for name, fns in SUMMED.items():
        values[name] = sum(get(fn, "self_s") for fn in fns)
    for c in CONSTRUCTIONS:
        calls = get(f"finset.{c}", "calls")
        values[f"finset.{c}.distinct_share"] = (
            get(f"finset.{c}", "distinct") / calls if calls else 0.0)
    values["axioms.self_s"] = sum(s["self_s"] for fn, s in stats.items()
                                  if fn.startswith("axioms."))
    yielded = get("finset.all_maps", "yielded")
    values["axioms.useful_ratio"] = traced["instances"] / yielded if yielded else 0.0
    values["axioms.instances_checked"] = traced["instances"]
    for item in reference_items():
        values[f"axioms.item.{item}.s"] = plain["item_elapsed_s"].get(item, 0.0)
    values["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1
    return values, self_check(run.workload, traced)


def self_check(workload: str, traced: dict) -> list[str]:
    """Traced counts that differ from counts derived without the tracer."""
    stats = traced["trace"]

    def calls(fn: str) -> int:
        return stats.get(fn, {}).get("calls", 0)

    pairs = []
    if workload == "check-b3":
        pairs.append(("axioms.check_axiom + axioms.check_theorem calls",
                      calls("axioms.check_axiom") + calls("axioms.check_theorem"),
                      len(reference_items())))
    elif workload == "pi-b4":
        pairs.append(("finset.pi_diagram calls", calls("finset.pi_diagram"),
                      wl.pi_b4_pairs()))
    else:
        pairs.append(("logic.compile_formula calls", calls("logic.compile_formula"),
                      traced["verify_calls"]))
        pairs.append(("logic.oracle calls", calls("logic.oracle"), traced["instances"]))
    return [f"tracer self-check: {what} = {got}, expected {want}"
            for what, got, want in pairs if got != want]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cetcs" / "__init__.py").is_file():
        print(f"error: no cetcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = Run(args.workload, args.seed, workdir)
        if args.trace:
            values, problems = per_layer(run)
            units = per_layer_units()
        else:
            values, note = end_to_end(run, args.seconds)
            problems = [] if values else [note]
            units = END_TO_END
            if values:
                print(f"# {args.workload} seed {args.seed}: {note}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {args.workload}: {problem}")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_share {share:.6g} ratio ({run.failed} of {run.attempted} operations)")
    for name, unit in units.items():
        if name in values:
            print(f"{name} {values[name]:.6g} {unit}")
    correct = run.attempted > 0 and run.failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

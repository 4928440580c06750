"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on stdout.  The pass imports
``cetcs`` from the checkout's ``src``, builds the workload's inputs from the
seed (model text and formula text, parsed by the library), notes the clock
when they are ready, runs every operation, and judges each result against
its known answer.  ``--setup-only`` stops once the inputs are ready;
``--trace`` installs the timing wrappers before anything is generated.

Times are reported raw and in reference seconds (see ``speed.py``).

A SIGALRM at ``PASS_DEADLINE_S`` interrupts a pass that hangs: the
operation it interrupts and every one not yet run are recorded as failed,
with their elapsed time, so nothing is silently dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import SpeedSampler  # noqa: E402


class PassDeadline(BaseException):
    """Raised by the alarm; BaseException so library handlers let it through."""


def _on_alarm(signum, frame):
    raise PassDeadline(f"pass deadline of {wl.PASS_DEADLINE_S:.0f}s reached")


class Clock:
    """Reads the time and how much of it went to speed sampling so far."""

    def __init__(self, sampler: SpeedSampler) -> None:
        self.sampler = sampler

    def now(self) -> tuple[float, float]:
        return time.perf_counter(), self.sampler.spent

    @staticmethod
    def window(start: tuple[float, float], end: tuple[float, float]):
        """(t0, t1, net seconds) between two readings."""
        return start[0], end[0], (end[0] - start[0]) - (end[1] - start[1])


# ---------------------------------------------------------------------------
# workloads: each prepares its inputs and returns the callable that runs them.
# The callable returns the pass window, the peak RSS when it closed (before the
# benchmark builds its result records), the results, their expectations, the
# window of each timed verdict, and per-item Report.elapsed where there is one.


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def prepare_check_b3(seed: int, workdir: Path, clock: Clock):
    from cetcs import cli

    path = workdir / f"check-b3-{seed}-{os.getpid()}.cetcs"
    path.write_text(wl.check_b3_model(seed), encoding="utf-8")
    reference = wl.check_b3_reference().decode("utf-8").splitlines(keepends=True)

    def run():
        captured: list = []
        originals = (cli.check_axiom, cli.check_theorem)

        def capture(fn):
            def inner(spec):
                rep = fn(spec)
                captured.append(rep)
                return rep
            return inner

        cli.check_axiom, cli.check_theorem = map(capture, originals)
        out = io.StringIO()
        error = None
        start = clock.now()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", "--bound", "3", str(path)])
            # Status 1 means some item printed FAIL, which its line shows.
            if code not in (0, 1):
                error = f"exit status {code}"
        except PassDeadline as exc:
            error = str(exc)
        except Exception as exc:  # any library failure is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        window = Clock.window(start, clock.now())
        peak = peak_rss_mb()
        cli.check_axiom, cli.check_theorem = originals

        elapsed = {rep.item: rep.elapsed for rep in captured}
        lines = out.getvalue().splitlines(keepends=True)
        results, expected = [], []
        for k in range(max(len(lines), len(reference))):
            ref = reference[k] if k < len(reference) else ""
            ref_item = ref.split()[1] if ref else f"extra-line-{k}"
            expected.append(wl.Expected(instances=_instances(ref),
                                        cap_s=wl.OP_CAP_S["check-b3"],
                                        output=ref.encode("utf-8")))
            if error is not None and k >= len(lines):
                results.append(wl.OpResult(op=ref_item, elapsed_s=window[2], error=error))
                continue
            line = lines[k] if k < len(lines) else ""
            parts = line.split()
            item = parts[1] if len(parts) > 1 else ref_item
            results.append(wl.OpResult(
                op=item,
                elapsed_s=elapsed.get(item, window[2]),
                verdict=parts[0].lower() if parts else None,
                instances=_instances(line),
                output=line.encode("utf-8"),
                error=error,
            ))
        # The verdict a user waits for is the whole command's exit status.
        return window, peak, results, expected, [window], elapsed

    return run


def _instances(line: str) -> int | None:
    for token in line.split():
        if token.startswith("instances="):
            return int(token.removeprefix("instances="))
    return None


def prepare_pi_b4(seed: int, workdir: Path, clock: Clock):
    from cetcs import axioms

    def run():
        start = clock.now()
        try:
            rep = axioms.check_axiom(axioms.CheckSpec(item="Pi", bound=wl.PI_B4_BOUND))
            window = Clock.window(start, clock.now())
            result = wl.OpResult(op="Pi", elapsed_s=rep.elapsed, verdict=rep.verdict,
                                 instances=rep.instances_checked)
        except PassDeadline as exc:
            window = Clock.window(start, clock.now())
            result = wl.OpResult(op="Pi", elapsed_s=window[2], error=str(exc))
        expected = wl.Expected(instances=wl.PI_B4_INSTANCES, cap_s=wl.OP_CAP_S["pi-b4"])
        return (window, peak_rss_mb(), [result], [expected], [window],
                {"Pi": result.elapsed_s})

    return run


def prepare_formulas(workload: str, seed: int, workdir: Path, clock: Clock):
    from cetcs import logic, modelfile

    # Groups of (context, environment, rows per verify, formulas), so the
    # 86,368 formula-shared operations reuse 5,398 parsed formulas.
    groups = []
    if workload == "formula-shared":
        formulas = [logic.parse(t) for t in wl.shared_formulas()]
        for model_text, rows in wl.shared_models(seed):
            env = modelfile.parse_model(model_text).env()
            groups.append((logic.parse_context("x:X", env.objects), env, rows, formulas))
    else:
        model_text, items = wl.deep_inputs(seed)
        env = modelfile.parse_model(model_text).env()
        for c, t, rows in items:
            groups.append((logic.parse_context(c, env.objects), env, rows, [logic.parse(t)]))
    cap = wl.OP_CAP_S[workload]
    expected = [wl.Expected(instances=rows, cap_s=cap)
                for _, _, rows, formulas in groups for _ in formulas]

    def run():
        # Compact records, so that the benchmark adds little to peak_rss_mb.
        verdicts, counts = [], array("q")
        t0s, t1s, nets = array("d"), array("d"), array("d")
        error = None
        start = before = clock.now()
        try:
            for ctx, env, _, formulas in groups:
                for phi in formulas:
                    before = clock.now()
                    rep = logic.verify(ctx, phi, env)
                    after = clock.now()
                    verdicts.append(rep.verdict)
                    counts.append(rep.instances_checked)
                    t0s.append(before[0])
                    t1s.append(after[0])
                    nets.append((after[0] - before[0]) - (after[1] - before[1]))
        except PassDeadline as exc:
            error, cut = str(exc), Clock.window(before, clock.now())
        window = Clock.window(start, clock.now())
        peak = peak_rss_mb()
        windows = list(zip(t0s, t1s, nets))
        results = [wl.OpResult(op=f"verify#{k}", elapsed_s=w[2], verdict=v, instances=n)
                   for k, (v, n, w) in enumerate(zip(verdicts, counts, windows))]
        if error is not None:
            results.append(wl.OpResult(op=f"verify#{len(results)}", elapsed_s=cut[2],
                                       error=error))
            windows.append(cut)
        results += [wl.OpResult(op=f"verify#{k}", elapsed_s=0.0,
                                error="not run: pass deadline reached")
                    for k in range(len(results), len(expected))]
        return window, peak, results, expected, windows, {}

    return run


def prepare(workload: str, seed: int, workdir: Path, clock: Clock):
    if workload == "check-b3":
        return prepare_check_b3(seed, workdir, clock)
    if workload == "pi-b4":
        return prepare_pi_b4(seed, workdir, clock)
    return prepare_formulas(workload, seed, workdir, clock)


def main(argv=None) -> int:
    sampler = SpeedSampler()
    sampler.start()
    try:
        return measure(sampler, argv)
    finally:
        sampler.stop()


def measure(sampler: SpeedSampler, argv) -> int:
    clock = Clock(sampler)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True,
                    help="scratch directory for generated input files")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() of the parent just before the spawn")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cetcs  # noqa: F401  (import cost is part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run = prepare(args.workload, args.seed, args.workdir, clock)
    ready = Clock.window((args.spawned_at, 0.0), clock.now())
    out: dict = {"setup_raw_s": ready[1] - ready[0],
                 "setup_s": sampler.scaled(*ready)}
    if not args.setup_only:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, wl.PASS_DEADLINE_S)
        try:
            window, peak, results, expected, verdicts, items = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        failures = wl.failures(results, expected)
        out.update(
            wall_raw_s=window[1] - window[0],
            wall_s=sampler.scaled(*window),
            speed=sampler.factor(window[0], window[1]),
            attempted=len(results),
            failed=len(failures),
            failures=failures[:20],
            instances=sum(r.instances or 0 for r in results),
            verify_calls=len(results),
            latencies_s=[sampler.scaled(*w) for w in verdicts],
            item_elapsed_s=items,
            peak_rss_mb=peak,
        )
        if tracer is not None:
            out["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

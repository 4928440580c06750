"""Timing wrappers installed over the library from outside it.

``install`` wraps every public module-level function of the ``cetcs``
modules, and rebinds the wrapper in every module that holds the function,
so ``axioms.compose`` and ``logic.compose`` are timed as well as
``finset.compose``.  It also wraps the validating ``__post_init__`` of
``FinMor`` and ``Relation``.  Each call is a span; a span's self time is its
duration minus the time its child spans cover.  Calls count primitive calls
only (a recursive call inside an active one is not counted again), and a
generator function's spans are its resumptions, with the values it yields
counted.  For the four constructions named in ``DISTINCT`` the wrapper also
records the 64-bit hash of each result, to count distinct results.

The library itself is not modified; nothing here runs unless a pass asks
for it.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("finset", "relcalc", "logic", "axioms", "kernel", "modelfile",
           "cli", "report")
VALIDATED = (("finset", "FinMor"), ("relcalc", "Relation"))
DISTINCT = frozenset({"finset.pullback", "finset.equalizer",
                      "finset.coequalizer", "finset.pi_diagram"})


class Stat:
    __slots__ = ("calls", "self_s", "yielded", "active", "hashes")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.active = 0
        self.hashes: set[int] | None = None

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s, "yielded": self.yielded}
        if self.hashes is not None:
            out["distinct"] = len(self.hashes)
        return out


class Tracer:
    """Per-function call counts and self times for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # Each open span is a one-element list holding its children's time;
        # the bottom entry collects the time of top-level spans.
        self.stack: list[list[float]] = [[0.0]]

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def wrap(self, name: str, fn):
        st = self.stat(name)
        stack, clock = self.stack, time.perf_counter
        if name in DISTINCT:
            st.hashes = set()

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        st.self_s += dt - frame[0]
                        stack[-1][0] += dt
                    st.yielded += 1
                    yield value

            return gen_wrapper

        hashes = st.hashes

        def wrapper(*args, **kwargs):
            if st.active == 0:
                st.calls += 1
            st.active += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.active -= 1
                st.self_s += dt - frame[0]
                stack[-1][0] += dt
            if hashes is not None:
                # Hashing is tracer work: book it as a child of the caller
                # that belongs to no layer.
                h0 = clock()
                hashes.add(hash(result))
                stack[-1][0] += clock() - h0
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"cetcs.{m}") for m in MODULES}
        modules[""] = importlib.import_module("cetcs")
        wrapped: dict[int, object] = {}
        for short in MODULES:
            for attr, obj in list(vars(modules[short]).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != f"cetcs.{short}"):
                    continue
                wrapped[id(obj)] = self.wrap(f"{short}.{obj.__name__}", obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        for short, cls_name in VALIDATED:
            cls = getattr(modules[short], cls_name)
            cls.__post_init__ = self.wrap(f"{short}.{cls_name}", cls.__post_init__)

    def snapshot(self) -> dict[str, dict]:
        return {name: st.as_dict() for name, st in sorted(self.stats.items())}
